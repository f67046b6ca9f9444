"""Loopback chat-completions endpoint for tests.

`MockEndpoint` runs a threaded HTTP/1.1 server on 127.0.0.1 and answers
POSTs to any path ending in /chat/completions by delegating to a script
callable. Scripts receive the decoded request payload and a global
request index and return a small dict:

    {"content": text}           -> 200 with a well-formed completion body
    {"status": 500, "body": s}  -> raw status with body s
    {"json": obj}               -> 200 with obj as the body (malformed shapes)

and may add {"headers": {name: value}} to any of them.

Every request is appended to `endpoint.requests` (method, path, payload,
headers) for assertions; a CONNECT is recorded and refused with a 403.
`endpoint.connections` counts accepted connections and
`endpoint.open_connections` those not yet closed. With
`close_after_response=True` the server closes each connection after its
first response without announcing it, as a server dropping idle
keep-alive connections does.

Each response goes out in one write: separate header and body writes
stall a keep-alive client on Nagle's algorithm plus delayed ACK.
Handler threads are daemons, so `close()` never waits on a connection a
client keeps alive.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUESTION = re.compile(r"^Question: (.*)$", re.MULTILINE)


def chat_body(text: str) -> dict:
    return {
        "id": "mock-1",
        "object": "chat.completion",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }
        ],
    }


def extract_question(payload: dict) -> str | None:
    for msg in reversed(payload.get("messages", [])):
        if msg.get("role") == "user":
            m = _QUESTION.search(msg.get("content", ""))
            return m.group(1).strip() if m else None
    return None


def is_linking_prompt(payload: dict) -> bool:
    for msg in reversed(payload.get("messages", [])):
        if msg.get("role") == "user":
            return msg.get("content", "").rstrip().endswith("Answer:")
    return False


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def handle_error(self, request, client_address):
        # a client that timed out has closed the socket a slow script writes to
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class MockEndpoint:
    def __init__(self, script, close_after_response: bool = False):
        self.script = script
        self.requests: list[dict] = []
        self.connections = 0
        self.open_connections = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1
                    outer.open_connections += 1

            def finish(self):
                try:
                    super().finish()
                finally:
                    with outer._lock:
                        outer.open_connections -= 1

            def record(self, payload) -> int:
                with outer._lock:
                    outer.requests.append(
                        {
                            "method": self.command,
                            "path": self.path,
                            "payload": payload,
                            "headers": {k: v for k, v in self.headers.items()},
                        }
                    )
                    return len(outer.requests) - 1

            def respond(self, status: int, body: str, headers=()) -> None:
                data = body.encode("utf-8")
                lines = [
                    f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(data)}",
                    *(f"{k}: {v}" for k, v in dict(headers).items()),
                ]
                self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data)
                self.close_connection = close_after_response

            def do_POST(self):  # noqa: N802 (http.server API)
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    payload = json.loads(raw)
                except ValueError:
                    payload = {"_raw": raw.decode("utf-8", "replace")}
                result = outer.script(payload, self.record(payload))
                if "content" in result:
                    body = json.dumps(chat_body(result["content"]))
                elif "json" in result:
                    body = json.dumps(result["json"])
                else:
                    body = result.get("body", "")
                self.respond(result.get("status", 200), body, result.get("headers", ()))

            def do_CONNECT(self):  # noqa: N802 (http.server API)
                self.record(None)
                self.respond(403, "")
                self.close_connection = True

            def log_message(self, *args):
                pass

        self._httpd = _Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def wait_closed(self, timeout: float = 5.0) -> bool:
        """True once every accepted connection has been closed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self.open_connections == 0:
                    return True
            time.sleep(0.01)
        return False

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# -- canned scripts --------------------------------------------------------


def scripted_oracle(answers: dict):
    """answers: question -> {"sql": gold_sql, "link": link_serialization}."""

    def script(payload, idx):
        q = extract_question(payload)
        entry = answers.get(q)
        if entry is None:
            return {"content": "SELECT 1"}
        key = "link" if is_linking_prompt(payload) else "sql"
        return {"content": entry[key]}

    return script


def constant(text: str):
    return lambda payload, idx: {"content": text}


def fail_questions(inner, failing: set):
    """Persistent 500 for any request whose question is in `failing`."""

    def script(payload, idx):
        if extract_question(payload) in failing:
            return {"status": 500, "body": "internal error"}
        return inner(payload, idx)

    return script


def fail_first(n: int, text: str = "SELECT 1", status: int = 500):
    """First `n` requests get `status`, the rest succeed with `text`."""

    def script(payload, idx):
        if idx < n:
            return {"status": status, "body": "try later"}
        return {"content": text}

    return script


def always_status(status: int, body: str = ""):
    return lambda payload, idx: {"status": status, "body": body}


def malformed_body():
    return lambda payload, idx: {"json": {"object": "chat.completion", "choices": []}}


def slow(seconds: float, text: str = "SELECT 1"):
    def script(payload, idx):
        time.sleep(seconds)
        return {"content": text}

    return script
