"""Loopback chat-completions endpoint owned by the benchmark.

Run as its own process so its CPU time does not share the client's
interpreter lock:

    python3 perfbench/endpoint.py --answers answers.json --latency-ms 20

It prints one JSON line ``{"port": N}`` once it listens on 127.0.0.1.
Each line ``stats`` on standard input prints one JSON line of counters;
end of input shuts the server down and prints the final counters.

The answers file maps each question to its stage-1 text (``link``), its
stage-2 text (``sql``) and the stages (``fail``) whose first attempt is
refused with a 503. A refusal is keyed on the request content, not on
arrival order: every odd-numbered sighting of a flagged (question, stage)
is refused at once, and the retry that follows is served. Served answers
wait a fixed latency first, as a model would.

The server speaks HTTP/1.1, writes each response in one write, and keeps
a listen backlog of 128 so that no connection waits on a SYN retransmit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUESTION = re.compile(r"^Question: (.*)$", re.MULTILINE)


def request_key(payload: dict) -> tuple[str | None, str]:
    """(question, stage) of a chat request; stage 1 is the linking prompt."""
    content = ""
    for msg in reversed(payload.get("messages", [])):
        if msg.get("role") == "user":
            content = msg.get("content", "")
            break
    m = _QUESTION.search(content)
    stage = "link" if content.rstrip().endswith("Answer:") else "sql"
    return (m.group(1).strip() if m else None), stage


class Counters:
    """Connections, requests and a time integral of requests in flight."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.refused = 0
        self.served = 0
        self.injected_ms = 0.0
        self.inflight = 0
        self.inflight_area = 0.0  # request-seconds
        self._last = clock()

    def _advance(self) -> None:
        now = self._clock()
        self.inflight_area += self.inflight * (now - self._last)
        self._last = now

    def connection(self) -> None:
        with self._lock:
            self.connections += 1

    def begin(self) -> None:
        with self._lock:
            self._advance()
            self.requests += 1
            self.inflight += 1

    def end(self, refused: bool, injected_ms: float) -> None:
        with self._lock:
            self._advance()
            self.inflight -= 1
            if refused:
                self.refused += 1
            else:
                self.served += 1
                self.injected_ms += injected_ms

    def snapshot(self) -> dict:
        with self._lock:
            self._advance()
            return {
                "t": self._last,
                "connections": self.connections,
                "requests": self.requests,
                "refused": self.refused,
                "served": self.served,
                "injected_ms": self.injected_ms,
                "inflight_area": self.inflight_area,
            }


def window(before: dict, after: dict) -> dict:
    """Counter deltas between two snapshots, with the mean in flight."""
    out = {k: after[k] - before[k] for k in after}
    out["inflight_mean"] = out.pop("inflight_area") / out["t"] if out["t"] > 0 else 0.0
    return out


class Endpoint(ThreadingHTTPServer):
    request_queue_size = 128
    daemon_threads = True

    def __init__(self, answers: dict, latency_s: float, counters: Counters):
        self.answers = answers
        self.latency_s = latency_s
        self.counters = counters
        self._seen: Counter = Counter()
        self._seen_lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _Handler)

    def get_request(self):
        conn = super().get_request()
        self.counters.connection()
        return conn

    def refuse(self, question: str, stage: str) -> bool:
        """True for odd-numbered sightings of a flagged request."""
        entry = self.answers.get(question)
        if entry is None or stage not in entry.get("fail", ()):
            return False
        with self._seen_lock:
            self._seen[(question, stage)] += 1
            return self._seen[(question, stage)] % 2 == 1


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server.counters.begin()
        refused = False
        injected_ms = 0.0
        try:
            try:
                question, stage = request_key(json.loads(raw))
            except ValueError:
                question, stage = None, "sql"
            entry = server.answers.get(question)
            if entry is None:
                status, body = 404, {"error": "unknown question"}
            elif server.refuse(question, stage):
                refused = True
                status, body = 503, {"error": "overloaded"}
            else:
                t0 = time.monotonic()
                time.sleep(server.latency_s)
                injected_ms = (time.monotonic() - t0) * 1000.0
                status, body = 200, {
                    "object": "chat.completion",
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": entry[stage]},
                            "finish_reason": "stop",
                        }
                    ],
                }
            data = json.dumps(body).encode("utf-8")
            reason = self.responses.get(status, ("",))[0]
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("latin-1")
            self.wfile.write(head + data)
        finally:
            server.counters.end(refused, injected_ms)

    def log_message(self, *args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    args = parser.parse_args(argv)
    with open(args.answers, encoding="utf-8") as fh:
        answers = json.load(fh)
    counters = Counters()
    server = Endpoint(answers, args.latency_ms / 1000.0, counters)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(counters.snapshot()), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        print(json.dumps(counters.snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
