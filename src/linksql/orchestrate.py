"""Inference orchestration: endpoint client, pipeline modes, trace capture.

Each mode only decides the link target that stage 2 generates over:
  full        — no target
  dts         — a linking call first; the target parsed from its answer
  oracle_link — the target extracted from the gold SQL

Stage 2 sees only the target's tables. With no target, or one without
tables, it sees every table; outside ``full`` mode the trace then sets
``fallback_full_schema``.

The endpoint client is the standard library's ``http.client``. Both
stages of an example cost one request each, so the fixed cost of a
request is paid twice: ``run_pipeline`` therefore gives each of its
``max_parallel_requests`` worker threads one keep-alive
``EndpointConnection``, opened on the thread's first request and closed
when the run ends. The connection holds its endpoint's config and
builds every request header once; ``complete`` sends one chat request
over it and retries transport errors, 5xx, 429 and malformed bodies with
doubling backoff, waiting longer where a ``Retry-After`` asks for it.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import math
import os
import re
import ssl
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import unquote, urlsplit

from .ingest import Split
from .linker import parse_linker_output
from .promptgen import PromptTemplateSet, link_fields, prompt_parts
from .sqlast import LinkTarget, SqlError, extract_link_targets, parse_sql

log = logging.getLogger(__name__)

MODES = ("full", "dts", "oracle_link")
API_KEY_ENV = "LINKSQL_API_KEY"  # the endpoint's credential; never logged


class EndpointError(Exception):
    """The endpoint could not produce a completion within the retry budget."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    temperature: float = 0.0
    max_output_tokens: int = 512
    request_timeout_ms: int = 60000
    max_parallel_requests: int = 4
    max_retries: int = 2
    backoff_seconds: float = 0.5

    def __post_init__(self):
        if not self.base_url:
            raise ValueError("base_url is required")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"base_url must be an http:// or https:// URL with a host, got {self.base_url!r}"
            )
        url.port  # raises ValueError on a malformed port
        if not self.model_name:
            raise ValueError("model_name is required")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.request_timeout_ms <= 0:
            raise ValueError("request_timeout_ms must be > 0")
        if self.max_parallel_requests < 1:
            raise ValueError("max_parallel_requests must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(self.backoff_seconds) and self.backoff_seconds >= 0):
            raise ValueError(f"backoff_seconds must be finite and >= 0, got {self.backoff_seconds}")


@dataclass(frozen=True)
class TwoStageTrace:
    """One example's run; its fields, in order, are a ``traces.jsonl`` row."""

    example_id: str
    mode: str
    stage1_prompt: str | None
    stage1_completion: str | None
    resolved_tables: tuple[str, ...]
    resolved_columns: tuple[str, ...]  # "table.column" strings
    stage2_prompt: str
    stage2_completion: str
    extracted_sql: str
    wall_ms: dict
    fallback_full_schema: bool = False
    error: str | None = None


class EndpointConnection:
    """One keep-alive HTTP/1.1 connection to the endpoint of ``config``.

    The socket opens on the first request and reopens after the server
    closes it. The environment is read once, here: ``LINKSQL_API_KEY``
    becomes a bearer ``Authorization`` header, and under the proxy
    settings (``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY``) an http target
    is requested in absolute form from the proxy, an https target through
    a CONNECT tunnel, and credentials in the proxy URL become a
    ``Proxy-Authorization`` header.
    TLS is verified against the system trust store. Every socket operation
    times out after ``request_timeout_ms``. Not safe to share between
    threads.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        url = urlsplit(config.base_url.rstrip("/") + "/chat/completions")
        host, port = url.hostname, url.port
        timeout = config.request_timeout_ms / 1000.0
        self._target = url.path + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}

        proxy = urllib.request.getproxies().get(url.scheme)
        proxy_headers = {}
        if proxy and urllib.request.proxy_bypass(f"{host}:{port}" if port else host):
            proxy = None
        if proxy is None:
            via_host, via_port = host, port
        else:
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise EndpointError(f"unsupported {url.scheme} proxy {proxy_url.scheme}://")
            via_host, via_port = proxy_url.hostname, proxy_url.port or 80
            if proxy_url.username is not None:
                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                proxy_headers["Proxy-Authorization"] = f"Basic {token}"

        if url.scheme == "https":
            self._conn = http.client.HTTPSConnection(
                via_host, via_port, timeout=timeout, context=ssl.create_default_context()
            )
            if proxy is not None:
                self._conn.set_tunnel(host, port, headers=proxy_headers)
        else:
            self._conn = http.client.HTTPConnection(via_host, via_port, timeout=timeout)
            if proxy is not None:
                self._target = url.geturl()
                self._headers.update(proxy_headers)
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def post(self, body: bytes) -> tuple[int, http.client.HTTPMessage, bytes]:
        """Status, headers and body of one POST to the endpoint.

        The server may have closed a kept-alive socket while it sat idle,
        so a request that fails on a reused socket before any response
        arrives is sent once more, at once, on a fresh socket.
        """
        reused = self._conn.sock is not None
        try:
            try:
                self._conn.request("POST", self._target, body, self._headers)
                response = self._conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                self._conn.close()
                self._conn.request("POST", self._target, body, self._headers)
                response = self._conn.getresponse()
            return response.status, response.headers, response.read()
        except BaseException:
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()


# A lone surrogate: JSON can escape one (``"\ud800"``), UTF-8 cannot hold it.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _retry_after(value: str | None) -> float:
    """Seconds a ``Retry-After`` header asks for: its delta-seconds form
    only, 0 for an HTTP date or anything unparsable."""
    value = (value or "").strip()
    return float(value) if re.fullmatch(r"[0-9]+", value) else 0.0


def complete(
    connection: EndpointConnection,
    prompt: str,
    system: str | None = None,
    sleep=time.sleep,
) -> str:
    """One chat completion over ``connection``, with retries on transient
    failures; the model, sampling settings and retry budget are those of
    ``connection.config``, and the connection stays open.

    Transient: transport errors, HTTP 5xx, 429, malformed response body
    (one nested too deeply to decode, or whose message content is not a
    string, included).
    A 429 or 503 waits at least its ``Retry-After`` seconds before the
    next attempt. Other statuses outside 2xx fail immediately; redirects
    are not followed. Exhausting the budget raises EndpointError.

    Each lone surrogate in the message text becomes U+FFFD, so that the
    text can be written as UTF-8.
    """
    config = connection.config
    messages = []
    if system is not None:
        messages.append({"role": "system", "content": system})
    messages.append({"role": "user", "content": prompt})
    body = json.dumps(
        {
            "model": config.model_name,
            "messages": messages,
            "temperature": config.temperature,
            "max_tokens": config.max_output_tokens,
        }
    ).encode("utf-8")
    last_error = "no attempt made"
    wait = 0.0
    for attempt in range(config.max_retries + 1):
        if attempt:
            sleep(max(config.backoff_seconds * (2 ** (attempt - 1)), wait))
        wait = 0.0
        try:
            status, resp_headers, data = connection.post(body)
        except (OSError, http.client.HTTPException) as err:
            last_error = f"transport error: {type(err).__name__}: {err}"
            log.debug("attempt %d failed: %s", attempt + 1, last_error)
            continue
        if status >= 500 or status == 429:
            last_error = f"HTTP {status}"
            if status in (429, 503):
                wait = _retry_after(resp_headers.get("Retry-After"))
            log.debug("attempt %d failed: %s", attempt + 1, last_error)
            continue
        if not 200 <= status < 300:
            text = data.decode("utf-8", "replace")
            raise EndpointError(f"HTTP {status}: {text[:200]}")
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not str")
            return _LONE_SURROGATE.sub("\ufffd", content)
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as err:
            # RecursionError: JSON nested deeper than the decoder recurses
            last_error = f"malformed response body: {err}"
            log.debug("attempt %d failed: %s", attempt + 1, last_error)
            continue
    raise EndpointError(f"retries exhausted: {last_error}")


_FENCE = re.compile(r"```(?:[A-Za-z0-9_-]+)?\s*\n?(.*?)```", re.DOTALL)
# Everything before the first ';' outside a quoted run; an unterminated
# quote is a plain character.
_FIRST_STATEMENT = re.compile(r"""(?:'[^']*'|"[^"]*"|`[^`]*`|[^;])*""")


def extract_sql(completion: str) -> str:
    """First statement of a completion: fences stripped, cut at the first
    ';' outside a quoted string or identifier."""
    text = completion.strip()
    fenced = _FENCE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    if text.lower().startswith("sql:"):
        text = text[4:].strip()
    return _FIRST_STATEMENT.match(text).group(0).strip()


def run_pipeline(
    mode: str,
    split: Split,
    config: EndpointConfig,
    templates: PromptTemplateSet | None = None,
    trace_path: str | Path | None = None,
    timer=time.monotonic,
    sleep=time.sleep,
) -> list[TwoStageTrace]:
    """Run one mode over a split; traces come back in example order.

    Endpoint failures are isolated per example (empty completion, error
    recorded) and never abort the run.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if templates is None:
        templates = PromptTemplateSet.load()

    local = threading.local()  # each worker thread's own connection
    connections: list[EndpointConnection] = []

    def ask(system: str, body: str) -> tuple[str, str | None]:
        try:
            conn = getattr(local, "conn", None)
            if conn is None:
                conn = local.conn = EndpointConnection(config)
                connections.append(conn)
            return complete(conn, body, system, sleep=sleep), None
        except EndpointError as err:
            return "", str(err)

    def work(ex) -> TwoStageTrace:
        catalog = ex.catalog
        wall: dict[str, float] = {}
        errors: list[str] = []
        stage1_prompt = stage1_completion = None
        target: LinkTarget | None = None

        if mode == "oracle_link":
            try:
                target = extract_link_targets(parse_sql(ex.gold_sql, catalog))
            except SqlError as err:
                errors.append(f"gold SQL unusable for linking: {err}")
        elif mode == "dts":
            s1_system, s1_body = prompt_parts("link", ex.question, catalog, None, templates)
            stage1_prompt = f"{s1_system}\n\n{s1_body}"
            t0 = timer()
            stage1_completion, s1_error = ask(s1_system, s1_body)
            wall["stage1_ms"] = round((timer() - t0) * 1000.0, 3)
            if s1_error:
                errors.append(f"stage1: {s1_error}")
            target = parse_linker_output(stage1_completion, catalog)

        fallback = False
        if target is None or not target.tables:
            target = LinkTarget(frozenset(catalog.table_names), frozenset())
            system, body = prompt_parts("full", ex.question, catalog, None, templates)
            fallback = mode != "full"
        else:
            system, body = prompt_parts("gen", ex.question, catalog, target.tables, templates)

        t0 = timer()
        stage2_completion, s2_error = ask(system, body)
        wall["stage2_ms"] = round((timer() - t0) * 1000.0, 3)
        if s2_error:
            errors.append(f"stage2: {s2_error}")
        tables, columns = link_fields(target, catalog)
        return TwoStageTrace(
            example_id=ex.example_id,
            mode=mode,
            stage1_prompt=stage1_prompt,
            stage1_completion=stage1_completion,
            resolved_tables=tables,
            resolved_columns=columns,
            stage2_prompt=f"{system}\n\n{body}",
            stage2_completion=stage2_completion,
            extracted_sql=extract_sql(stage2_completion),
            wall_ms=wall,
            fallback_full_schema=fallback,
            error="; ".join(errors) if errors else None,
        )

    try:
        with ThreadPoolExecutor(max_workers=config.max_parallel_requests) as pool:
            futures = [pool.submit(work, ex) for ex in split.examples]
            traces = [f.result() for f in futures]
    finally:
        for conn in connections:
            conn.close()

    if trace_path is not None:
        write_traces(trace_path, traces)
    return traces


def write_traces(path: str | Path, traces) -> None:
    """One JSON line per trace: its fields in declaration order.

    The lines go to ``<path>.tmp``, which then replaces ``path``; a write
    that fails removes it and leaves any earlier file at ``path`` whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for trace in traces:
                fh.write(json.dumps(vars(trace), ensure_ascii=False) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_traces(path: str | Path, split: Split) -> list[dict]:
    """The rows of a trace file for ``split``: one per example, all of one
    mode, in split order.

    Raises ValueError, naming the file and line, on a row that is not a
    JSON object with a string ``example_id``, on a mode outside MODES or
    unlike the first row's, on an ``extracted_sql`` that is missing or not
    a string, on a ``resolved_tables`` that is present but not a list of
    strings, on a ``resolved_columns`` that is present but not a list of
    ``table.column`` strings, on a row for an example the split lacks and
    on a second row for one example. Raises ValueError, naming the file,
    on a file with no rows and on one without a row for every example.
    """
    rows: dict[str, dict | None] = dict.fromkeys(ex.example_id for ex in split.examples)
    first_mode = None
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{where}: {err}") from None
            if not isinstance(row, dict) or not isinstance(row.get("example_id"), str):
                raise ValueError(f"{where}: not a trace object with a string example_id")
            mode = row.get("mode")
            if mode not in MODES:
                raise ValueError(f"{where}: mode {mode!r} is not one of {', '.join(MODES)}")
            if first_mode is None:
                first_mode = mode
            elif mode != first_mode:
                raise ValueError(
                    f"{where}: mode {mode!r} differs from the first row's {first_mode!r}"
                )
            if not isinstance(row.get("extracted_sql"), str):
                raise ValueError(f"{where}: extracted_sql is missing or not a string")
            for key in ("resolved_tables", "resolved_columns"):
                names = row.get(key, [])
                if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                    raise ValueError(f"{where}: {key} is not a list of strings")
            for name in row.get("resolved_columns", ()):
                table, _, column = name.partition(".")
                if not table or not column:
                    raise ValueError(f"{where}: {name!r} in resolved_columns is not table.column")
            example_id = row["example_id"]
            if example_id not in rows:
                raise ValueError(f"{where}: a trace for {example_id}, which the split lacks")
            if rows[example_id] is not None:
                raise ValueError(f"{where}: a second trace for {example_id}")
            rows[example_id] = row
    if first_mode is None:
        raise ValueError(f"{path}: no traces found")
    missing = [ex_id for ex_id, row in rows.items() if row is None]
    if missing:
        raise ValueError(f"{path}: no trace for {len(missing)} examples (first: {missing[0]})")
    return list(rows.values())


def trace_link_target(row: dict) -> LinkTarget:
    """The link target of a trace row from ``read_traces``."""
    tables = frozenset(row.get("resolved_tables", ()))
    columns = frozenset(tuple(c.split(".", 1)) for c in row.get("resolved_columns", ()))
    return LinkTarget(tables, columns)
