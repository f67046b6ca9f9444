"""Outside-in tracer: spans around calls into the program's public functions.

The tracer never edits the program. For each traced function it replaces
every module-level binding of that function object inside the package,
whatever name the binding uses, so calls through ``from x import f`` and
through aliases are both seen. ``sqlite3.connect`` is wrapped on the
``sqlite3`` module, and each connection it opens gets a trace callback that
records one span, of no meaningful length, per executed statement.

Spans live in memory: name, start, end, parent, an example id and the job
they belong to. Each thread keeps its own stack, so spans opened by a
worker thread nest under the span that opened the worker pool (a *fan-out*
function) rather than under whatever the main thread is doing.
"""

from __future__ import annotations

import functools
import json
import sqlite3
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "example", "job")

    def __init__(self, name, parent, example, job):
        self.name = name
        self.parent = parent
        self.example = example
        self.job = job
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._fanout: list[Span] = []
        self._root: Span | None = None
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, example) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is threading.main_thread():
            parent = self._root
        else:
            parent = self._fanout[-1] if self._fanout else self._root
        if example is None and parent is not None:
            example = parent.example
        span = Span(name, parent, example, self._job)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def job(self, name: str):
        """Root span of one job; spans recorded inside belong to it."""
        self._job += 1
        span = self._open(name, None)
        self._root = span
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def wrapper(self, func, name: str, example_of=None, fanout: bool = False):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            example = example_of(args, kwargs) if example_of is not None else None
            span = self._open(name, example)
            if fanout:
                self._fanout.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                if fanout:
                    self._fanout.remove(span)
                self._close(span)

        return traced

    def _statement(self, _sql) -> None:
        self._close(self._open("sqlite3.statement", None))

    def _connect_wrapper(self, connect):
        traced_connect = self.wrapper(connect, "sqlite3.connect")

        @functools.wraps(connect)
        def traced(*args, **kwargs):
            conn = traced_connect(*args, **kwargs)
            conn.set_trace_callback(self._statement)
            return conn

        return traced

    # -- installing ----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (func, name, example_of, fanout) at every binding in the
        package, plus ``sqlite3.connect``."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for func, name, example_of, fanout in targets:
            traced = self.wrapper(func, name, example_of, fanout)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, attr, traced)
        self._patch(sqlite3, "connect", self._connect_wrapper(sqlite3.connect))

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """Span -> duration minus the part its child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return {
            s: s.duration - covered(children.get(s, ()), s.start, s.end)
            for s in self.spans
        }

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)),
                    "example": s.example,
                    "job": s.job,
                }
                fh.write(json.dumps(rec) + "\n")
