"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import http.client
import json
import sqlite3
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import speed
from endpoint import Counters, Endpoint, window
from stats import nearest_rank, overhead_ms_per_request, samples_above, summarize, tail_level
from tracer import Tracer, covered


# -- percentiles -------------------------------------------------------------


def test_tail_level_needs_ten_samples_above():
    assert tail_level(19) is None
    assert tail_level(20) == 50.0
    assert tail_level(99) == 50.0
    assert tail_level(100) == 90.0
    assert tail_level(999) == 90.0
    assert tail_level(1000) == 99.0
    assert tail_level(9999) == 99.0
    assert tail_level(10000) == 99.9


@pytest.mark.parametrize("n", [20, 100, 999, 1000, 1001, 5000, 10000])
def test_reported_tail_has_ten_samples_above(n):
    values = list(range(n))
    level = tail_level(n)
    assert samples_above(n, level) >= 10
    assert sum(v > nearest_rank(values, level) for v in values) == samples_above(n, level)


def test_nearest_rank_and_summary():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(values, 50.0) == 3.0
    assert nearest_rank(values, 100.0) == 5.0
    summary = summarize(float(v) for v in range(1, 1001))
    assert summary["n"] == 1000
    assert summary["p50"] == 500.5
    assert summary["tail_level"] == 99.0
    assert summary["tail"] == 990.0
    assert "tail" not in summarize([1.0] * 15)


# -- overhead arithmetic -----------------------------------------------------


def test_overhead_subtracts_endpoint_wait_and_backoff():
    # 100 requests: 98 served after 20 ms, 2 refused at once and retried
    # after a 5 ms backoff; the client spent 2210 ms inside complete().
    assert overhead_ms_per_request(2210.0, 100, 98 * 20.0, 2 * 5.0) == pytest.approx(2.4)
    assert overhead_ms_per_request(20.0, 1, 20.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        overhead_ms_per_request(1.0, 0, 0.0, 0.0)


# -- speed scaling -----------------------------------------------------------


def test_sampler_probes_from_its_own_process(tmp_path):
    with speed.Sampler(tmp_path / "speed.txt") as sampler:
        t0 = time.monotonic()
        time.sleep(3 * speed.PERIOD_S)
        t1 = time.monotonic()
        factor = sampler.factor(t0, t1)
        proc = sampler._proc
    assert proc.returncode == 0
    assert len(sampler.samples) >= 3
    assert factor > 0
    assert [when for when, _ in sampler.samples] == sorted(when for when, _ in sampler.samples)


def test_jobs_scale_to_nominal_speed():
    # the machine ran at half speed
    assert speed.nominal(1.0, 0.5)[0] == pytest.approx(0.5)
    # two requests of 30 ms that each waited 20 ms on the endpoint
    job_s, items = speed.nominal(1.0, 0.5, [30.0, 30.0], [20.0, 20.0])
    assert items == pytest.approx([25.0, 25.0])
    assert job_s == pytest.approx(50.0 / 60.0)


# -- endpoint counters -------------------------------------------------------


def test_counters_integrate_requests_in_flight():
    now = [0.0]
    counters = Counters(clock=lambda: now[0])
    start = counters.snapshot()
    counters.begin()  # t=0: 1 in flight
    now[0] = 1.0
    counters.begin()  # t=1: 2 in flight
    now[0] = 2.0
    counters.end(refused=True, injected_ms=0.0)  # t=2: 1 in flight
    now[0] = 4.0
    counters.end(refused=False, injected_ms=20.0)  # t=4: 0 in flight
    now[0] = 5.0
    delta = window(start, counters.snapshot())
    assert delta["requests"] == 2
    assert delta["refused"] == 1 and delta["served"] == 1
    assert delta["injected_ms"] == 20.0
    # 1*1 + 2*1 + 1*2 request-seconds over 5 seconds
    assert delta["inflight_mean"] == pytest.approx(1.0)


@pytest.fixture
def served():
    answers = {
        "q1": {"link": "tables: a\ncolumns: a.x", "sql": "SELECT x FROM a", "fail": []},
        "q2": {"link": "tables: b\ncolumns:", "sql": "SELECT y FROM b", "fail": ["sql"]},
    }
    server = Endpoint(answers, 0.0, Counters())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _post(conn, question, linking=False):
    content = f"schema\n\nQuestion: {question}\n" + ("Answer:" if linking else "SQL:")
    body = json.dumps({"messages": [{"role": "user", "content": content}]})
    conn.request("POST", "/v1/chat/completions", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = json.loads(resp.read())
    return resp.status, resp.version, data


def test_endpoint_counts_connections_and_refuses_flagged_requests_once(served):
    before = served.counters.snapshot()
    conn = http.client.HTTPConnection("127.0.0.1", served.server_address[1], timeout=10)
    try:
        status, version, data = _post(conn, "q1", linking=True)
        assert (status, version) == (200, 11)
        assert data["choices"][0]["message"]["content"] == "tables: a\ncolumns: a.x"
        assert _post(conn, "q2", linking=True)[0] == 200  # only stage 2 is flagged
        assert _post(conn, "q2")[0] == 503
        status, _, data = _post(conn, "q2")
        assert status == 200 and data["choices"][0]["message"]["content"] == "SELECT y FROM b"
        assert _post(conn, "q2")[0] == 503  # a repeat of the same request is refused again
        assert _post(conn, "unknown")[0] == 404
    finally:
        conn.close()
    delta = window(before, served.counters.snapshot())
    assert delta["connections"] == 1  # HTTP/1.1 keep-alive on one connection
    assert delta["requests"] == 6
    assert delta["refused"] == 2


# -- tracer ------------------------------------------------------------------


@pytest.fixture
def fakepkg():
    """A package whose function ``leaf`` is bound in two modules, once
    under an alias."""
    base = types.ModuleType("fakepkg.base")

    def leaf(x):
        return x + 1

    base.leaf = leaf

    user = types.ModuleType("fakepkg.user")
    user.helper = leaf

    def outer(x):
        return user.helper(x) + base.leaf(x)

    def fanout(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(user.helper, xs))

    def connect_and_query():
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("SELECT 1").fetchall()
            conn.execute("SELECT 2").fetchall()
        finally:
            conn.close()

    user.outer = outer
    user.fanout = fanout
    user.connect_and_query = connect_and_query
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.base": base, "fakepkg.user": user}
    sys.modules.update(modules)
    try:
        yield types.SimpleNamespace(base=base, user=user, leaf=leaf)
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_tracer_wraps_every_binding_and_restores(fakepkg):
    tracer = Tracer("fakepkg")
    targets = [
        (fakepkg.leaf, "base.leaf", None, False),
        (fakepkg.user.outer, "user.outer", lambda a, k: f"ex{a[0]}", False),
    ]
    with tracer.installed(targets):
        with tracer.job("job"):
            assert fakepkg.user.outer(1) == 4
    assert fakepkg.base.leaf is fakepkg.leaf
    assert fakepkg.user.helper is fakepkg.leaf
    names = [s.name for s in tracer.spans]
    assert names == ["job", "user.outer", "base.leaf", "base.leaf"]
    root, outer, first, second = tracer.spans
    assert outer.parent is root and first.parent is outer and second.parent is outer
    assert first.example == "ex1"  # inherited from the parent span
    selfs = tracer.self_times()
    assert selfs[outer] == pytest.approx(
        outer.duration - first.duration - second.duration, abs=1e-9
    )


def test_worker_thread_spans_nest_under_the_fanout_span(fakepkg):
    tracer = Tracer("fakepkg")
    targets = [
        (fakepkg.leaf, "base.leaf", None, False),
        (fakepkg.user.fanout, "user.fanout", None, True),
    ]
    with tracer.installed(targets), tracer.job("job"):
        assert fakepkg.user.fanout([1, 2, 3, 4]) == [2, 3, 4, 5]
    fan = next(s for s in tracer.spans if s.name == "user.fanout")
    leaves = [s for s in tracer.spans if s.name == "base.leaf"]
    assert len(leaves) == 4
    assert all(s.parent is fan for s in leaves)
    assert tracer.self_times()[fan] >= 0.0


def test_tracer_counts_connections_and_statements(fakepkg):
    original = sqlite3.connect
    tracer = Tracer("fakepkg")
    with tracer.installed([(fakepkg.user.connect_and_query, "user.query", None, False)]):
        with tracer.job("job"):
            fakepkg.user.connect_and_query()
    assert sqlite3.connect is original
    names = [s.name for s in tracer.spans]
    assert names.count("sqlite3.connect") == 1
    statements = [s for s in tracer.spans if s.name == "sqlite3.statement"]
    assert len(statements) == 2
    assert all(s.parent.name == "user.query" for s in statements)


def test_covered_merges_overlapping_children():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert covered([], 0, 1) == 0
