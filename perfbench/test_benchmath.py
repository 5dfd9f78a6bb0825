"""Tests for the benchmark's own math and client plumbing.

Run with ``python3 -m pytest perfbench`` from the checkout root.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import benchmath  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402


# -- percentiles --------------------------------------------------------------
def test_percentile_interpolates():
    values = list(range(1, 101))  # 1..100
    assert benchmath.percentile(values, 0) == 1
    assert benchmath.percentile(values, 100) == 100
    assert benchmath.percentile(values, 50) == pytest.approx(50.5)
    assert benchmath.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        benchmath.percentile([], 50)


@pytest.mark.parametrize("n, q, ok", [
    (100, 90, True),    # exactly ten samples beyond p90
    (99, 90, False),
    (1000, 99, True),
    (999, 99, False),
    (78, 75, True),     # the serve open loop: 10/s for 7.8 s
])
def test_tail_needs_ten_samples_beyond(n, q, ok):
    assert benchmath.supported(n, q) is ok


# -- open-loop latency ----------------------------------------------------------
def test_due_latencies_are_timed_from_the_due_time():
    assert benchmath.due_latencies([0.0, 1.0], [0.5, 3.0]) == [0.5, 2.0]
    assert benchmath.lateness([0.0, 1.0], [0.25, 0.5]) == [0.25, 0.0]
    with pytest.raises(ValueError):
        benchmath.due_latencies([0.0], [])


def test_a_stalled_request_delays_the_ones_due_behind_it():
    """One server, one request held 0.3 s: requests due during the stall
    are charged the wait from their due time, although each one's own
    service takes ~0 s once it gets through."""
    server = threading.Lock()
    stall_s, rate, n = 0.3, 50.0, 12

    def send(i):
        sent = time.perf_counter()
        with server:
            if i == 2:
                time.sleep(stall_s)
        return {"sent": sent, "done": time.perf_counter(), "outcome": "ok"}

    rows, due, _ = run.open_loop(send, n, rate)
    latencies = run.open_loop_latencies(rows, due)
    assert latencies[2] >= stall_s
    stall_end = rows[2]["done"]
    for i in range(3, n):
        if due[i] < stall_end - 0.05:
            # waited for the stall: charged from when it was due
            assert latencies[i] >= stall_end - due[i] - 1e-3
            assert latencies[i] > 0.05
    assert latencies[0] < 0.05 and latencies[1] < 0.05
    # with both senders blocked, later requests go out late
    late = benchmath.lateness(due, [r["sent"] for r in rows])
    assert max(late) > 0.1


def test_failed_requests_count_as_the_client_timeout():
    rows = [{"outcome": "ok", "done": 1.5}, {"outcome": "timeout", "done": 9}]
    latencies = run.open_loop_latencies(rows, [1.0, 2.0])
    assert latencies == [0.5, run.REQUEST_TIMEOUT_S]


# -- failed_frac ------------------------------------------------------------------
def test_failed_fraction_counts_timeouts_and_503s():
    outcomes = ["ok", "ok", "timeout", "http_503", "ok", "mismatch"]
    assert benchmath.failed_fraction(outcomes) == (6, 3, 0.5)
    assert benchmath.failed_fraction([]) == (0, 0, 0.0)
    with pytest.raises(ValueError):
        benchmath.failed_fraction(["ok", "shrug"])


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib casing
        length = int(self.headers["Content-Length"])
        benchmark = json.loads(self.rfile.read(length))["benchmark"]
        if benchmark == "slow":
            time.sleep(1.0)
        status = 503 if benchmark == "busy" else 200
        answer = {"artifact": "a1", "times": {"cfg": 1.5}}
        if benchmark == "wrong":
            answer["times"]["cfg"] = 1.5000000000000002
        body = json.dumps(answer).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except BrokenPipeError:
            pass  # the client gave up on "slow"


def test_recorder_classifies_timeouts_503s_and_wrong_answers(monkeypatch):
    monkeypatch.setattr(run, "REQUEST_TIMEOUT_S", 0.2)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        reference = {name: {"cfg": 1.5}
                     for name in ("fast", "slow", "busy", "wrong")}
        rec = run.Recorder(server.server_address[1], reference, "a1")
        outcomes = [rec.send(name, f"id-{name}")["outcome"]
                    for name in ("fast", "slow", "busy", "wrong")]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert outcomes == ["ok", "timeout", "http_503", "mismatch"]
    assert benchmath.failed_fraction(outcomes) == (4, 3, 0.75)


# -- the ledger -------------------------------------------------------------------
def test_unattributed_is_wall_minus_self_times():
    assert benchmath.unattributed(10.0, {"a": 6.0, "b": 3.0}) == (
        pytest.approx(1.0), pytest.approx(0.1))
    assert benchmath.unattributed(0.0, {}) == (0.0, 0.0)


def test_self_times_subtract_nested_layers():
    book = ledger.Ledger()

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.03)
        book.call("inner", inner)
        book.call("outer", inner)  # re-entrant: charged to the outer call

    start = time.perf_counter()
    book.call("outer", outer)
    time.sleep(0.02)  # outside any layer
    wall = time.perf_counter() - start
    layers = book.snapshot()["layers"]
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 1
    assert layers["outer"]["self_s"] == pytest.approx(
        layers["outer"]["total_s"] - layers["inner"]["total_s"])
    assert layers["outer"]["self_s"] == pytest.approx(0.08, abs=0.03)
    rest, _ = benchmath.unattributed(
        wall, {name: row["self_s"] for name, row in layers.items()})
    assert rest == pytest.approx(wall - layers["outer"]["total_s"])
    assert rest == pytest.approx(0.02, abs=0.015)


def test_batch_layers_unattributed_matches_the_ledger():
    payload = {
        "wall_s": 10.0, "executed": 5, "metrics_text": "",
        "ledger": {
            "layers": {
                "pipeline": {"calls": 1, "total_s": 9.5, "self_s": 1.0},
                "ml.train": {"calls": 1, "total_s": 6.0, "self_s": 0.5},
                "ml.forward": {"calls": 40, "total_s": 5.5, "self_s": 5.5},
                "sim.run": {"calls": 4, "total_s": 2.5, "self_s": 2.5},
            },
            "sim": {"instructions": 1000, "cycles": 3, "l1d_misses": 0,
                    "l2_misses": 0, "mispredicts": 0},
            "epochs": 2, "events": [], "http": {},
        },
    }
    layers = run.batch_layers(payload, untraced_wall=8.0)
    assert layers["unattributed_s"] == pytest.approx(10.0 - 9.5)
    assert layers["unattributed_frac"] == pytest.approx(0.05)
    assert layers["ml.epoch_s"] == pytest.approx(3.0)
    assert layers["sim.ns_per_inst"] == pytest.approx(2.5e6)
    assert layers["trace_overhead_s"] == pytest.approx(2.0)
    assert set(layers) == {name for name, _ in run.PER_LAYER}

