"""Unit tests for the benchmark harness timing/percentile helpers.

The serving benchmark's SLO numbers (p50/p95/p99, throughput under
open-loop load) are only as trustworthy as these few dozen lines — so
they get real unit tests, with hand-checked percentile values and fake
futures standing in for the cluster.
"""

import os
import sys
import time
from concurrent.futures import Future

import pytest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                 "benchmarks"),
)

import _bench_util
from _bench_util import latency_summary, open_loop, percentile, time_each


# -- percentile -----------------------------------------------------------
def test_percentile_hand_checked_values():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5  # midpoint interpolation
    assert percentile(values, 25) == 1.75
    assert percentile([5.0], 99) == 5.0


def test_percentile_is_order_independent():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(0)
    values = rng.standard_normal(101).tolist()
    for q in (0, 1, 50, 95, 99, 100):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q))
        )


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)
    with pytest.raises(ValueError, match="out of range"):
        percentile([1.0], 101)
    with pytest.raises(ValueError, match="out of range"):
        percentile([1.0], -1)


def test_latency_summary_reports_milliseconds():
    summary = latency_summary([0.001 * (i + 1) for i in range(100)])
    assert summary["count"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p99_ms"] == pytest.approx(99.01)
    assert summary["max_ms"] == pytest.approx(100.0)
    assert summary["mean_ms"] == pytest.approx(50.5)


# -- time_each ------------------------------------------------------------
def test_time_each_returns_per_call_latencies():
    calls = []
    latencies = time_each(calls.append, ["a", "b", "c"])
    assert calls == ["a", "b", "c"]
    assert len(latencies) == 3
    assert all(lat >= 0 for lat in latencies)


# -- open_loop ------------------------------------------------------------
def _resolved(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def test_open_loop_counts_completions_and_latencies():
    out = open_loop(_resolved, range(20), rate_rps=10_000.0)
    assert out["offered"] == 20
    assert out["completed"] == 20
    assert out["errors"] == 0
    assert len(out["latencies_s"]) == 20
    assert all(lat >= 0 for lat in out["latencies_s"])
    assert out["elapsed_s"] > 0


def test_open_loop_counts_submit_rejections_as_errors():
    def submit(i):
        if i % 2:
            raise RuntimeError("shed")
        return _resolved(i)

    out = open_loop(submit, range(10), rate_rps=10_000.0)
    assert out["offered"] == 10
    assert out["completed"] == 5
    assert out["errors"] == 5


def test_open_loop_counts_failed_futures_as_errors():
    def submit(i):
        future: Future = Future()
        if i % 2:
            future.set_exception(RuntimeError("boom"))
        else:
            future.set_result(i)
        return future

    out = open_loop(submit, range(10), rate_rps=10_000.0)
    assert out["completed"] == 5
    assert out["errors"] == 5


def test_open_loop_latency_runs_from_intended_arrival():
    # a server that answers instantly but is driven above its arrival
    # schedule: latencies measure from the *intended* arrival, so a
    # stalled submit shows up as queueing delay (no coordinated omission)
    def slow_submit(i):
        time.sleep(0.01)  # every submit stalls the arrival loop
        return _resolved(i)

    out = open_loop(slow_submit, range(5), rate_rps=1_000.0)
    assert out["completed"] == 5
    # request 4 was due at 4ms but issued after ~40ms of stalls: its
    # latency must include that schedule slip
    assert max(out["latencies_s"]) >= 0.02


class _FakeClock:
    """Stands in for ``_bench_util``'s ``time``: a sleep advances the
    clock, and the wake-ups indexed in ``late`` overshoot by their value."""

    def __init__(self, start: float, late: dict[int, float]):
        self.now = start
        self.late = late
        self.sleeps = 0

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + self.late.get(self.sleeps, 0.0)
        self.sleeps += 1


def test_open_loop_paces_arrivals(monkeypatch):
    # request i is due at start + i/rate: a wake-up that runs late delays
    # its own request only, and the next ones keep their due times (so
    # the gap after a late request is shorter than 1/rate, by design).
    # Binary-exact times keep the clock arithmetic exact.
    rate, lateness = 128.0, 1 / 256
    # sleep 1 is request 2's wake-up (request 0 is due at once)
    clock = _FakeClock(start=100.0, late={1: lateness})
    monkeypatch.setattr(_bench_util, "time", clock)
    stamps = []

    def submit(i):
        stamps.append(clock.now)
        return _resolved(i)

    out = open_loop(submit, range(6), rate_rps=rate)
    due = [100.0 + i / rate for i in range(6)]
    assert all(stamp >= at for stamp, at in zip(stamps, due))  # never early
    assert stamps == due[:2] + [due[2] + lateness] + due[3:]
    # each latency runs from the due time: only the late request waited
    assert out["latencies_s"] == [0.0, 0.0, lateness, 0.0, 0.0, 0.0]
