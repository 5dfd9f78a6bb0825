"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper at the
``bench`` scale (override with ``REPRO_BENCH_SCALE``).  Results are
printed, saved as JSON under the results dir (``REPRO_RESULTS_DIR`` /
``<cache root>/results``) and appended to ``BENCH_REPORT.txt`` there, so
the regenerated rows survive pytest's output capture.

Experiments share in-process caches (trained foundations, simulated
datasets), so the first benchmark of a session pays the training cost and
the rest reuse it — run the whole directory in one pytest invocation.
Trace simulations fan out across ``REPRO_BENCH_JOBS`` worker processes
(default: all cores; set 1 to force serial).
"""

from __future__ import annotations

import os
import threading
import time

from repro.cache import results_dir
from repro.experiments.common import ExperimentResult
from repro.pipeline import run_spec

SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0"))  # 0 = all cores


# -- timing / percentile helpers -----------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Kept dependency-free (no numpy) so latency math is trivially
    auditable: sort, find the fractional rank, interpolate neighbours.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def latency_summary(latencies_s) -> dict:
    """p50/p95/p99/mean/max (milliseconds) over per-request latencies."""
    latencies_s = list(latencies_s)
    ms = [1e3 * lat for lat in latencies_s]
    return {
        "count": len(ms),
        "p50_ms": percentile(ms, 50),
        "p95_ms": percentile(ms, 95),
        "p99_ms": percentile(ms, 99),
        "mean_ms": sum(ms) / len(ms),
        "max_ms": max(ms),
    }


def time_each(fn, items) -> list[float]:
    """Run ``fn(item)`` for every item, returning per-call seconds.

    The per-request analogue of best-of-N block timing: percentiles need
    the full latency distribution, not one wall-clock total.
    """
    latencies = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        latencies.append(time.perf_counter() - start)
    return latencies


def open_loop(submit, requests, rate_rps: float, timeout_s: float = 120.0):
    """Drive ``submit`` with open-loop arrivals at a fixed rate.

    Request ``i`` is issued at ``start + i/rate_rps`` regardless of how
    earlier requests are doing — arrivals never slow down because the
    server is struggling, so queueing delay shows up in the latencies
    instead of being silently absorbed (no coordinated omission).  Each
    latency runs from the request's *intended* arrival to its
    completion, stamped by a done-callback at resolution time.

    ``submit`` returns a ``concurrent.futures.Future``; a submit-time
    exception (load-shed rejection) counts as an error.  Returns a dict:
    ``latencies_s`` (successes only), ``errors``, ``offered``,
    ``completed`` and ``elapsed_s`` (first arrival to last completion).
    """
    requests = list(requests)
    lock = threading.Lock()
    latencies: list[float] = []
    errors = [0]
    futures = []
    start = time.perf_counter()
    for i, request in enumerate(requests):
        target = start + i / rate_rps
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            future = submit(request)
        except Exception:
            with lock:
                errors[0] += 1
            continue

        def _done(f, t=target):
            now = time.perf_counter()
            with lock:
                if f.cancelled() or f.exception() is not None:
                    errors[0] += 1
                else:
                    latencies.append(now - t)

        future.add_done_callback(_done)
        futures.append(future)
    for future in futures:
        try:
            future.result(timeout=timeout_s)
        except Exception:
            pass  # already counted by the done-callback
    elapsed = time.perf_counter() - start
    return {
        "latencies_s": latencies,
        "errors": errors[0],
        "offered": len(requests),
        "completed": len(latencies),
        "elapsed_s": elapsed,
    }


def metrics_block() -> dict:
    """The obs registry compacted for a ``BENCH_*.json`` report.

    Counters/gauges flatten to ``{series: value}``; histograms keep only
    their p50/p95/p99 summary — enough to answer "what did the serving/
    cache machinery do during this run" without the full buckets.
    """
    from repro import obs

    return obs.flatten_metrics([({}, obs.metrics_snapshot())])


def run_and_record(name: str) -> ExperimentResult:
    """Run one experiment, persist and report its rows."""
    result = run_spec(name, scale=SCALE, jobs=JOBS).result
    text = result.render()
    print(text)
    result.save()
    report_dir = results_dir()
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, "BENCH_REPORT.txt"), "a") as fh:
        fh.write(text + "\n\n")
    return result


def bench_experiment(benchmark, name: str) -> ExperimentResult:
    """pytest-benchmark wrapper: one timed round (experiments are heavy)."""
    return benchmark.pedantic(
        run_and_record, args=(name,), rounds=1, iterations=1
    )
