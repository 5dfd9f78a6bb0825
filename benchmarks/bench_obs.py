"""Observability overhead benchmark: REPRO_OBS on vs off.

The obs subsystem's contract is "off by default cheap, on still cheap":
the disabled span path is one environment lookup returning a shared
no-op, and the enabled path appends one JSON line per span to an
``O_APPEND`` log.  This benchmark measures both sides of that contract
on the two hot paths the spans actually instrument:

* **predict** — ``Session.predict_many`` over a warm serving session
  (spans: ``session.predict`` + cache counters), timed with tracing
  disabled and enabled;
* **sweep** — a forced synthetic local pipeline run (spans:
  ``pipeline.run`` + one ``stage.run`` per stage);
* **trace_log** — raw span write throughput (open/close a span in a
  tight loop), the ceiling any instrumented path can pay.

Results are printed and written to ``BENCH_obs.json``.  Run::

    PYTHONPATH=src python benchmarks/bench_obs.py --scale smoke \
        --output BENCH_obs.json

Acceptance bar: predict overhead (enabled vs disabled) under 5%.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from _bench_util import metrics_block

#: Model spec for the serving session (tiny: the benchmark measures
#: observability overhead, not model quality).
SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


def _interleaved(fn, repeats: int) -> tuple[float, float, float, float]:
    """Paired off/on timings: (best_off, best_on, overhead %, delta s).

    Each round times one tracing-disabled block immediately followed by
    one tracing-enabled block, so background load drift lands on both
    sides of a pair instead of skewing whichever phase ran second.  The
    reported overhead is the *median* of the per-round ratios — robust
    to the one round that caught a scheduler hiccup, which min-vs-min
    comparisons are not.
    """
    from repro import obs

    disabled = enabled = float("inf")
    deltas = []
    ratios = []
    for _ in range(repeats):
        obs.set_enabled(False)
        start = time.perf_counter()
        fn()
        off_s = time.perf_counter() - start
        obs.set_enabled(True)
        try:
            start = time.perf_counter()
            fn()
            on_s = time.perf_counter() - start
        finally:
            obs.set_enabled(False)
        disabled = min(disabled, off_s)
        enabled = min(enabled, on_s)
        deltas.append(on_s - off_s)
        ratios.append(1e2 * (on_s - off_s) / off_s)
    return disabled, enabled, _median(ratios), _median(deltas)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def bench_predict_overhead(
    scale: str, repeats: int, cache_dir: str | None
) -> dict:
    """predict_many wall time, tracing off vs on (same warm session)."""
    from repro import obs
    from repro.api import Session

    session = Session(scale=scale, cache_dir=cache_dir)
    session.train(benchmarks=BENCHMARKS, **SPEC)
    requests = list(BENCHMARKS) * 8
    inner = 10  # calls per timed block: one span per call, and a block
    # tens of ms long keeps scheduler jitter out of the percentage
    for name in BENCHMARKS:  # warm feature + model caches
        session.features(name)
    session.predict_many(requests)

    def block() -> None:
        for _ in range(inner):
            session.predict_many(requests)

    obs.set_enabled(True)
    try:
        # warm the log file open out of the measurement
        session.predict_many(requests)
    finally:
        obs.set_enabled(False)
    disabled_s, enabled_s, overhead_pct, delta_s = _interleaved(
        block, repeats)
    return {
        "requests": len(requests),
        "calls_per_block": inner,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "overhead_pct": overhead_pct,
        # absolute per-predict_many-call cost of tracing: what a CI gate
        # should bound alongside the percentage, which scheduler noise
        # can push past any threshold on a busy box
        "per_call_overhead_us": 1e6 * delta_s / inner,
    }


def bench_sweep_overhead(points: int, repeats: int) -> dict:
    """A forced synthetic local sweep, tracing off vs on."""
    import repro.pipeline.dse  # noqa: F401 — registers synthetic_point
    from repro.pipeline import ExperimentSpec, SweepSpec, run_sweep, stage

    base = ExperimentSpec(
        name="obs-bench",
        title="Obs overhead workload",
        scale="smoke",
        stages=(
            stage("point", "analysis", fn="synthetic_point",
                  point=0, work=50000),
        ),
    )
    sweep = SweepSpec(base=base,
                      matrix={"point.point": tuple(range(points))})

    def run() -> None:
        # force=True: measure execution, not the artifact cache
        result = run_sweep(sweep, force=True)
        assert result.executed == points

    run()  # warm imports and the analysis registry
    disabled_s, enabled_s, overhead_pct, delta_s = _interleaved(
        run, repeats)
    return {
        "points": points,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "overhead_pct": overhead_pct,
        "per_run_overhead_us": 1e6 * delta_s,
    }


def bench_trace_log(spans: int) -> dict:
    """Raw span open/close throughput with the JSONL log enabled."""
    from repro import obs

    obs.set_enabled(True)
    try:
        start = time.perf_counter()
        for i in range(spans):
            with obs.span("bench.span", i=i):
                pass
        enabled_s = time.perf_counter() - start
    finally:
        obs.set_enabled(False)
    start = time.perf_counter()
    for i in range(spans):
        with obs.span("bench.span", i=i):
            pass
    disabled_s = time.perf_counter() - start
    return {
        "spans": spans,
        "enabled_seconds": enabled_s,
        "enabled_spans_per_s": spans / enabled_s,
        "enabled_us_per_span": 1e6 * enabled_s / spans,
        "disabled_seconds": disabled_s,
        "disabled_ns_per_span": 1e9 * disabled_s / spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=os.environ.get(
        "REPRO_BENCH_SCALE", "smoke"))
    parser.add_argument("--repeats", type=int, default=9,
                        help="paired off/on rounds per measurement")
    parser.add_argument("--points", type=int, default=4,
                        help="sweep points for the pipeline section")
    parser.add_argument("--spans", type=int, default=20000,
                        help="spans for the raw log-throughput section")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="JSON output (default: results/BENCH_obs.json)")
    args = parser.parse_args(argv)

    report = {
        "scale": args.scale,
        "predict": bench_predict_overhead(
            args.scale, args.repeats, args.cache_dir
        ),
        "sweep": bench_sweep_overhead(args.points, args.repeats),
        "trace_log": bench_trace_log(args.spans),
    }
    predict = report["predict"]
    sweep = report["sweep"]
    log = report["trace_log"]
    print(f"# bench_obs scale={report['scale']}")
    print(f"predict: off {1e3 * predict['disabled_seconds']:8.2f} ms  "
          f"on {1e3 * predict['enabled_seconds']:8.2f} ms  "
          f"overhead {predict['overhead_pct']:+.2f}%")
    print(f"sweep:   off {1e3 * sweep['disabled_seconds']:8.2f} ms  "
          f"on {1e3 * sweep['enabled_seconds']:8.2f} ms  "
          f"overhead {sweep['overhead_pct']:+.2f}%")
    print(f"trace log: {log['enabled_spans_per_s']:,.0f} spans/s enabled "
          f"({log['enabled_us_per_span']:.1f} us/span); disabled path "
          f"{log['disabled_ns_per_span']:.0f} ns/span")

    report["metrics"] = metrics_block()
    output = args.output or os.path.join("results", "BENCH_obs.json")
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"saved: {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
