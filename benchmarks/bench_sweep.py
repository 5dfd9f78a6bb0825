"""Distributed sweep benchmark: points/sec vs worker count.

Runs the cache-DSE grid (``cache_dse_sweep``: |L1| x |L2| x seeds
points, one ``dse_point`` stage each) through the pipeline executor
backends and measures sweep throughput:

* **local** — the sequential in-process baseline (one scenario at a
  time, no queue traffic);
* **queue w=N** — for each worker count in ``--workers``, a fresh cache
  root, a coordinator that enqueues the union DAG into the filesystem
  work queue, and N spawned worker processes that claim, execute and
  publish stages through the shared ``StageArtifactStore``.  Each
  configuration reports wall time, points/sec, and the per-worker
  executed/stolen/dedup split from the queue stats;
* **rerun** — the largest queue configuration is immediately re-run on
  its warm cache and must execute **zero** stages (first-publish-wins
  dedup means a re-run is a pure store read);
* **scaling** — the throughput ratio from the smallest to the largest
  queue worker count, plus ``host_cpus`` so single-core hosts are
  self-describing.

Results are printed and written to ``benchmarks/BENCH_sweep.json`` by
default (git-ignored; CI uploads its copy as an artifact).  Run directly::

    PYTHONPATH=src python benchmarks/bench_sweep.py --points 1008 \
        --workers 1,2

Acceptance bars (CI, multi-core runners): ``scaling.points_per_s_ratio
>= 1.3`` at 2 workers vs 1, and ``rerun.executed == 0``.  On a
single-core host the ratio is recorded but not meaningful — gate only
where ``meta.host_cpus >= 2``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time


def _fresh_dir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    os.makedirs(path, exist_ok=True)
    return path


def _sweep_spec(points: int, benchmark: str, scale: str):
    """The DSE grid sized to >= ``points`` via the seed axis."""
    from repro.core.dse import DEFAULT_L1_SIZES, DEFAULT_L2_SIZES
    from repro.pipeline.dse import cache_dse_sweep

    grid = len(DEFAULT_L1_SIZES) * len(DEFAULT_L2_SIZES)
    seeds = max(1, math.ceil(points / grid))
    sweep = cache_dse_sweep(benchmark=benchmark, seeds=seeds, scale=scale)
    return sweep, grid * seeds, seeds


def _worker_summary(stats: dict | None) -> dict:
    if not stats:
        return {}
    workers = stats.get("workers", {})
    return {
        "executed": {w: s["executed"] for w, s in workers.items()},
        "stolen": sum(s.get("stolen", 0) for s in workers.values()),
        "dedup_skips": sum(s.get("dedup_skips", 0)
                           for s in workers.values()),
        "reclaimed_leases": stats.get("reclaimed_leases", 0),
        "respawns": stats.get("respawns", 0),
        "peak_ready": stats.get("peak_ready", 0),
        "peak_leased": stats.get("peak_leased", 0),
    }


def bench_sweep(
    points: int = 1008,
    worker_counts: list[int] | None = None,
    benchmark: str = "505.mcf",
    scale: str = "smoke",
    work_dir: str | None = None,
) -> dict:
    from repro.pipeline.runner import run_sweep

    worker_counts = worker_counts or [1, 2]
    work_dir = work_dir or os.path.join(
        os.environ.get("TMPDIR", "/tmp"), "repro_bench_sweep"
    )
    sweep, total_points, seeds = _sweep_spec(points, benchmark, scale)

    report: dict = {
        "meta": {
            "benchmark": benchmark,
            "scale": scale,
            "frontend": "mini-asm",  # the trace source behind the grid
            "points": total_points,
            "seeds": seeds,
            "host_cpus": os.cpu_count() or 1,
        },
        "configs": {},
    }

    # sequential in-process baseline
    start = time.perf_counter()
    local = run_sweep(sweep, cache_dir=_fresh_dir(work_dir, "local"))
    wall = time.perf_counter() - start
    report["configs"]["local"] = {
        "executed": local.executed,
        "cached": local.cached,
        "wall_s": round(wall, 3),
        "points_per_s": round(local.executed / wall, 2),
    }

    # queue backend at each worker count, each on a fresh cache root
    best = None
    last_queue = None
    for count in worker_counts:
        cache_dir = _fresh_dir(work_dir, f"queue_w{count}")
        start = time.perf_counter()
        result = run_sweep(
            sweep, backend="queue", workers=count, cache_dir=cache_dir,
            backend_options={"lease_ttl_s": 60.0},
        )
        wall = time.perf_counter() - start
        report["configs"][f"queue_w{count}"] = {
            "executed": result.executed,
            "cached": result.cached,
            "wall_s": round(wall, 3),
            "points_per_s": round(result.executed / wall, 2),
            "queue": _worker_summary(result.stats),
        }
        last_queue = (count, cache_dir)

        for point in result:
            for outcome in point.outcomes:
                metrics = (outcome.payload or {}).get("metrics", {})
                if "objective" in metrics:
                    key = (metrics["objective"], metrics["l1_kb"],
                           metrics["l2_kb"])
                    if best is None or key < best:
                        best = key
    if best is not None:
        report["dse"] = {
            "objective": round(best[0], 6),
            "l1_kb": best[1],
            "l2_kb": best[2],
        }

    # warm re-run on the largest queue cache: must execute nothing
    if last_queue is not None:
        count, cache_dir = last_queue
        start = time.perf_counter()
        rerun = run_sweep(
            sweep, backend="queue", workers=count, cache_dir=cache_dir,
            backend_options={"lease_ttl_s": 60.0},
        )
        report["rerun"] = {
            "workers": count,
            "executed": rerun.executed,
            "cached": rerun.cached,
            "fully_cached": rerun.fully_cached,
            "wall_s": round(time.perf_counter() - start, 3),
        }

    if len(worker_counts) >= 2:
        low, high = min(worker_counts), max(worker_counts)
        low_rate = report["configs"][f"queue_w{low}"]["points_per_s"]
        high_rate = report["configs"][f"queue_w{high}"]["points_per_s"]
        report["scaling"] = {
            "from_workers": low,
            "to_workers": high,
            "points_per_s_ratio": round(high_rate / low_rate, 3),
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=1008,
                        help="minimum sweep size (rounded up to fill the "
                             "L1 x L2 grid; seeds axis supplies the rest)")
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated queue worker counts")
    parser.add_argument("--benchmark", default="505.mcf")
    parser.add_argument("--scale", default="smoke",
                        choices=["smoke", "bench", "paper"])
    parser.add_argument("--work-dir", default=None,
                        help="scratch root for per-config cache dirs")
    parser.add_argument("--output", default=None,
                        help="JSON path (default: benchmarks/"
                             "BENCH_sweep.json next to this script)")
    args = parser.parse_args(argv)

    worker_counts = [int(w) for w in args.workers.split(",") if w]
    report = bench_sweep(
        points=args.points,
        worker_counts=worker_counts,
        benchmark=args.benchmark,
        scale=args.scale,
        work_dir=args.work_dir,
    )

    meta = report["meta"]
    print(f"sweep: {meta['points']} points ({meta['seeds']} seeds x "
          f"L1xL2 grid), {meta['benchmark']} @ {meta['scale']}, "
          f"host cpus: {meta['host_cpus']}")
    for name, row in report["configs"].items():
        extra = ""
        queue = row.get("queue")
        if queue:
            extra = (f"  (stolen {queue['stolen']}, "
                     f"dedup {queue['dedup_skips']}, "
                     f"reclaimed {queue['reclaimed_leases']})")
        print(f"{name:>9s}: {row['executed']:5d} executed in "
              f"{row['wall_s']:7.2f}s  {row['points_per_s']:8.1f} "
              f"points/s{extra}")
    rerun = report.get("rerun")
    if rerun:
        print(f"    rerun: {rerun['executed']} executed, "
              f"{rerun['cached']} cached in {rerun['wall_s']:.2f}s "
              f"(fully_cached={rerun['fully_cached']})")
    dse = report.get("dse")
    if dse:
        print(f"      dse: best objective {dse['objective']:.4f} at "
              f"L1={dse['l1_kb']}kB L2={dse['l2_kb']}kB")
    scaling = report.get("scaling")
    if scaling:
        print(f"  scaling: {scaling['from_workers']}->"
              f"{scaling['to_workers']} workers: "
              f"{scaling['points_per_s_ratio']:.2f}x points/s")

    from _bench_util import metrics_block

    report["metrics"] = metrics_block()
    output = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_sweep.json"
    )
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"saved: {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
