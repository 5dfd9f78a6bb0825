"""Frontend benchmark: trace generation and external-trace ingestion.

Measures the :mod:`repro.frontends` paths end to end:

* **generate** — RV frontend trace production (assemble + interpret +
  canonical trace emission), rows/sec per kernel;
* **ingest** — :func:`repro.frontends.trace_import.parse_trace` over the
  documented JSONL and CSV schemas, plain and gzipped;
* **import** — the full :func:`import_trace` path: cold (parse +
  atomic npz publish + manifest) vs warm (source-digest cache hit, no
  parsing at all).

Results are printed and written to ``BENCH_frontend.json``.  Run::

    PYTHONPATH=src python benchmarks/bench_frontend.py --rows 50000 \
        --output BENCH_frontend.json

Acceptance bar: the warm import must be at least 10x faster than the
cold one (the content-addressed cache actually short-circuits parsing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _gzip_copy(path: str) -> str:
    import gzip

    out = f"{path}.gz"
    with open(path, "rb") as src, gzip.open(out, "wb") as dst:
        shutil.copyfileobj(src, dst)
    return out


def bench_frontend(rows: int = 50_000, repeats: int = 3) -> dict:
    from repro.frontends import get_frontend
    from repro.frontends.rv import kernels
    from repro.frontends.trace_import import (
        export_trace,
        import_trace,
        parse_trace,
    )

    rv = get_frontend("rv")

    # -- trace generation: assemble + run + canonical emission ------------
    generate = {}
    for name in ("rv.axpy", "rv.crc", "rv.gcd"):
        def produce(name=name):
            kernels.clear_trace_cache()
            return rv.trace(name, rows)

        seconds = _time(produce, repeats)
        n = len(produce())
        generate[name] = {
            "rows": n,
            "seconds": seconds,
            "rows_per_s": n / seconds,
        }

    trace = rv.trace("rv.crc", rows)
    work = tempfile.mkdtemp(prefix="bench_frontend_")
    try:
        # -- ingestion: schema parse rates --------------------------------
        files = {}
        for fmt in ("jsonl", "csv"):
            path = os.path.join(work, f"trace.{fmt}")
            export_trace(trace, path, fmt=fmt)
            files[fmt] = path
            files[f"{fmt}.gz"] = _gzip_copy(path)
        ingest = {}
        for label, path in files.items():
            seconds = _time(lambda p=path: parse_trace(p), repeats)
            ingest[label] = {
                "bytes": os.path.getsize(path),
                "seconds": seconds,
                "rows_per_s": len(trace) / seconds,
            }

        # -- full import path: cold publish vs content-addressed hit ------
        cache = os.path.join(work, "cache")
        path = files["jsonl"]

        def cold():
            shutil.rmtree(cache, ignore_errors=True)
            return import_trace(path, name="bench", cache_dir=cache)

        t_cold = _time(cold, repeats)
        t_warm = _time(
            lambda: import_trace(path, name="bench", cache_dir=cache),
            repeats,
        )
        warm_hit = import_trace(path, name="bench", cache_dir=cache)
        imports = {
            "cold_seconds": t_cold,
            "warm_seconds": t_warm,
            "warm_cache_hit": warm_hit.cache_hit,
            "warm_speedup": t_cold / t_warm,
            "rows_per_s_cold": len(trace) / t_cold,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "meta": {
            "frontend": "rv",
            "rows": len(trace),
            "repeats": repeats,
            "host_cpus": os.cpu_count() or 1,
        },
        "generate": generate,
        "ingest": ingest,
        "import": imports,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=50_000,
                        help="trace length to generate and ingest")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="JSON output (default: results/BENCH_frontend.json)")
    args = parser.parse_args(argv)

    report = bench_frontend(rows=args.rows, repeats=args.repeats)

    meta = report["meta"]
    print(f"frontend bench: {meta['rows']:,} rows, isa={meta['frontend']}, "
          f"best of {meta['repeats']}")
    for name, row in report["generate"].items():
        print(f"generate {name:<12s} {row['rows_per_s']:>12,.0f} rows/s")
    for label, row in sorted(report["ingest"].items()):
        print(f"ingest {label:<9s} {row['rows_per_s']:>10,.0f} rows/s"
              f"  ({row['bytes']:,} bytes)")
    imports = report["import"]
    print(f"import cold {1e3 * imports['cold_seconds']:.1f} ms, "
          f"warm {1e3 * imports['warm_seconds']:.2f} ms "
          f"({imports['warm_speedup']:.0f}x, "
          f"cache_hit={imports['warm_cache_hit']})")

    from _bench_util import metrics_block

    report["metrics"] = metrics_block()
    if args.output:
        out = args.output
    else:
        from repro.cache import results_dir

        os.makedirs(results_dir(), exist_ok=True)
        out = os.path.join(results_dir(), "BENCH_frontend.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"saved: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
