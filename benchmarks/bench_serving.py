"""Serving benchmark: latency distributions, batching, cluster scaling.

Measures the serving paths against the same stored model:

* **singles** — ``Session.predict`` once per request (each call resolves
  and loads the artifact, then runs a one-stream engine pass: the
  pre-serving-layer cost model).  Every request is timed individually,
  so the latency numbers are real p50/p95/p99 percentiles over the
  distribution, not a whole-batch average;
* **batched** — one ``Session.predict_many`` over the identical request
  list (one artifact load, one no-grad engine pass per distinct
  benchmark).  The request list is a realistic serving mix — each
  benchmark appears ``--repeats`` times — so this speedup combines the
  shared artifact load *and* answering each repeated name once;
* **distinct** — the same comparison over each benchmark exactly once,
  isolating the shared artifact load (nothing repeats);
* **engine** — the no-grad forward vs the training-mode autograd
  forward on the same inference batch: both run the fused recurrent
  ops, so the gap is what recording the graph costs;
* **load** — the serving cluster under sustained **open-loop**
  traffic: for each worker count in ``--workers`` (``0`` is the
  in-process server ``repro serve`` runs), with a one-entry answer memo
  so every request misses it and reads its feature stream from the
  on-disk cache (an engine pass per distinct benchmark in a batch),
  arrivals are sent on a fixed schedule (independent of completions,
  so queueing delay is charged to the request — no coordinated
  omission) and the section reports p50/p95/p99 latency plus achieved
  throughput per worker count.  The offered rate deliberately exceeds
  single-worker capacity, so achieved throughput ≈ capacity and the
  worker-scaling ratio is visible directly.

Results are printed and written to ``BENCH_serving.json`` (under
``results/`` by default).  Run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py --scale smoke \
        --workers 1,2

Acceptance bars at smoke scale: ``batched.speedup >= 3`` (serving
refactor) and with ``--workers 1,2`` a ``>= 1.3x`` throughput ratio at
2 workers with ``p99 < 10 * p50`` per worker count (cluster refactor).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from _bench_util import (
    latency_summary,
    metrics_block,
    open_loop,
    percentile,
    time_each,
)


def _time(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_serving(
    scale: str = "smoke",
    benchmarks: list[str] | None = None,
    repeats: int = 4,
    cache_dir: str | None = None,
) -> dict:
    from repro.api import Session
    from repro.ml.autograd import Tensor
    from repro.workloads import TEST_BENCHMARKS

    session = Session(scale=scale, cache_dir=cache_dir)
    trained = session.train()
    benchmarks = benchmarks or list(TEST_BENCHMARKS)
    request_list = benchmarks * repeats

    # warm-up: fill the feature cache so both paths measure inference +
    # model handling, not first-touch trace encoding
    for name in benchmarks:
        session.features(name)

    lat_singles = time_each(session.predict, request_list)
    t_singles = sum(lat_singles)
    t_batched = _time(lambda: session.predict_many(request_list))

    # every benchmark exactly once: nothing repeats
    t_singles_distinct = sum(time_each(session.predict, benchmarks))
    t_batched_distinct = _time(lambda: session.predict_many(benchmarks))

    # engine microbenchmark: one inference batch, no-grad vs autograd
    model = trained.model.perfvec
    chunk_len = trained.model.chunk_len
    feats = session.features(benchmarks[0])
    full = (len(feats) // chunk_len) * chunk_len
    batch = feats[:full].reshape(-1, chunk_len, feats.shape[1])
    t_infer = _time(lambda: model.foundation.infer(batch), repeats=3)
    t_train_fwd = _time(
        lambda: model.foundation(Tensor(batch)), repeats=3
    )

    n = len(request_list)
    report = {
        "scale": scale,
        # which trace frontend benchmark names resolved against
        "frontend": session.frontend,
        "benchmarks": benchmarks,
        "requests": n,
        "singles": {
            "seconds": t_singles,
            "latency_ms": 1e3 * t_singles / n,
            "throughput_rps": n / t_singles,
            "latency": latency_summary(lat_singles),
        },
        "batched": {
            "seconds": t_batched,
            "latency_ms": 1e3 * t_batched / n,
            "throughput_rps": n / t_batched,
            "speedup": t_singles / t_batched,
        },
        "distinct": {
            "requests": len(benchmarks),
            "singles_seconds": t_singles_distinct,
            "batched_seconds": t_batched_distinct,
            "speedup": t_singles_distinct / t_batched_distinct,
        },
        "engine": {
            "batch_shape": list(batch.shape),
            "infer_seconds": t_infer,
            "train_forward_seconds": t_train_fwd,
            "speedup": t_train_fwd / t_infer,
        },
    }
    return report


def bench_cluster_load(
    scale: str = "smoke",
    benchmarks: list[str] | None = None,
    worker_counts: list[int] | None = None,
    requests: int = 200,
    rate_rps: float = 0.0,
    cache_dir: str | None = None,
) -> dict:
    """Open-loop load against the worker cluster, per worker count."""
    from repro.api import Session
    from repro.serving import DispatchPolicy, PredictionCluster, ServeRequest
    from repro.workloads import TEST_BENCHMARKS

    session = Session(scale=scale, cache_dir=cache_dir)
    session.train()  # reuses the stored artifact when warm
    benchmarks = benchmarks or list(TEST_BENCHMARKS)
    worker_counts = worker_counts or [1, 2]
    for name in benchmarks:  # warm the on-disk feature cache once
        session.features(name)

    request_list = [
        ServeRequest(benchmark=benchmarks[i % len(benchmarks)])
        for i in range(requests)
    ]
    section: dict = {"requests": requests, "workers": {}}
    for count in sorted(worker_counts):
        policy = DispatchPolicy(
            # the harness saturates on purpose: the queue must hold the
            # whole run (rejection is load-shedding, not a measurement),
            # and every worker is a candidate for the single hot model
            queue_depth=max(64, 2 * requests),
            queue_timeout_s=600.0,
            replicas=max(2, count),
        )
        # a one-entry answer memo makes the round-robin below miss it on
        # every request: each measured request (repeats inside one lane
        # batch collapse) reads its stream from the on-disk feature cache
        # and runs an engine pass
        with PredictionCluster(
            workers=count, scale=scale, cache_dir=cache_dir, policy=policy,
            answer_cache=1,
        ) as cluster:
            # load the model on every worker out of the measurement window
            warm = [
                cluster.submit(ServeRequest(benchmark=name))
                for name in benchmarks * max(1, count)
            ]
            serial_s = []
            for future in warm:
                future.result(timeout=300)
            for name in benchmarks:
                start = time.perf_counter()
                cluster.predict(ServeRequest(benchmark=name), timeout=300)
                serial_s.append(time.perf_counter() - start)
            if rate_rps > 0:
                rate = rate_rps
            else:
                # far above any worker count's capacity (micro-batching
                # lifts a worker well past its serial rate), so achieved
                # throughput ~= capacity and the scaling ratio is real
                rate = 20.0 / percentile(serial_s, 50)
            outcome = open_loop(
                cluster.submit, request_list, rate, timeout_s=600.0
            )
        row = latency_summary(outcome["latencies_s"])
        row.update(
            offered_rps=rate,
            throughput_rps=outcome["completed"] / outcome["elapsed_s"],
            completed=outcome["completed"],
            errors=outcome["errors"],
            elapsed_s=outcome["elapsed_s"],
        )
        section["workers"][str(count)] = row
    counts = sorted(section["workers"], key=int)
    if len(counts) > 1:
        base = section["workers"][counts[0]]["throughput_rps"]
        peak = section["workers"][counts[-1]]["throughput_rps"]
        section["scaling"] = {
            "from_workers": int(counts[0]),
            "to_workers": int(counts[-1]),
            "throughput_ratio": peak / base,
        }
    # real prediction work is CPU-bound: worker scaling needs cores
    section["host_cpus"] = os.cpu_count()
    return section


class _FixedServiceWorker:
    """A dispatcher-only worker that serves each request in a fixed time.

    Serving happens on the lane's sender thread (one request at a time,
    like a serial worker), so N workers have exactly N of these running
    concurrently — the ideal the dispatcher should expose.
    """

    def __init__(self, service_s: float):
        self.service_s = service_s
        self.dispatcher = None  # wired after Dispatcher.add_worker

    def send_requests(self, items) -> None:
        for rid, _payload in items:
            time.sleep(self.service_s)
            self.dispatcher.complete(rid, None)

    def send_control(self, cid, payload) -> None:
        self.dispatcher.control_reply(cid, True, None)

    def close(self) -> None:
        pass


def bench_dispatch_calibration(
    worker_counts: list[int],
    requests: int = 300,
    service_ms: float = 2.0,
) -> dict:
    """Dispatcher scaling with synthetic fixed service times.

    Workers *sleep* for a known service time instead of computing, so
    this isolates the dispatch machinery (lanes, routing, watchdog) from
    host core count: even on one core, N sleeping workers must yield
    ~N x throughput.  It validates the harness and the dispatcher — the
    ``load`` section above is the real-prediction measurement.
    """
    from repro.serving.dispatch import Dispatcher, DispatchPolicy

    service_s = service_ms / 1e3
    section: dict = {
        "requests": requests, "service_ms": service_ms, "workers": {},
    }
    for count in sorted(worker_counts):
        dispatcher = Dispatcher(DispatchPolicy(
            queue_depth=2 * requests, queue_timeout_s=600.0,
            replicas=max(2, count),
        ))
        try:
            for _ in range(count or 1):  # 0: the one in-process lane
                worker = _FixedServiceWorker(service_s)
                worker.dispatcher = dispatcher
                dispatcher.add_worker(worker)
            rate = 5.0 * max(worker_counts) / service_s
            outcome = open_loop(
                lambda payload: dispatcher.submit(payload, key="calib"),
                list(range(requests)), rate, timeout_s=600.0,
            )
        finally:
            dispatcher.close()
        row = latency_summary(outcome["latencies_s"])
        row.update(
            offered_rps=rate,
            throughput_rps=outcome["completed"] / outcome["elapsed_s"],
            completed=outcome["completed"],
            errors=outcome["errors"],
        )
        section["workers"][str(count)] = row
    counts = sorted(section["workers"], key=int)
    if len(counts) > 1:
        base = section["workers"][counts[0]]["throughput_rps"]
        peak = section["workers"][counts[-1]]["throughput_rps"]
        section["scaling"] = {
            "from_workers": int(counts[0]),
            "to_workers": int(counts[-1]),
            "throughput_ratio": peak / base,
        }
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default=os.environ.get(
        "REPRO_BENCH_SCALE", "smoke"))
    parser.add_argument("--repeats", type=int, default=4,
                        help="times each benchmark appears in the request list")
    parser.add_argument("--workers", default="",
                        help="comma-separated worker counts for the cluster "
                             "load section, e.g. 1,2 (empty: skip)")
    parser.add_argument("--requests", type=int, default=200,
                        help="open-loop requests per worker count")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="offered request rate (req/s; 0: auto, "
                             "~2.5x one worker's capacity)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="JSON output (default: results/BENCH_serving.json)")
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args(argv)

    report = bench_serving(
        scale=args.scale, repeats=args.repeats, cache_dir=args.cache_dir,
    )
    singles = report["singles"]
    batched = report["batched"]
    engine = report["engine"]
    print(f"# bench_serving scale={report['scale']} "
          f"requests={report['requests']}")
    lat = singles["latency"]
    print(f"singles: p50 {lat['p50_ms']:7.2f} ms  p95 {lat['p95_ms']:7.2f} ms"
          f"  p99 {lat['p99_ms']:7.2f} ms  {singles['throughput_rps']:8.1f}"
          f" req/s")
    print(f"batched: {batched['latency_ms']:8.2f} ms/req  "
          f"{batched['throughput_rps']:8.1f} req/s  "
          f"speedup={batched['speedup']:.2f}x")
    distinct = report["distinct"]
    print(f"distinct ({distinct['requests']} unique): "
          f"batching-only speedup={distinct['speedup']:.2f}x")
    print(f"engine:  infer {1e3 * engine['infer_seconds']:.2f} ms vs "
          f"train-forward {1e3 * engine['train_forward_seconds']:.2f} ms  "
          f"({engine['speedup']:.2f}x)")

    if args.workers:
        worker_counts = [int(w) for w in args.workers.split(",") if w]
        report["load"] = bench_cluster_load(
            scale=args.scale,
            worker_counts=worker_counts,
            requests=args.requests,
            rate_rps=args.rate,
            cache_dir=args.cache_dir,
        )
        for count, row in sorted(
            report["load"]["workers"].items(), key=lambda kv: int(kv[0])
        ):
            print(f"load w={count}: p50 {row['p50_ms']:7.2f} ms  "
                  f"p95 {row['p95_ms']:7.2f} ms  p99 {row['p99_ms']:7.2f} ms"
                  f"  {row['throughput_rps']:8.1f} req/s  "
                  f"(offered {row['offered_rps']:.1f}, "
                  f"errors {row['errors']})")
        scaling = report["load"].get("scaling")
        if scaling:
            print(f"load scaling {scaling['from_workers']}->"
                  f"{scaling['to_workers']} workers: "
                  f"{scaling['throughput_ratio']:.2f}x throughput "
                  f"(host cpus: {report['load']['host_cpus']})")
        report["calibration"] = bench_dispatch_calibration(worker_counts)
        cal = report["calibration"].get("scaling")
        if cal:
            print(f"dispatch calibration "
                  f"({report['calibration']['service_ms']:g} ms synthetic "
                  f"service) {cal['from_workers']}->{cal['to_workers']} "
                  f"workers: {cal['throughput_ratio']:.2f}x throughput")

    report["metrics"] = metrics_block()
    output = args.output or os.path.join("results", "BENCH_serving.json")
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"saved: {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
