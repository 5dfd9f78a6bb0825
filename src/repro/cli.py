"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands::

    repro list                      # available experiments and scales
    repro run fig3_seen_unseen      # one experiment (default scale: bench)
    repro run-all --scale bench     # every experiment as one plan, saving JSON
    repro pipeline list             # registered pipeline specs + stages
    repro pipeline run <spec>       # a spec by name or .toml/.json path
    repro pipeline sweep <spec>     # expand a sweep grid, run every scenario
    repro pipeline worker           # serve the distributed stage queue
    repro bench-suite --scale bench # trace + simulate the whole suite once
    repro train --scale smoke       # train (or reuse) a stored model
    repro predict 505.mcf --scale smoke   # serve predictions from the store
    repro serve --scale smoke --port 8080 # HTTP/JSON prediction service
    repro models list               # stored artifacts
    repro models show <id>          # one artifact's manifest
    repro models rm <id>            # delete an artifact (store GC)
    repro frontends list            # registered trace frontends + suites
    repro trace import t.jsonl --isa rv   # ingest an external trace
    repro trace export rv.gcd --isa rv --out t.jsonl  # emit the schema
    repro trace list                # imported traces

``repro train``/``repro predict`` take ``--isa NAME`` to resolve
benchmark names against another trace frontend (``repro frontends
list``); imported external traces serve via ``--isa imported``.

Every runner subcommand takes ``--jobs N`` (default: all cores) to fan
trace simulations — and, for ``run``/``run-all``/pipelines, independent
pipeline stages — out across worker processes, ``--cache-dir DIR`` to
redirect every on-disk cache (datasets + models + stage artifacts;
equivalent to setting ``REPRO_CACHE_DIR``), and ``--results-dir DIR``
to redirect result JSON files (default: ``<cache root>/results``).

Observability (``repro.obs``): ``--obs`` / ``--no-obs`` on the serving
and pipeline subcommands turns structured span tracing on or off
(equivalent to setting ``REPRO_OBS``; default off — metrics counters
are always on).  Captured traces are inspected with::

    repro obs list                  # recent traces, newest first
    repro obs trace <trace-id>      # one trace's span tree
    repro obs top                   # hot-path table across all traces
"""

from __future__ import annotations

import argparse
import sys


def _resolved_header(command: str, scale: str, jobs: int | None) -> str:
    from repro.runtime import resolve_jobs

    return f"# repro {command}: scale={scale} jobs={resolve_jobs(jobs)}"


def _progress(total: int):
    from repro.runtime import ProgressReporter

    return ProgressReporter(total=total, stream=sys.stderr)


def _cmd_list(_args) -> int:
    from repro.experiments import SCALES
    from repro.pipeline.presets import SPECS

    print("experiments:")
    for name in SPECS:
        print(f"  {name}")
    print("scales:", ", ".join(SCALES))
    return 0


def _cmd_run(args) -> int:
    from repro.core.errors import UnknownExperimentError
    from repro.pipeline import run_spec
    from repro.pipeline.presets import SPECS

    if args.experiment not in SPECS:
        raise UnknownExperimentError(args.experiment, SPECS)
    print(_resolved_header(f"run {args.experiment}", args.scale, args.jobs))
    result = run_spec(SPECS[args.experiment], scale=args.scale,
                      jobs=args.jobs, save=args.save)
    print(result.result.render())
    for path in result.saved:
        print(f"saved: {path}")
    return 0


def _cmd_run_all(args) -> int:
    """`repro run-all`: every preset as one union plan; each result is
    saved as its report lands, and a failure costs only its dependents."""
    from repro.pipeline import run_union
    from repro.pipeline.presets import SPECS

    print(_resolved_header("run-all", args.scale, args.jobs))
    batch = run_union(list(SPECS.values()), scale=args.scale, jobs=args.jobs,
                      save=True, progress=_progress(0))
    for point in batch.points:
        print(f"\n### {point.spec_name} (scale={point.scale})")
        print(point.result.render())
        for path in point.saved:
            print(f"saved: {path}")
    for failure in batch.failures:
        print(f"\n### {failure.spec_name} FAILED at stage "
              f"{failure.stage_name!r}:\n{failure.detail}")
    print(f"\nrun-all total: {batch.executed} executed, {batch.cached} cached")
    if batch.failures:
        print("failed experiments: " + ", ".join(
            f"{f.spec_name} (stage {f.stage_name!r})" for f in batch.failures))
        return 1
    return 0


def _resolve_pipeline_spec(name: str):
    """A spec argument: a registered name, or a path to a .toml/.json file."""
    import os

    from repro.pipeline import get_spec, load_spec

    if os.path.sep in name or name.endswith((".toml", ".json")):
        return load_spec(name)
    return get_spec(name)


def _cmd_pipeline_worker(args) -> int:
    """`repro pipeline worker`: serve the shared queue until stopped."""
    from repro.pipeline.worker import run_worker

    print(f"# repro pipeline worker: cache root queue "
          f"(lease ttl {args.lease_ttl:.0f}s)", file=sys.stderr)
    stats = run_worker(
        worker_id=args.id,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        idle_timeout_s=args.idle_timeout,
        max_tasks=args.max_tasks,
    )
    print(f"worker {stats.worker}: {stats.executed} executed, "
          f"{stats.stolen} stolen, {stats.dedup_skips} deduped, "
          f"{stats.failures} failed, {stats.busy_s:.1f}s busy")
    return 0


def _backend_kwargs(args) -> dict:
    """Executor selection flags -> Runner/run_sweep keyword arguments."""
    options = {}
    if args.backend == "queue":
        options["lease_ttl_s"] = args.lease_ttl
    return dict(backend=args.backend, workers=args.workers,
                backend_options=options)


def _cmd_pipeline(args) -> int:
    from repro.pipeline import (
        ExperimentSpec,
        Runner,
        SweepSpec,
        available_specs,
        run_sweep,
    )

    if args.action == "list":
        from repro.pipeline.presets import SWEEP_BUILDERS

        print("pipeline specs:")
        for name, spec in available_specs().items():
            stages = " -> ".join(s.name for s in spec.stages)
            print(f"  {name:<22s} {stages}")
        print("sweep presets:")
        for name, builder in SWEEP_BUILDERS.items():
            sweep = builder()
            print(f"  {name:<22s} {len(sweep)} scenario(s) over "
                  f"{', '.join(sorted(sweep.matrix))}")
        return 0

    if args.action == "worker":
        return _cmd_pipeline_worker(args)

    if not args.spec:
        print(f"usage: repro pipeline {args.action} <spec-name-or-file>")
        return 2
    spec = _resolve_pipeline_spec(args.spec)
    base = spec.base if isinstance(spec, SweepSpec) else spec
    print(_resolved_header(f"pipeline {args.action} {args.spec}",
                           args.scale or base.scale or "bench", args.jobs))
    common = dict(
        scale=args.scale, jobs=args.jobs, results_dir=args.results_dir,
        save=args.save, force=args.force, **_backend_kwargs(args),
    )
    if args.action == "sweep":
        if isinstance(spec, ExperimentSpec):
            print(f"error: spec {spec.name!r} declares no [sweep.matrix]; "
                  "use `repro pipeline run` for single-scenario specs")
            return 2
        print(f"sweep {spec.name}: {len(spec)} scenario(s)")
        progress = _progress(0) if args.backend == "queue" else None
        result = run_sweep(spec, progress=progress, **common)
        print(result.render())
        return 0
    if isinstance(spec, SweepSpec):
        print(f"note: {spec.name!r} declares a sweep of {len(spec)} "
              "scenario(s); running the base scenario only "
              "(use `repro pipeline sweep` for the grid)")
        spec = spec.base
    result = Runner(spec, **common).run()
    print(result.render())
    return 0


def _cmd_bench_suite(args) -> int:
    import time

    from repro.experiments.common import get_scale, seen_configs
    from repro.features.dataset import build_dataset
    from repro.workloads import ALL_BENCHMARKS

    print(_resolved_header("bench-suite", args.scale, args.jobs))
    cfg = get_scale(args.scale)
    benchmarks = list(ALL_BENCHMARKS)
    configs = seen_configs(cfg)
    start = time.perf_counter()
    ds = build_dataset(
        benchmarks, configs, cfg.instructions, jobs=args.jobs,
        progress=_progress(len(benchmarks) * (len(configs) + 1)),
    )
    elapsed = time.perf_counter() - start
    total = len(ds) * ds.num_configs
    print(
        f"suite dataset: {len(ds):,} rows x {ds.num_configs} uarchs "
        f"({total:,} instruction-simulations) in {elapsed:.1f}s"
    )
    return 0


def _cmd_frontends(args) -> int:
    """`repro frontends list`: registered trace sources + their suites."""
    from repro.frontends import DEFAULT_FRONTEND, available_frontends

    print("frontends:")
    for name, frontend in available_frontends().items():
        default = "  (default)" if name == DEFAULT_FRONTEND else ""
        print(f"  {name:<10s} {frontend.description}{default}")
        benchmarks = frontend.benchmarks()
        if benchmarks:
            print(f"{'':12s}benchmarks: {', '.join(benchmarks)}")
        elif not frontend.has_vocabulary:
            print(f"{'':12s}benchmarks: (none imported yet — "
                  "`repro trace import <file>`)")
    return 0


def _cmd_trace(args) -> int:
    """`repro trace import|export|list`: external trace ingestion."""
    from repro.core.errors import UnknownExperimentError
    from repro.frontends.trace_import import (
        TraceImportError,
        export_trace,
        import_trace,
        list_imported,
    )

    if args.action == "list":
        names = list_imported()
        if not names:
            print("no imported traces (use `repro trace import <file>`)")
            return 0
        print(f"{len(names)} imported trace(s):")
        from repro.frontends.trace_import import load_imported

        for name in names:
            trace = load_imported(name)
            print(f"  {name:<24s} {len(trace):>10,d} rows")
        return 0

    if args.action == "export":
        if not args.path or not args.out:
            print("usage: repro trace export <benchmark> --out FILE "
                  "[--isa NAME]")
            return 2
        from repro.experiments.common import get_scale
        from repro.frontends import get_frontend

        scale = get_scale(args.scale)
        trace = get_frontend(args.isa).trace(args.path, scale.instructions)
        export_trace(trace, args.out, fmt=args.format)
        print(f"exported {len(trace):,} rows of {args.path} "
              f"(isa={args.isa}) to {args.out}")
        return 0

    if not args.path:
        print("usage: repro trace import <file> [--isa NAME] [--name NAME]")
        return 2
    try:
        result = import_trace(
            args.path, name=args.name, isa=args.isa, fmt=args.format,
            streaming=not args.whole_file,
        )
    except (TraceImportError, UnknownExperimentError) as exc:
        print(f"error: {exc}")
        return 1
    verb = "cache hit" if result.cache_hit else "imported"
    print(f"{verb}: {result.name} ({result.rows:,} rows, isa={result.isa}, "
          f"sha256 {result.digest[:12]})")
    print(f"serve it via the 'imported' frontend: "
          f"repro predict {result.name} --isa imported")
    return 0


def _cmd_train(args) -> int:
    from repro.api import Session

    print(_resolved_header(f"train {args.model}", args.scale, args.jobs))
    session = Session(scale=args.scale, jobs=args.jobs, frontend=args.isa)
    benchmarks = _benchmarks_value(args.benchmarks)
    kwargs = {"benchmarks": benchmarks} if benchmarks else {}
    result = session.train(
        family=args.model, reuse=not args.retrain, tag=args.tag, **kwargs
    )
    print(f"artifact: {result.artifact_id} "
          f"({'reused from store' if result.reused else 'trained'})")
    for name, summary in result.errors.items():
        print(f"  {name:>16s}  {summary.row()}")
    return 0


def _cmd_predict(args) -> int:
    from repro.api import Session, predicted_times_row

    print(_resolved_header(f"predict {args.benchmark}", args.scale, args.jobs))
    session = Session(scale=args.scale, jobs=args.jobs, frontend=args.isa)
    times = session.predict(
        args.benchmark, config=args.config, artifact=args.artifact,
        family=args.model,
    )
    if args.config is not None:
        print(f"{args.benchmark} @ {args.config}: {times:.6g} ticks")
    else:
        print(f"{args.benchmark}: {predicted_times_row(times)}")
    if args.evaluate:
        errors = session.evaluate(
            [args.benchmark], artifact=args.artifact, family=args.model
        )
        for name, summary in errors.items():
            print(f"  {name:>16s}  {summary.row()}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serving import DispatchPolicy, PredictionCluster, run_server

    print(_resolved_header("serve", args.scale, max(1, args.workers)))
    service = PredictionCluster(
        workers=args.workers,
        scale=args.scale,
        cache_dir=args.cache_dir,
        model_cache=args.model_cache,
        policy=DispatchPolicy(
            queue_depth=args.queue_depth,
            queue_timeout_s=args.queue_timeout,
            hedge_after_s=args.hedge_after or None,
        ),
    )
    print(f"listening on http://{args.host}:{args.port} (POST /v1/predict, "
          "POST /v1/swap, GET /healthz, GET /v1/models, GET /v1/stats, "
          "GET /v1/metrics)")
    run_server(service, host=args.host, port=args.port)
    return 0


def _cmd_models(args) -> int:
    import json

    from repro.models import ModelStore, StoreError

    store = ModelStore()
    if args.action == "show":
        if not args.artifact:
            print("usage: repro models show <artifact-id>")
            return 2
        try:
            manifest = store.manifest(args.artifact)
        except StoreError as exc:
            print(f"error: {exc}")
            return 1
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if args.action == "rm":
        if not args.artifact:
            print("usage: repro models rm <artifact-id>")
            return 2
        try:
            store.delete(args.artifact)
        except StoreError as exc:
            print(f"error: {exc}")
            return 1
        print(f"deleted {args.artifact} from {store.root}")
        return 0
    manifests = store.list()
    if not manifests:
        print(f"no stored models under {store.root}")
        return 0
    print(f"{len(manifests)} artifact(s) under {store.root}:")
    for manifest in manifests:
        train_config = manifest.get("train_config") or {}
        scale = train_config.get("scale", "-")
        fingerprint = manifest.get("dataset_fingerprint") or "-"
        tag = manifest.get("tag")
        suffix = f"  tag={tag}" if tag else ""
        print(f"  {manifest['id']:<42s} scale={scale:<6s} "
              f"data={fingerprint}{suffix}")
    return 0


def _cmd_obs(args) -> int:
    """`repro obs trace|top|list`: render captured span traces."""
    from repro import obs

    if args.action == "trace":
        if not args.trace:
            rows = obs.list_traces()
            if not rows:
                print("no traces recorded (run with --obs or REPRO_OBS=1)")
                return 2
            print("usage: repro obs trace <trace-id>; recent traces:")
            for row in rows[:10]:
                print(f"  {row['trace']}  {row['root']}")
            return 2
        print(obs.render_trace(args.trace))
        return 0
    if args.action == "top":
        print(obs.render_top(limit=args.limit))
        return 0
    rows = obs.list_traces()
    if not rows:
        print("no traces recorded (run with --obs or REPRO_OBS=1)")
        return 0
    print(f"{len(rows)} trace(s), newest first:")
    for row in rows[: args.limit]:
        duration = (f"{row['duration_s']:.3f}s"
                    if row["duration_s"] is not None else "...")
        flags = []
        if row["truncated"]:
            flags.append(f"{row['truncated']} truncated")
        if row["errors"]:
            flags.append(f"{row['errors']} error(s)")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"  {row['trace']}  {row['root']:<24s} "
              f"{row['spans']:>4d} spans  {row['processes']} proc  "
              f"{duration}{suffix}")
    return 0


def _benchmarks_value(text: str | None) -> tuple[str, ...] | None:
    if not text:
        return None
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _jobs_value(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 1 (or 0 for all cores), got {value}"
        )
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_jobs_value, default=0, metavar="N",
        help="worker processes (default: all cores; 1 = serial)",
    )


def _add_cache_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache root for datasets + models + stage artifacts "
             "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )


def _add_obs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", action=argparse.BooleanOptionalAction, default=None,
        help="structured span tracing to <cache>/obs/ (default: "
             "$REPRO_OBS or off; metrics counters are always on)",
    )


def _add_isa_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--isa", default="mini-asm", metavar="NAME",
        help="trace frontend benchmark names resolve against "
             "(see `repro frontends list`; default: mini-asm)",
    )


def _add_results_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="where result JSON files land "
             "(default: $REPRO_RESULTS_DIR or <cache root>/results)",
    )


def main(argv: list[str] | None = None) -> int:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PerfVec reproduction experiment runner",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scales")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--scale", default="bench")
    p_run.add_argument("--save", action="store_true")
    _add_jobs_flag(p_run)
    _add_cache_dir_flag(p_run)
    _add_results_dir_flag(p_run)

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--scale", default="bench")
    _add_jobs_flag(p_all)
    _add_cache_dir_flag(p_all)
    _add_results_dir_flag(p_all)

    p_pipe = sub.add_parser(
        "pipeline", help="run declarative pipeline specs (see docs/API.md)"
    )
    p_pipe.add_argument("action", choices=["run", "sweep", "list", "worker"])
    p_pipe.add_argument(
        "spec", nargs="?", default=None,
        help="registered spec name or path to a .toml/.json spec file",
    )
    p_pipe.add_argument("--scale", default=None,
                        help="scale override (default: the spec's)")
    p_pipe.add_argument("--save", action="store_true",
                        help="write the report JSON to the results dir")
    p_pipe.add_argument("--force", action="store_true",
                        help="re-execute every stage, ignoring artifacts")
    p_pipe.add_argument(
        "--backend", choices=["local", "queue"], default="local",
        help="stage executor: this host's processes (local, default) or "
             "the distributed work-stealing queue under the cache root",
    )
    p_pipe.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="queue workers to spawn on this host (0: rely on external "
             "`repro pipeline worker` processes; queue backend only)",
    )
    p_pipe.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="missed-heartbeat window before a queue task is re-issued",
    )
    p_pipe.add_argument(
        "--id", default=None, metavar="WORKER_ID",
        help="worker identity (worker action; default: host-pid)",
    )
    p_pipe.add_argument(
        "--poll", type=float, default=0.05, metavar="SECONDS",
        help="queue poll interval when idle (worker action)",
    )
    p_pipe.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="exit after this long without claimable work "
             "(worker action; default: wait for the stop sentinel)",
    )
    p_pipe.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after claiming N tasks (worker action)",
    )
    _add_jobs_flag(p_pipe)
    _add_cache_dir_flag(p_pipe)
    _add_results_dir_flag(p_pipe)
    _add_obs_flag(p_pipe)

    p_suite = sub.add_parser("bench-suite", help="build the full suite dataset")
    p_suite.add_argument("--scale", default="bench")
    _add_jobs_flag(p_suite)
    _add_cache_dir_flag(p_suite)

    p_train = sub.add_parser(
        "train", help="train a performance model into the store (or reuse)"
    )
    p_train.add_argument("--scale", default="bench")
    p_train.add_argument(
        "--model", default="perfvec", metavar="FAMILY",
        help="model family (see `repro models list` / repro.models.available)",
    )
    p_train.add_argument(
        "--benchmarks", default=None, metavar="A,B,...",
        help="comma-separated training benchmarks (default: the train split)",
    )
    p_train.add_argument(
        "--retrain", action="store_true",
        help="train even when a matching stored artifact exists",
    )
    p_train.add_argument("--tag", default=None, help="free-form artifact tag")
    _add_isa_flag(p_train)
    _add_jobs_flag(p_train)
    _add_cache_dir_flag(p_train)
    _add_obs_flag(p_train)

    p_predict = sub.add_parser(
        "predict", help="serve predictions from a stored model (no training)"
    )
    p_predict.add_argument("benchmark")
    p_predict.add_argument("--scale", default="bench")
    p_predict.add_argument("--model", default="perfvec", metavar="FAMILY")
    p_predict.add_argument(
        "--artifact", default=None, metavar="ID",
        help="artifact id (default: newest of the family at this scale)",
    )
    p_predict.add_argument(
        "--config", default=None, metavar="NAME",
        help="single microarchitecture (default: every known config)",
    )
    p_predict.add_argument(
        "--evaluate", action="store_true",
        help="also simulate ground truth and print the error summary",
    )
    _add_isa_flag(p_predict)
    _add_jobs_flag(p_predict)
    _add_cache_dir_flag(p_predict)
    _add_obs_flag(p_predict)

    p_frontends = sub.add_parser(
        "frontends", help="list registered trace frontends"
    )
    p_frontends.add_argument("action", choices=["list"])
    _add_cache_dir_flag(p_frontends)

    p_trace = sub.add_parser(
        "trace", help="import/export external instruction traces"
    )
    p_trace.add_argument("action", choices=["import", "export", "list"])
    p_trace.add_argument(
        "path", nargs="?", default=None,
        help="trace file to import (.jsonl/.csv, .gz ok) — or, for "
             "export, the benchmark name to trace",
    )
    p_trace.add_argument(
        "--name", default=None, metavar="NAME",
        help="imported-trace name (default: derived from the file name)",
    )
    p_trace.add_argument(
        "--format", default=None, choices=["jsonl", "csv"],
        help="file format (default: inferred from the extension)",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (export action)",
    )
    p_trace.add_argument(
        "--whole-file", action="store_true",
        help="parse the whole file in memory instead of streaming",
    )
    p_trace.add_argument("--scale", default="bench",
                         help="trace length for export (scale preset)")
    _add_isa_flag(p_trace)
    _add_cache_dir_flag(p_trace)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP/JSON prediction service"
    )
    p_serve.add_argument("--scale", default="bench")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--model-cache", type=int, default=4, metavar="N",
        help="deserialized models kept hot (LRU)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="prediction worker processes behind the dispatcher "
             "(0: one in-process worker, the default)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="max outstanding requests per worker before 503 rejection",
    )
    p_serve.add_argument(
        "--queue-timeout", type=float, default=30.0, metavar="SECONDS",
        help="requests unanswered this long fail with 503",
    )
    p_serve.add_argument(
        "--hedge-after", type=float, default=0.0, metavar="SECONDS",
        help="duplicate straggling requests to a second worker after "
             "this long (0: hedging off)",
    )
    _add_cache_dir_flag(p_serve)
    _add_obs_flag(p_serve)

    p_obs = sub.add_parser(
        "obs", help="inspect captured span traces (<cache>/obs/)"
    )
    p_obs.add_argument("action", choices=["trace", "top", "list"])
    p_obs.add_argument(
        "trace", nargs="?", default=None,
        help="trace id (trace action; see `repro obs list`)",
    )
    p_obs.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="rows shown by top/list (default: 20)",
    )
    _add_cache_dir_flag(p_obs)

    p_models = sub.add_parser("models", help="inspect the model store")
    p_models.add_argument("action", choices=["list", "show", "rm"])
    p_models.add_argument(
        "artifact", nargs="?", default=None,
        help="artifact id (for show/rm)",
    )
    _add_cache_dir_flag(p_models)

    args = parser.parse_args(argv)
    from repro import obs
    from repro.cache import set_cache_root, set_results_dir

    set_cache_root(getattr(args, "cache_dir", None))
    set_results_dir(getattr(args, "results_dir", None))
    # exported as REPRO_OBS so spawned cluster/queue workers trace too
    obs.set_enabled(getattr(args, "obs", None))
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "run-all": _cmd_run_all,
        "pipeline": _cmd_pipeline,
        "bench-suite": _cmd_bench_suite,
        "train": _cmd_train,
        "predict": _cmd_predict,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
        "models": _cmd_models,
        "frontends": _cmd_frontends,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
