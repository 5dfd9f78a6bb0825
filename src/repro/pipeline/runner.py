"""The pipeline runner: plan specs' stage DAGs, hand them to a backend.

Every way of running specs goes through :func:`run_union`: it builds
one :class:`~repro.pipeline.executors.ExecutionPlan` — the union DAG of
the given specs, shared stages deduplicated by content key — and hands
it to an :class:`~repro.pipeline.executors.ExecutorBackend`: ``local``
(this host, in-process or a process pool) or ``queue`` (the distributed
work-stealing queue, see :mod:`repro.pipeline.queue`).  :class:`Runner`
runs one spec, :func:`run_sweep` every scenario of a grid, and ``repro
run-all`` every preset.

A failed stage blocks only the stages that depend on it; everything
else still runs and persists its artifact, so a re-run resumes from the
failure point instead of from scratch.  :class:`Runner` and
:func:`run_sweep` then raise :class:`StageFailure`; ``run-all`` reports
each failed experiment and keeps the rest.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.pipeline.artifacts import StageArtifactStore
from repro.pipeline.executors import (
    ExecutionReport,
    build_plan,
    make_backend,
    render_executor_stats,
)
from repro.pipeline.report import ExperimentResult
from repro.pipeline.spec import ExperimentSpec, SweepSpec


class StageFailure(RuntimeError):
    """A stage raised; carries the stage name and the (worker) traceback."""

    def __init__(self, spec_name: str, stage_name: str, detail: str):
        self.spec_name = spec_name
        self.stage_name = stage_name
        self.detail = detail
        super().__init__(
            f"pipeline {spec_name!r} failed at stage {stage_name!r}:\n{detail}"
        )


@dataclass(frozen=True)
class StageOutcome:
    """One stage of a finished run: where its payload came from."""

    name: str
    kind: str
    key: str
    cached: bool
    seconds: float
    payload: dict

    def row(self) -> str:
        state = "cached " if self.cached else "executed"
        return f"{self.name:<20s} [{self.kind:<8s}] {state} ({self.seconds:.2f}s)"


@dataclass
class PipelineResult:
    """Everything a finished pipeline run produced."""

    spec_name: str
    scale: str
    outcomes: list[StageOutcome] = field(default_factory=list)
    saved: list[str] = field(default_factory=list)
    stats: dict | None = None  # executor telemetry (queue backend runs)

    @property
    def executed(self) -> int:
        return sum(not o.cached for o in self.outcomes)

    @property
    def cached(self) -> int:
        return sum(o.cached for o in self.outcomes)

    @property
    def fully_cached(self) -> bool:
        return self.executed == 0

    @property
    def seconds(self) -> float:
        """Total execution seconds attributed to this run's stages."""
        return sum(o.seconds for o in self.outcomes)

    def outcome(self, name: str) -> StageOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        from repro.core.errors import UnknownExperimentError

        raise UnknownExperimentError(
            name, [o.name for o in self.outcomes], kind="stage"
        )

    @property
    def payload(self) -> dict:
        """The terminal stage's payload."""
        return self.outcomes[-1].payload if self.outcomes else {}

    @property
    def result(self) -> ExperimentResult | None:
        """The report stage's :class:`ExperimentResult`, if the spec has one."""
        for o in reversed(self.outcomes):
            if o.kind == "report":
                return ExperimentResult.from_payload(o.payload)
        return None

    def summary(self) -> str:
        return (
            f"pipeline {self.spec_name} (scale={self.scale}): "
            f"{self.executed} executed, {self.cached} cached "
            f"(of {len(self.outcomes)} stages)"
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines += [f"  {o.row()}" for o in self.outcomes]
        result = self.result
        if result is not None:
            lines.append(result.render())
        for path in self.saved:
            lines.append(f"saved: {path}")
        lines += render_executor_stats(self.stats)
        return "\n".join(lines)


@dataclass
class SweepResult:
    """Every spec of one union-plan run, plus executor telemetry.

    ``points`` holds the :class:`PipelineResult` of each spec whose
    stages all completed, ``failures`` one :class:`StageFailure` per spec
    that did not.  Behaves like the list of points (iteration, indexing,
    ``len``), and renders a compact per-point summary table instead of
    one stage listing per scenario.
    """

    points: list = field(default_factory=list)  # [PipelineResult]
    stats: dict | None = None
    failures: list = field(default_factory=list)  # [StageFailure]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        return self.points[index]

    @property
    def executed(self) -> int:
        return sum(p.executed for p in self.points)

    @property
    def cached(self) -> int:
        return sum(p.cached for p in self.points)

    @property
    def fully_cached(self) -> bool:
        return self.executed == 0

    def table(self) -> list[str]:
        """The per-point summary rows (``point  executed cached seconds``)."""
        if not self.points:
            return []
        width = max(len(p.spec_name) for p in self.points)
        width = max(width, len("point"))
        lines = [f"  {'point':<{width}s}  executed  cached  seconds"]
        for p in self.points:
            lines.append(
                f"  {p.spec_name:<{width}s}  {p.executed:>8d}  "
                f"{p.cached:>6d}  {p.seconds:>7.2f}"
            )
        return lines

    def render(self) -> str:
        lines = self.table()
        for p in self.points:
            for path in p.saved:
                lines.append(f"saved: {path}")
        lines += render_executor_stats(self.stats)
        lines.append(
            f"sweep total: {self.executed} executed, {self.cached} cached"
        )
        return "\n".join(lines)


@contextlib.contextmanager
def execution_env(cache_dir: str | None, jobs: int | None):
    """Export ``cache_dir`` process-wide for one run's duration.

    ``cache_dir`` travels as ``REPRO_CACHE_DIR`` so worker processes and
    the common-helper stores resolve the same root; it is restored on
    exit.  Yields the resolved job count (``None`` inherits the
    process-wide simulation fan-out).
    """
    import os

    from repro.cache import CACHE_DIR_ENV, set_cache_root
    from repro.experiments.common import get_default_jobs
    from repro.runtime import resolve_jobs

    previous_root = os.environ.get(CACHE_DIR_ENV)
    set_cache_root(cache_dir)
    try:
        yield resolve_jobs(jobs) if jobs is not None else get_default_jobs()
    finally:
        if cache_dir:
            if previous_root is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous_root


def assemble_result(
    spec: ExperimentSpec,
    scale_name: str,
    keys: dict[str, str],
    report: ExecutionReport,
    saved: dict | None = None,
    seen_executed: set | None = None,
) -> PipelineResult:
    """One spec's :class:`PipelineResult` out of an execution report.

    ``saved`` maps report-stage keys to the result files written for
    them.  ``seen_executed`` threads through a run's specs so a stage
    shared by several of them is attributed *executed* exactly once (the
    first spec, in plan order) and *cached* everywhere else.
    """
    seen = seen_executed if seen_executed is not None else set()
    saved = saved or {}
    outcomes = []
    for stage in spec.stages:
        key = keys[stage.name]
        res = report.results[key]
        cached = res.cached or key in seen
        if not res.cached:
            seen.add(key)
        outcomes.append(StageOutcome(
            name=stage.name, kind=stage.kind, key=key, cached=cached,
            seconds=0.0 if cached else res.seconds, payload=res.payload,
        ))
    return PipelineResult(
        spec_name=spec.name, scale=scale_name, outcomes=outcomes,
        saved=[saved[o.key] for o in outcomes if o.key in saved],
    )


def run_union(
    specs,
    scale=None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    results_dir: str | None = None,
    save: bool = False,
    force: bool = False,
    force_stages: tuple[str, ...] = (),
    store: StageArtifactStore | None = None,
    progress=None,
    backend="local",
    workers: int = 0,
    backend_options: dict | None = None,
) -> SweepResult:
    """Run the union plan of ``specs`` (objects or registered names).

    A stage several specs share (same content key) executes once.  With
    ``save`` each report is written to the results dir the moment its
    stage lands, so a run that fails later keeps what it finished.  A
    failed stage blocks only its dependents on the local backend; the
    result holds a point for every spec that completed and a
    :class:`StageFailure` for every spec that did not.

    ``scale`` overrides every spec's own scale; ``jobs=None`` inherits
    the process-wide simulation fan-out; ``cache_dir`` is exported as
    ``REPRO_CACHE_DIR`` for the run so every store a stage opens — in
    this process or a worker — resolves the same root.
    """
    from repro.experiments.common import get_scale
    from repro.pipeline.presets import get_spec

    specs = [get_spec(s) if isinstance(s, str) else s for s in specs]
    saved: dict[str, str] = {}

    def on_outcome(task, result) -> None:
        if save and task.stage.kind == "report":
            report_result = ExperimentResult.from_payload(result.payload)
            saved[task.key] = report_result.save(results_dir)

    with execution_env(cache_dir, jobs) as resolved_jobs:
        plan = build_plan(
            specs, scale=scale, store=store or StageArtifactStore(),
            jobs=resolved_jobs, cache_dir=cache_dir, results_dir=results_dir,
            force=force, force_stages=force_stages, progress=progress,
            on_outcome=on_outcome,
        )
        backend_obj = make_backend(backend, workers=workers,
                                   **(backend_options or {}))
        report = backend_obj.execute(plan)
    batch = SweepResult(stats=report.stats)
    seen: set[str] = set()
    for spec, keys in plan.index:
        missing = [st.name for st in spec.stages
                   if keys[st.name] not in report.results]
        if not missing:
            scale_name = get_scale(scale or spec.scale or "bench").name
            batch.points.append(assemble_result(
                spec, scale_name, keys, report, saved=saved,
                seen_executed=seen,
            ))
            continue
        # name the stage that failed; dependents of it were never run
        failed = next((n for n in missing if keys[n] in report.failures),
                      missing[0])
        detail = report.failures.get(
            keys[failed], "not run: the backend stopped at another failure")
        batch.failures.append(StageFailure(spec.name, failed, detail))
    return batch


class Runner:
    """Execute one :class:`ExperimentSpec` with per-stage artifact reuse.

    ``jobs=None`` inherits the process-wide simulation fan-out; an
    explicit value is the run's worker count and each stage's fan-out.
    ``cache_dir`` is exported process-wide (like the CLI's
    ``--cache-dir``) so every store a stage opens — in this process or a
    worker — resolves the same root.  ``force`` re-executes every stage;
    ``force_stages`` re-executes just the named ones.

    ``backend`` picks the executor: ``"local"`` (default), ``"queue"``
    (``workers`` spawned queue workers plus any external ``repro
    pipeline worker`` processes sharing the cache root), or a pre-built
    backend object.  ``backend_options`` are extra keyword arguments for
    the backend constructor (e.g. ``lease_ttl_s`` for the queue).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        scale: str | None = None,
        cache_dir: str | None = None,
        results_dir: str | None = None,
        jobs: int | None = None,
        save: bool = False,
        force: bool = False,
        force_stages: tuple[str, ...] = (),
        store: StageArtifactStore | None = None,
        progress=None,
        backend="local",
        workers: int = 0,
        backend_options: dict | None = None,
    ):
        from repro.experiments.common import get_scale

        self.spec = spec
        self.scale = get_scale(scale or spec.scale or "bench")
        self.cache_dir = cache_dir
        self.results_dir = results_dir
        self.jobs = jobs
        self.save = save
        self.force = force
        self.force_stages = tuple(force_stages)
        for name in self.force_stages:
            spec.stage(name)  # fail fast with suggestions
        self.store = store
        self.progress = progress
        self.backend = backend
        self.workers = workers
        self.backend_options = dict(backend_options or {})

    def run(self) -> PipelineResult:
        batch = run_union(
            [self.spec], scale=self.scale, jobs=self.jobs,
            cache_dir=self.cache_dir, results_dir=self.results_dir,
            save=self.save, force=self.force, force_stages=self.force_stages,
            store=self.store, progress=self.progress, backend=self.backend,
            workers=self.workers, backend_options=self.backend_options,
        )
        if batch.failures:
            raise batch.failures[0]
        result = batch.points[0]
        result.stats = batch.stats
        return result


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------
def run_spec(
    spec: ExperimentSpec | str,
    scale: str | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    results_dir: str | None = None,
    save: bool = False,
    force: bool = False,
    backend="local",
    workers: int = 0,
    backend_options: dict | None = None,
) -> PipelineResult:
    """Run one spec (by object or registered name)."""
    if isinstance(spec, str):
        from repro.pipeline.presets import get_spec

        spec = get_spec(spec)
    return Runner(
        spec, scale=scale, jobs=jobs, cache_dir=cache_dir,
        results_dir=results_dir, save=save, force=force,
        backend=backend, workers=workers, backend_options=backend_options,
    ).run()


def run_sweep(
    sweep: SweepSpec,
    scale: str | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    results_dir: str | None = None,
    save: bool = False,
    force: bool = False,
    backend="local",
    workers: int = 0,
    backend_options: dict | None = None,
    progress=None,
) -> SweepResult:
    """Run every scenario of a sweep grid as one union plan.

    Scenarios share stage artifacts wherever their grid point leaves a
    stage's parameters (and upstream) untouched, so a stage shared by
    several points executes once and a sweep's cost is proportional to
    what actually varies.  With the queue backend, idle workers steal
    ready stages from any sweep point.  Raises :class:`StageFailure` if
    any scenario failed.
    """
    result = run_union(
        sweep.expand(), scale=scale, jobs=jobs, cache_dir=cache_dir,
        results_dir=results_dir, save=save, force=force, progress=progress,
        backend=backend, workers=workers, backend_options=backend_options,
    )
    if result.failures:
        raise result.failures[0]
    return result
