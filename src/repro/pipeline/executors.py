"""Pluggable stage-execution backends: local pool and distributed queue.

The runner never executes stages itself: it builds an
:class:`ExecutionPlan` (the deduplicated union DAG of one or many
specs, every stage's content key precomputed) and hands it to an
:class:`ExecutorBackend`:

``local``
    Dependency-driven execution on this host: a task starts as soon as
    its upstreams are done, in-process or in a pool of ``jobs`` worker
    processes.  A failed task blocks only its dependents.

``queue``
    The distributed backend: a coordinator enqueues ready stages into
    the filesystem :class:`~repro.pipeline.queue.WorkQueue` under the
    cache root and harvests results as workers publish them to the
    shared artifact store.  Workers are spawned children, external
    ``repro pipeline worker`` processes on any host sharing the cache
    root, or both.  Scheduling is work-stealing by construction: every
    ready stage of every sweep point sits in one queue, so an idle
    worker takes whatever is ready regardless of which point it belongs
    to, and stale leases (dead workers) are re-issued.  The coordinator
    stops at the first failure.

Both backends run a stage through :func:`run_stage`.  Because stage
keys are content addresses, two scenarios that share a stage collapse
to **one** task in the plan, and two workers racing on one key resolve
by first atomic publish — the queue needs no global lock to be
exactly-once in effect.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

from repro import obs
from repro.pipeline.artifacts import StageArtifactStore, stage_key
from repro.pipeline.spec import ExperimentSpec, StageSpec
from repro.runtime.pool import process_pool
from repro.runtime.progress import NULL_PROGRESS

#: Queue poll cadence for the coordinator loop (seconds).
DEFAULT_POLL_S = 0.05


# ---------------------------------------------------------------------------
# the execution plan: union DAG with precomputed keys
# ---------------------------------------------------------------------------
def _scale_message(scale):
    """Wire form of a scale: its registered name, or the full field dict
    for ad-hoc :class:`ScaleConfig` instances (custom sweep scales)."""
    from repro.experiments.common import SCALES

    if SCALES.get(scale.name) == scale:
        return scale.name
    return dataclasses.asdict(scale)


@dataclass(frozen=True)
class StageTask:
    """One unit of work: a stage pinned to its content key and scale."""

    key: str
    stage: StageSpec
    spec_name: str
    scale: object  # resolved ScaleConfig
    upstream: dict  # stage-name -> upstream task key
    force: bool = False

    def to_message(self) -> dict:
        """The JSON task file a queue worker rebuilds the stage from."""
        return {
            "key": self.key,
            "stage": {
                "name": self.stage.name,
                "kind": self.stage.kind,
                "needs": list(self.stage.needs),
                "params": dict(self.stage.params),
            },
            "spec": self.spec_name,
            "scale": _scale_message(self.scale),
            "upstream": dict(self.upstream),
            "jobs": 1,  # workers are the fan-out; stages run serial
            "force": self.force,
        }


@dataclass
class TaskResult:
    """How one task finished: payload plus execution provenance."""

    key: str
    payload: dict
    cached: bool
    seconds: float = 0.0
    worker: str | None = None


@dataclass
class ExecutionReport:
    """Everything a backend hands back to the runner."""

    results: dict = field(default_factory=dict)  # key -> TaskResult
    failures: dict = field(default_factory=dict)  # key -> traceback
    stats: dict | None = None  # backend telemetry (queue backend)


@dataclass
class ExecutionPlan:
    """A deduplicated, topologically ordered union DAG plus run context."""

    tasks: list  # [StageTask] — insertion order is a valid topo order
    index: list  # [(ExperimentSpec, {stage name -> key})] for assembly
    store: StageArtifactStore
    jobs: int = 1
    cache_dir: str | None = None
    results_dir: str | None = None
    progress: object = NULL_PROGRESS
    on_outcome: Callable | None = None  # (StageTask, TaskResult) -> None

    def notify(self, task: StageTask, result: TaskResult) -> None:
        if self.on_outcome is not None:
            self.on_outcome(task, result)


def build_plan(
    specs: list[ExperimentSpec],
    scale=None,
    store: StageArtifactStore | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    results_dir: str | None = None,
    force: bool = False,
    force_stages: tuple[str, ...] = (),
    progress=None,
    on_outcome: Callable | None = None,
) -> ExecutionPlan:
    """The union DAG of ``specs``, deduplicated by stage content key.

    ``scale`` overrides every spec's own scale when given (name or
    :class:`ScaleConfig`); otherwise each spec resolves its own — a
    sweep with a ``scale`` axis plans correctly.  A stage shared by
    several specs (same key) becomes one task; forcing it anywhere
    forces the single task.
    """
    from repro.experiments.common import get_scale
    from repro.pipeline.stages import STAGE_KINDS, analysis_fingerprint

    tasks: dict[str, StageTask] = {}
    index: list[tuple[ExperimentSpec, dict[str, str]]] = []
    for spec in specs:
        spec_scale = get_scale(scale or spec.scale or "bench")
        keys: dict[str, str] = {}
        for st in spec.stages:
            extra = None
            if st.kind == "analysis":
                extra = {"fn_source": analysis_fingerprint(st.params["fn"])}
            key = stage_key(
                st, spec_scale, {n: keys[n] for n in st.needs},
                STAGE_KINDS[st.kind].version, extra=extra,
            )
            keys[st.name] = key
            forced = force or st.name in force_stages
            existing = tasks.get(key)
            if existing is None:
                tasks[key] = StageTask(
                    key=key, stage=st, spec_name=spec.name, scale=spec_scale,
                    upstream={n: keys[n] for n in st.needs}, force=forced,
                )
            elif forced and not existing.force:
                tasks[key] = replace(existing, force=True)
        index.append((spec, keys))
    return ExecutionPlan(
        tasks=list(tasks.values()), index=index,
        store=store if store is not None else StageArtifactStore(),
        jobs=jobs, cache_dir=cache_dir, results_dir=results_dir,
        progress=progress or NULL_PROGRESS, on_outcome=on_outcome,
    )


# ---------------------------------------------------------------------------
# the backend protocol
# ---------------------------------------------------------------------------
class ExecutorBackend(Protocol):
    """Anything that can run an :class:`ExecutionPlan` to completion."""

    name: str

    def execute(self, plan: ExecutionPlan) -> ExecutionReport:
        """Run every task; report payloads, provenance and failures."""
        ...  # pragma: no cover - protocol


def _serve_cached(plan: ExecutionPlan, report: ExecutionReport) -> None:
    """Resolve every unforced task already in the store (no execution)."""
    for task in plan.tasks:
        if task.force:
            continue
        record = plan.store.get(task.key)
        if record is not None:
            result = TaskResult(key=task.key, payload=record["payload"],
                                cached=True)
            report.results[task.key] = result
            plan.notify(task, result)


def run_stage(stage: StageSpec, ctx, inputs: dict,
              **span) -> tuple[dict, float, float]:
    """Execute one stage; returns ``(payload, seconds, cpu_seconds)``.

    The one stage-running path of both backends (a local pool worker, the
    local process, a queue worker).  ``ctx.jobs`` is installed as this
    process's simulation fan-out for the stage's duration, so a stage in
    a pool worker simulates serially however the process was forked.
    Wall and CPU seconds are measured here because the parent's clock
    cannot see a child's CPU time; ``span`` adds ``stage.run`` span
    attributes (``parent=`` joins a propagated trace).
    """
    import repro.pipeline.presets  # noqa: F401 — registers preset analyses

    from repro.experiments.common import set_default_jobs
    from repro.pipeline.stages import STAGE_KINDS

    previous = set_default_jobs(ctx.jobs)
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        with obs.span("stage.run", stage=stage.name, kind=stage.kind, **span):
            payload = STAGE_KINDS[stage.kind].run(ctx, stage, inputs)
    finally:
        set_default_jobs(previous)
    return (
        payload,
        time.perf_counter() - start,
        time.process_time() - cpu_start,
    )


def _run_stage_captured(stage: StageSpec, ctx, inputs: dict) -> tuple:
    """:func:`run_stage` returning ``(outcome, None)`` or ``(None,
    traceback)``: a failure travels back from a pool worker as the
    worker's own traceback text, never as an exception object that might
    not unpickle (which would break the pool for every running task)."""
    try:
        return run_stage(stage, ctx, inputs), None
    except Exception:
        return None, traceback.format_exc()


# ---------------------------------------------------------------------------
# local backend: dependency-driven, in-process or a process pool
# ---------------------------------------------------------------------------
class LocalBackend:
    """Run each task on this host as soon as its upstreams are done.

    At ``jobs=1`` tasks run in-process in plan order.  Otherwise ready
    tasks go to a pool of ``jobs`` worker processes at stage fan-out 1,
    except a task that is the only one ready while nothing else runs: it
    executes in-process with the full fan-out.  A failed task blocks only
    its dependents; everything else still runs and persists.
    """

    name = "local"

    def execute(self, plan: ExecutionPlan) -> ExecutionReport:
        with obs.span(
            "pipeline.run", backend=self.name, tasks=len(plan.tasks),
        ):
            return self._execute(plan)

    def _execute(self, plan: ExecutionPlan) -> ExecutionReport:
        report = ExecutionReport()
        _serve_cached(plan, report)
        pending = [t for t in plan.tasks if t.key not in report.results]
        if plan.progress is not NULL_PROGRESS and not plan.progress.total:
            plan.progress.total = len(pending)
        running: dict = {}  # future -> task
        pool = None
        try:
            while True:
                ready = [
                    t for t in pending
                    if all(k in report.results for k in t.upstream.values())
                ]
                if not ready and not running:
                    # done, or every pending task waits on a failed one
                    return report
                if ready and (plan.jobs == 1
                              or (len(ready) == 1 and not running)):
                    task = ready[0]
                    pending.remove(task)
                    self._record(plan, task, report, *_run_stage_captured(
                        task.stage, self._context(plan, task, plan.jobs),
                        self._inputs(task, report),
                    ))
                    continue
                if pool is None:
                    # the default start method, as in ParallelMap: forked
                    # workers see analyses registered at run time (a
                    # script's or a test's), which spawned ones would not.
                    # Forked pools start every worker up front: no more
                    # than there are tasks left.
                    pool = process_pool(min(plan.jobs, len(pending)))
                for task in ready[: plan.jobs - len(running)]:
                    pending.remove(task)
                    future = pool.submit(
                        _run_stage_captured, task.stage,
                        self._context(plan, task, 1), self._inputs(task, report),
                    )
                    running[future] = task
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    task = running.pop(future)
                    try:
                        outcome, detail = future.result()
                    except BrokenProcessPool:
                        # a killed worker breaks the pool and every task
                        # on it; later tasks get a fresh pool
                        detail = traceback.format_exc()
                        for lost in (task, *running.values()):
                            self._record(plan, lost, report, None, detail)
                        running.clear()
                        pool.shutdown(wait=False)
                        pool = None
                        break
                    self._record(plan, task, report, outcome, detail)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    def _context(self, plan: ExecutionPlan, task: StageTask, jobs: int):
        from repro.pipeline.stages import StageContext

        return StageContext(
            scale=task.scale, spec_name=task.spec_name,
            cache_dir=plan.cache_dir, results_dir=plan.results_dir,
            jobs=jobs,
        )

    @staticmethod
    def _inputs(task: StageTask, report: ExecutionReport) -> dict:
        return {n: report.results[k].payload for n, k in task.upstream.items()}

    @staticmethod
    def _record(plan: ExecutionPlan, task: StageTask,
                report: ExecutionReport, outcome: tuple | None,
                detail: str | None) -> None:
        """Persist a finished task's payload, or record its failure."""
        label = f"{task.spec_name}:{task.stage.name}"
        if detail is not None:
            report.failures[task.key] = detail
            plan.progress.task_done(label, ok=False)
            return
        payload, seconds, cpu_seconds = outcome
        plan.store.put(
            task.key, task.stage.name, task.stage.kind, task.spec_name,
            payload, seconds=seconds, cpu_seconds=cpu_seconds,
        )
        result = TaskResult(key=task.key, payload=payload, cached=False,
                            seconds=seconds)
        report.results[task.key] = result
        plan.notify(task, result)
        plan.progress.task_done(label)


# ---------------------------------------------------------------------------
# queue backend: filesystem coordinator + worker processes
# ---------------------------------------------------------------------------
class QueueBackend:
    """Coordinate a run over the shared filesystem work queue.

    ``workers`` children are spawned on this host (0 relies entirely on
    external ``repro pipeline worker`` processes).  Dead spawned workers
    are respawned so a chaos kill cannot starve the run; their expired
    leases are reaped/stolen so their in-flight stages are re-issued.
    ``on_tick`` is a test/chaos hook called every coordinator loop with
    ``(backend, queue, report)``.
    """

    name = "queue"

    def __init__(
        self,
        workers: int = 2,
        lease_ttl_s: float | None = None,
        poll_s: float = DEFAULT_POLL_S,
        queue_root: str | None = None,
        worker_poll_s: float | None = None,
        note_every_s: float = 2.0,
        on_tick: Callable | None = None,
    ):
        from repro.pipeline.queue import DEFAULT_LEASE_TTL_S

        self.workers = workers
        self.lease_ttl_s = (DEFAULT_LEASE_TTL_S if lease_ttl_s is None
                            else lease_ttl_s)
        self.poll_s = poll_s
        self.queue_root = queue_root
        self.worker_poll_s = (worker_poll_s if worker_poll_s is not None
                              else poll_s)
        self.note_every_s = note_every_s
        self.on_tick = on_tick
        self.spawned: list = []  # live WorkerProcess handles (chaos hook)
        self._respawns = 0
        self._run_nonce = ""  # per-execute id suffix for spawned workers

    # -- worker lifecycle --------------------------------------------------
    def _spawn_worker(self, queue, ordinal: int):
        from repro.pipeline.queue import default_worker_id
        from repro.runtime.workers import WorkerProcess

        # the nonce keeps this run's stats files distinct from a previous
        # run's in the same coordinator process (same pid, same ordinals)
        worker_id = f"{default_worker_id()}-{self._run_nonce}w{ordinal}"
        options = {
            "lease_ttl_s": self.lease_ttl_s,
            "poll_s": self.worker_poll_s,
        }
        from repro.pipeline.worker import worker_entry

        return WorkerProcess(
            worker_entry, args=(queue.root, worker_id, options),
            name=f"pipeline-worker-{ordinal}",
        )

    def _respawn_dead(self, queue) -> None:
        budget = max(3 * self.workers, 8)
        for i, proc in enumerate(self.spawned):
            if proc is not None and not proc.is_alive():
                if self._respawns >= budget:
                    raise RuntimeError(
                        f"queue backend: spawned workers died "
                        f"{self._respawns} times (budget {budget}); "
                        "giving up instead of respawning forever"
                    )
                self.spawned[i] = self._spawn_worker(queue, i)
                self._respawns += 1

    # -- the coordinator loop ----------------------------------------------
    def execute(self, plan: ExecutionPlan) -> ExecutionReport:
        # the run span stays open across spawn + the whole loop, so the
        # context stamped into task files (and the spawn env) parents
        # every worker's stage spans on this coordinator
        with obs.span(
            "pipeline.run", backend=self.name, tasks=len(plan.tasks),
        ):
            return self._execute(plan)

    def _execute(self, plan: ExecutionPlan) -> ExecutionReport:
        import uuid

        from repro.pipeline.queue import WorkQueue

        self._run_nonce = uuid.uuid4().hex[:6]
        queue = WorkQueue(self.queue_root, lease_ttl_s=self.lease_ttl_s)
        queue.ensure()
        queue.clear_stop()
        queue.clear_failures()
        queue.reap_tmp()

        report = ExecutionReport()
        start = time.perf_counter()
        stats_before = queue.read_stats()

        # forced keys must not be answerable from stale records: drop
        # them before any worker can see the task
        for task in plan.tasks:
            if task.force:
                plan.store.drop(task.key)
        _serve_cached(plan, report)
        for key in report.results:
            queue.discard(key)  # stale task files from an aborted run

        tasks_by_key = {t.key: t for t in plan.tasks}
        remaining = {t.key for t in plan.tasks if t.key not in report.results}
        enqueued: set[str] = set()
        total = len(plan.tasks)
        if plan.progress is not NULL_PROGRESS and not plan.progress.total:
            plan.progress.total = total
        peak = {"ready": 0, "leased": 0}
        reclaimed = 0
        last_note = 0.0
        try:
            self.spawned = [self._spawn_worker(queue, i)
                            for i in range(self.workers)]
            while remaining:
                progressed = False
                for key in list(remaining):
                    task = tasks_by_key[key]
                    if key not in enqueued and all(
                        k in report.results for k in task.upstream.values()
                    ):
                        # the trace context rides the task file so the
                        # claiming worker — spawned child or a process
                        # on another host — joins this run's trace
                        queue.enqueue(obs.inject_message(task.to_message()))
                        enqueued.add(key)
                for key in list(enqueued):
                    record = plan.store.get(key)
                    if record is None:
                        continue
                    task = tasks_by_key[key]
                    result = TaskResult(
                        key=key, payload=record["payload"], cached=False,
                        seconds=float(record.get("seconds", 0.0)),
                        worker=record.get("worker"),
                    )
                    report.results[key] = result
                    remaining.discard(key)
                    enqueued.discard(key)
                    queue.discard(key)
                    plan.notify(task, result)
                    plan.progress.task_done(
                        f"{task.spec_name}:{task.stage.name}"
                    )
                    progressed = True
                failure = queue.first_failure()
                if failure is not None:
                    report.failures[failure.get("key", "?")] = failure.get(
                        "error", "")
                    return report
                reclaimed += queue.reap_stale()
                self._respawn_dead(queue)
                if self.on_tick is not None:
                    self.on_tick(self, queue, report)
                now = time.perf_counter()
                depth = queue.depth()
                peak["ready"] = max(peak["ready"], depth["ready"])
                peak["leased"] = max(peak["leased"], depth["leased"])
                if (plan.progress is not NULL_PROGRESS
                        and now - last_note >= self.note_every_s):
                    plan.progress.note(
                        f"queue: {depth['ready']} ready, "
                        f"{depth['leased']} running, "
                        f"{len(report.results)}/{total} stages done"
                    )
                    last_note = now
                if not progressed and remaining:
                    time.sleep(self.poll_s)
        finally:
            queue.stop()
            for proc in self.spawned:
                if proc is not None:
                    proc.stop(timeout_s=10.0)
            self.spawned = []
            report.stats = self._gather_stats(
                queue, stats_before, time.perf_counter() - start,
                peak, reclaimed,
            )
        return report

    def _gather_stats(self, queue, before: dict, wall_s: float,
                      peak: dict, reclaimed: int) -> dict:
        """Per-worker deltas over this run, plus coordinator telemetry."""
        workers = {}
        for worker_id, after in queue.read_stats().items():
            base = before.get(worker_id, {})
            executed = after.get("executed", 0) - base.get("executed", 0)
            busy = after.get("busy_s", 0.0) - base.get("busy_s", 0.0)
            row = {
                "executed": executed,
                "stolen": after.get("stolen", 0) - base.get("stolen", 0),
                "dedup_skips": (after.get("dedup_skips", 0)
                                - base.get("dedup_skips", 0)),
                "failures": after.get("failures", 0) - base.get("failures", 0),
                "busy_s": round(busy, 3),
                "stages_per_s": round(executed / wall_s, 3) if wall_s else 0.0,
            }
            if any(row[k] for k in
                   ("executed", "stolen", "dedup_skips", "failures")):
                workers[worker_id] = row
        return {
            "backend": self.name,
            "workers": workers,
            "reclaimed_leases": reclaimed,
            "respawns": self._respawns,
            "peak_ready": peak["ready"],
            "peak_leased": peak["leased"],
            "wall_s": round(wall_s, 3),
        }


#: Registered backend constructors, keyed by ``--backend`` name.
BACKENDS: dict[str, type] = {
    "local": LocalBackend,
    "queue": QueueBackend,
}


def make_backend(backend, workers: int = 0, **options):
    """Resolve a backend argument: instance, or registered name + options.

    ``workers``/keyword options only apply to backends that take them
    (the queue backend); the local backend accepts none.
    """
    if hasattr(backend, "execute"):  # pre-built (tests pass hooks)
        return backend
    cls = BACKENDS.get(backend)
    if cls is None:
        from repro.core.errors import UnknownExperimentError

        raise UnknownExperimentError(backend, BACKENDS,
                                     kind="executor backend")
    if cls is LocalBackend:
        return LocalBackend()
    return cls(workers=workers, **options)


def render_executor_stats(stats: dict | None) -> list[str]:
    """Human lines for a queue run's telemetry (CLI/render output)."""
    if not stats or stats.get("backend") != "queue":
        return []
    lines = [
        f"queue: peak depth {stats['peak_ready']} ready / "
        f"{stats['peak_leased']} leased, "
        f"{stats['reclaimed_leases']} lease(s) reclaimed, "
        f"{stats['respawns']} worker respawn(s), "
        f"{stats['wall_s']:.1f}s wall"
    ]
    for worker_id, row in sorted(stats.get("workers", {}).items()):
        extras = []
        if row["stolen"]:
            extras.append(f"{row['stolen']} stolen")
        if row["dedup_skips"]:
            extras.append(f"{row['dedup_skips']} deduped")
        if row["failures"]:
            extras.append(f"{row['failures']} failed")
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(
            f"  worker {worker_id}: {row['executed']} stage(s){suffix}, "
            f"{row['busy_s']:.1f}s busy, {row['stages_per_s']:.2f} stages/s"
        )
    return lines
