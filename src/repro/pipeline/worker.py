"""Queue worker: claim a stage, execute it, publish the artifact.

One worker process serves any number of pipeline runs: it loops claiming
tasks from the shared :class:`~repro.pipeline.queue.WorkQueue`, rebuilds
the stage from the task message (stage spec fragment + scale name +
upstream artifact *keys* — payloads are re-read from the shared
:class:`~repro.pipeline.artifacts.StageArtifactStore`, which is what
makes a task self-contained), executes it, and publishes the result with
first-writer-wins semantics.  A daemon heartbeat thread refreshes the
lease while the stage runs; if the worker is SIGKILLed, the heartbeat
stops with it and the lease expires, so another worker steals the task.

Workers run in three shapes off this one loop:

* spawned children of the coordinator (``QueueBackend(workers=N)``),
  via :class:`repro.runtime.workers.WorkerProcess`;
* standalone CLI processes — ``repro pipeline worker`` — on any host
  sharing the cache root;
* inline in the current process (tests, drain helpers).

``REPRO_PIPELINE_MODULES`` (``os.pathsep``-separated module names or
``.py`` file paths) is imported at startup so user analyses registered
outside the preset modules are available in spawned workers.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro import obs
from repro.pipeline.artifacts import StageArtifactStore
from repro.pipeline.queue import (
    DEFAULT_LEASE_TTL_S,
    Claim,
    WorkQueue,
    default_worker_id,
)

#: Extra modules (names or file paths) imported before executing stages.
MODULES_ENV = "REPRO_PIPELINE_MODULES"


def load_extra_modules(value: str | None = None) -> list[str]:
    """Import every entry of ``REPRO_PIPELINE_MODULES``; returns names.

    Entries are dotted module names or paths to ``.py`` files.  File
    paths cover the common test/plugin case where the defining module is
    not importable from the worker's ``sys.path``.
    """
    value = value if value is not None else os.environ.get(MODULES_ENV, "")
    loaded = []
    for entry in filter(None, (e.strip() for e in value.split(os.pathsep))):
        if entry.endswith(".py") or os.path.sep in entry:
            name = os.path.splitext(os.path.basename(entry))[0]
            if name in sys.modules:
                loaded.append(name)
                continue
            spec = importlib.util.spec_from_file_location(name, entry)
            if spec is None or spec.loader is None:
                raise ImportError(f"cannot load pipeline module {entry!r}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded.append(name)
        else:
            importlib.import_module(entry)
            loaded.append(entry)
    return loaded


@dataclass
class WorkerStats:
    """Lifetime counters for one worker, mirrored to ``stats/<id>.json``."""

    worker: str
    claimed: int = 0
    executed: int = 0
    stolen: int = 0
    dedup_skips: int = 0
    failures: int = 0
    busy_s: float = 0.0
    started_at: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        return {
            "worker": self.worker,
            "claimed": self.claimed,
            "executed": self.executed,
            "stolen": self.stolen,
            "dedup_skips": self.dedup_skips,
            "failures": self.failures,
            "busy_s": round(self.busy_s, 6),
            "started_at": self.started_at,
            "updated_at": time.time(),
        }


def execute_task(
    task: dict, store: StageArtifactStore, **span
) -> tuple[dict, float, float]:
    """Rebuild one task's stage and run it through
    :func:`~repro.pipeline.executors.run_stage`; returns ``(payload,
    seconds, cpu_seconds)``.

    Upstream payloads are resolved from the artifact store by key — the
    coordinator only enqueues a task once every upstream key has been
    published, so a miss here means the shared store was tampered with.
    """
    from repro.experiments.common import ScaleConfig, get_scale
    from repro.pipeline.executors import run_stage
    from repro.pipeline.spec import StageSpec
    from repro.pipeline.stages import StageContext

    fragment = task["stage"]
    stage = StageSpec(
        name=fragment["name"], kind=fragment["kind"],
        needs=tuple(fragment.get("needs", ())),
        params=fragment.get("params", {}),
    )
    raw_scale = task["scale"]
    ctx = StageContext(
        scale=(get_scale(raw_scale) if isinstance(raw_scale, str)
               else ScaleConfig(**raw_scale)),
        spec_name=task.get("spec", "?"),
        cache_dir=None,  # workers resolve REPRO_CACHE_DIR like everyone
        results_dir=None,
        jobs=int(task.get("jobs", 1)),
    )
    inputs = {}
    for name, dep_key in dict(task.get("upstream", {})).items():
        record = store.get(dep_key)
        if record is None:
            raise RuntimeError(
                f"stage {stage.name!r} needs upstream artifact {dep_key} "
                f"({name!r}), which is not in the store at {store.root}"
            )
        inputs[name] = record["payload"]
    return run_stage(stage, ctx, inputs, **span)


def _heartbeat_loop(queue: WorkQueue, claim: Claim,
                    stop: threading.Event) -> None:
    interval = max(queue.lease_ttl_s / 4.0, 0.02)
    while not stop.wait(interval):
        queue.heartbeat(claim)


def run_claim(queue: WorkQueue, store: StageArtifactStore, claim: Claim,
              stats: WorkerStats, worker_id: str) -> None:
    """Execute one claimed task end to end (dedup, heartbeat, publish)."""
    task = claim.task
    # the coordinator's trace context rides the task file; popping it
    # here parents this worker's stage span on the coordinator's run
    # span (and keeps the wire key out of the stage identity)
    ctx = obs.extract_message(task)
    force = bool(task.get("force"))
    if not force and store.get(claim.key) is not None:
        # someone else (a racing thief, or a previous run) already
        # published this key — drop our claim without executing
        queue.complete(claim)
        stats.dedup_skips += 1
        return
    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop, args=(queue, claim, stop), daemon=True
    )
    heartbeat.start()
    try:
        stage = task["stage"]
        payload, seconds, cpu_seconds = execute_task(
            task, store, parent=ctx, key=claim.key, worker=worker_id,
            stolen=claim.stolen,
        )
        store.put(
            claim.key, stage["name"], stage["kind"], task.get("spec", "?"),
            payload, seconds=seconds, cpu_seconds=cpu_seconds,
            worker=worker_id, overwrite=force,
        )
    except Exception:
        stop.set()
        heartbeat.join()
        queue.fail(claim, traceback.format_exc())
        stats.failures += 1
        return
    stop.set()
    heartbeat.join()
    queue.complete(claim)
    stats.executed += 1
    stats.busy_s += seconds


def run_worker(
    root: str | None = None,
    worker_id: str | None = None,
    store: StageArtifactStore | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.05,
    idle_timeout_s: float | None = None,
    max_tasks: int | None = None,
    stop_on_sentinel: bool = True,
) -> WorkerStats:
    """The worker main loop; returns this worker's final counters.

    Exits when the queue's stop sentinel appears (``stop_on_sentinel``),
    after ``idle_timeout_s`` seconds without claimable work (``None``:
    wait forever), or after ``max_tasks`` claims.
    """
    load_extra_modules()
    queue = WorkQueue(root, lease_ttl_s=lease_ttl_s)
    queue.ensure()
    store = store or StageArtifactStore()
    worker_id = worker_id or default_worker_id()
    stats = WorkerStats(worker=worker_id)
    queue.write_stats(worker_id, stats.as_dict())
    idle_since = time.monotonic()
    while True:
        if stop_on_sentinel and queue.stopped():
            break
        if max_tasks is not None and stats.claimed >= max_tasks:
            break
        claim = queue.claim(worker_id)
        if claim is None:
            if (idle_timeout_s is not None
                    and time.monotonic() - idle_since > idle_timeout_s):
                break
            time.sleep(poll_s)
            continue
        stats.claimed += 1
        if claim.stolen:
            stats.stolen += 1
        run_claim(queue, store, claim, stats, worker_id)
        queue.write_stats(worker_id, stats.as_dict())
        idle_since = time.monotonic()
    queue.write_stats(worker_id, stats.as_dict())
    return stats


def worker_entry(conn, root: str, worker_id: str, options: dict) -> None:
    """Spawn target for coordinator-managed workers (WorkerProcess)."""
    conn.close()  # lifecycle is filesystem-driven (stop sentinel)
    run_worker(root=root, worker_id=worker_id, **options)
