"""Executor backends: local dispatch and failure isolation, local/queue
parity, work stealing, crash recovery."""

import json
import os
import threading
import time

import pytest

import repro.pipeline.dse  # noqa: F401 — registers synthetic_point
from repro.pipeline import (
    ExperimentSpec,
    QueueBackend,
    Runner,
    StageFailure,
    SweepSpec,
    analysis,
    make_backend,
    run_spec,
    run_sweep,
    run_union,
    stage,
)
from repro.pipeline.artifacts import StageArtifactStore
from repro.pipeline.executors import build_plan
from repro.pipeline.worker import load_extra_modules, run_worker


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    monkeypatch.delenv("REPRO_PIPELINE_MODULES", raising=False)
    return tmp_path


def _synthetic_sweep(points: int = 4, work: int = 500,
                     sleep_s: float = 0.0) -> SweepSpec:
    base = ExperimentSpec(
        name="synth",
        title="Synthetic queue workload",
        scale="smoke",
        stages=(
            stage("point", "analysis", fn="synthetic_point",
                  point=0, work=work, sleep_s=sleep_s),
        ),
    )
    return SweepSpec(base=base, matrix={"point.point": tuple(range(points))})


def _payloads(cache_dir: str) -> dict[str, str]:
    """Canonical payload bytes per stage key in one store."""
    root = os.path.join(cache_dir, "stages")
    out = {}
    for name in os.listdir(root):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(root, name)) as fh:
            record = json.load(fh)
        out[record["key"]] = json.dumps(record["payload"], sort_keys=True)
    return out


# ---------------------------------------------------------------------------
# planning: the union DAG
# ---------------------------------------------------------------------------
def test_union_plan_dedupes_shared_stages(tmp_path):
    base = ExperimentSpec(
        name="shared",
        title="Shared upstream",
        scale="smoke",
        stages=(
            stage("common", "analysis", fn="synthetic_point", point=99),
            stage("swept", "analysis", fn="synthetic_point", point=0,
                  needs=("common",)),
        ),
    )
    sweep = SweepSpec(base=base, matrix={"swept.point": (1, 2)})
    plan = build_plan(sweep.expand(),
                      store=StageArtifactStore(root=str(tmp_path / "s")))
    # 2 scenarios x 2 stages, but the shared stage is one task: 3 not 4
    assert len(plan.tasks) == 3
    assert len(plan.index) == 2
    # insertion order is a valid topo order: upstreams precede dependents
    seen = set()
    for task in plan.tasks:
        assert all(k in seen for k in task.upstream.values())
        seen.add(task.key)


# ---------------------------------------------------------------------------
# local backend: dependency-driven dispatch, fan-out, failure isolation
# ---------------------------------------------------------------------------
@analysis("test_local_probe")
def _local_probe(ctx, params, inputs):
    """Reports the fan-out it ran at; optionally kills its process,
    sleeps, stamps its start and end times into files, or fails unless a
    marker file exists."""
    from repro.experiments.common import get_default_jobs

    start = time.time()
    if params.get("exit_code"):
        os._exit(params["exit_code"])  # dies like an OOM-killed worker
    if params.get("start_file"):
        with open(params["start_file"], "w") as fh:
            fh.write(repr(start))
    time.sleep(float(params.get("sleep_s", 0.0)))
    if params.get("marker") and not os.path.exists(params["marker"]):
        raise RuntimeError("probe failure")
    if params.get("end_file"):
        with open(params["end_file"], "w") as fh:
            fh.write(repr(time.time()))
    jobs = get_default_jobs()
    return {"headers": ["jobs"], "rows": [[jobs]],
            "metrics": {"jobs": float(jobs)}}


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled (``__init__`` needs two args)."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@analysis("test_local_raise_unpicklable")
def _raise_unpicklable(ctx, params, inputs):
    raise _TwoArgError("two-arg", "failure")


def _probe(name, needs=(), **params):
    return stage(name, "analysis", fn="test_local_probe", needs=needs,
                 **params)


def test_pool_stages_run_at_their_own_fan_out(cache):
    """Stages sharing the pool simulate serially (StageContext.jobs), not
    at the fan-out the forked worker inherited; a stage that runs alone
    gets the full fan-out in-process."""
    spec = ExperimentSpec(name="fan_out", scale="smoke", stages=(
        _probe("a", tag="a"),
        _probe("b", tag="b"),
        _probe("both", needs=("a", "b")),
    ))
    result = Runner(spec, jobs=2).run()
    jobs = {o.name: o.payload["metrics"]["jobs"] for o in result.outcomes}
    assert jobs == {"a": 1.0, "b": 1.0, "both": 2.0}


def test_local_dispatch_has_no_wave_barrier(cache, tmp_path):
    """A task starts once its own upstreams are done, while an unrelated
    slow task of the same frontier is still running."""
    slow_end = tmp_path / "slow.end"
    child_start = tmp_path / "child.start"
    spec = ExperimentSpec(name="no_barrier", scale="smoke", stages=(
        _probe("slow", sleep_s=1.0, end_file=str(slow_end)),
        _probe("fast"),
        _probe("child", needs=("fast",), start_file=str(child_start)),
    ))
    Runner(spec, jobs=2).run()
    assert float(child_start.read_text()) < float(slow_end.read_text())


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_stage_blocks_only_its_dependents(cache, tmp_path, jobs):
    marker = tmp_path / "fixed"
    broken = ExperimentSpec(name="broken", scale="smoke", stages=(
        _probe("shared"),
        _probe("flaky", marker=str(marker)),
        _probe("after", needs=("shared", "flaky")),
    ))
    healthy = ExperimentSpec(name="healthy", scale="smoke", stages=(
        _probe("shared"),
        _probe("own", needs=("shared",), tag="own"),
    ))
    batch = run_union([broken, healthy], jobs=jobs)
    assert [p.spec_name for p in batch] == ["healthy"]
    assert batch[0].executed == 2
    (failure,) = batch.failures
    assert (failure.spec_name, failure.stage_name) == ("broken", "flaky")
    assert "probe failure" in failure.detail
    with pytest.raises(StageFailure) as excinfo:
        Runner(broken, jobs=jobs).run()
    assert excinfo.value.stage_name == "flaky"

    marker.touch()  # the fix: only the failure point onward re-executes
    retry = run_union([broken, healthy], jobs=jobs)
    assert not retry.failures
    assert [o.name for o in retry[0].outcomes if not o.cached] == [
        "flaky", "after"]
    assert retry[1].fully_cached


def test_pool_failure_returns_the_worker_traceback(cache):
    """A stage's exception comes back as its worker-side traceback, so an
    exception that cannot be unpickled fails only its own stage."""
    spec = ExperimentSpec(name="odd_error", scale="smoke", stages=(
        stage("odd", "analysis", fn="test_local_raise_unpicklable"),
        _probe("bystander", sleep_s=0.3),
    ))
    batch = run_union([spec], jobs=2)
    (failure,) = batch.failures
    assert failure.stage_name == "odd"
    assert "_TwoArgError: two-arg failure" in failure.detail
    store = StageArtifactStore()
    plan = build_plan([spec], store=store)
    done = {t.stage.name for t in plan.tasks if store.get(t.key)}
    assert done == {"bystander"}


def test_killed_pool_worker_fails_its_tasks_and_the_run_goes_on(cache):
    spec = ExperimentSpec(name="killer", scale="smoke", stages=(
        _probe("die", exit_code=3),
        _probe("bystander", sleep_s=0.5),
        _probe("later", tag="later"),  # waits for a free pool slot
    ))
    batch = run_union([spec], jobs=2)
    (failure,) = batch.failures
    assert failure.stage_name == "die"
    assert "BrokenProcessPool" in failure.detail
    store = StageArtifactStore()
    plan = build_plan([spec], store=store)
    done = {t.stage.name for t in plan.tasks if store.get(t.key)}
    assert done == {"later"}


def test_make_backend_resolves_names_and_instances():
    assert make_backend("local").name == "local"
    queue = make_backend("queue", workers=3, lease_ttl_s=1.0)
    assert queue.name == "queue"
    assert queue.workers == 3
    assert queue.lease_ttl_s == 1.0
    prebuilt = QueueBackend(workers=1)
    assert make_backend(prebuilt) is prebuilt
    from repro.core.errors import UnknownExperimentError

    with pytest.raises(UnknownExperimentError):
        make_backend("quue")


# ---------------------------------------------------------------------------
# queue backend vs local backend
# ---------------------------------------------------------------------------
def test_queue_sweep_matches_local_byte_for_byte(cache, tmp_path,
                                                 monkeypatch):
    sweep = _synthetic_sweep(points=4)
    local_dir = str(tmp_path / "local_cache")
    queue_dir = str(tmp_path / "queue_cache")

    local = run_sweep(sweep, cache_dir=local_dir)
    distributed = run_sweep(
        sweep, backend="queue", workers=2, cache_dir=queue_dir,
        backend_options={"lease_ttl_s": 10.0},
    )
    assert local.executed == distributed.executed == 4
    assert local.cached == distributed.cached == 0
    # identical content keys, byte-identical payloads
    assert _payloads(local_dir) == _payloads(queue_dir)

    # the CI contract: an immediate re-run executes nothing
    rerun = run_sweep(
        sweep, backend="queue", workers=2, cache_dir=queue_dir,
        backend_options={"lease_ttl_s": 10.0},
    )
    assert rerun.executed == 0
    assert rerun.fully_cached
    # per-point render carries the compact summary table + footer
    out = rerun.render()
    assert "point" in out and "executed" in out
    assert "sweep total: 0 executed, 4 cached" in out


def test_queue_sweep_attributes_shared_stage_once(cache, tmp_path):
    base = ExperimentSpec(
        name="shared",
        title="Shared upstream",
        scale="smoke",
        stages=(
            stage("common", "analysis", fn="synthetic_point", point=99),
            stage("swept", "analysis", fn="synthetic_point", point=0,
                  needs=("common",)),
        ),
    )
    sweep = SweepSpec(base=base, matrix={"swept.point": (1, 2)})
    local = run_sweep(sweep, cache_dir=str(tmp_path / "a"))
    distributed = run_sweep(sweep, backend="queue", workers=2,
                            cache_dir=str(tmp_path / "b"),
                            backend_options={"lease_ttl_s": 10.0})
    # 4 stage-shares, 3 executions: the shared stage is cached for the
    # second scenario — identically under both backends
    for result in (local, distributed):
        assert result.executed == 3
        assert result.cached == 1


def test_queue_reports_per_worker_stats(cache, tmp_path):
    sweep = _synthetic_sweep(points=4)
    result = run_sweep(sweep, backend="queue", workers=2,
                       cache_dir=str(tmp_path / "c"),
                       backend_options={"lease_ttl_s": 10.0})
    stats = result.stats
    assert stats["backend"] == "queue"
    assert sum(w["executed"] for w in stats["workers"].values()) == 4
    assert stats["wall_s"] > 0
    assert "peak_ready" in stats and "peak_leased" in stats
    rendered = result.render()
    assert "stages/s" in rendered


# ---------------------------------------------------------------------------
# crash recovery: SIGKILL a worker mid-stage
# ---------------------------------------------------------------------------
def test_sigkill_worker_mid_sweep_recovers(cache, tmp_path):
    """Chaos: a worker dies holding a lease; its task is re-issued (lease
    expiry) and the sweep still completes with correct results."""
    sweep = _synthetic_sweep(points=4, sleep_s=0.5)
    killed = {"done": False}

    def chaos(backend, queue, report):
        if killed["done"]:
            return
        # wait until some worker holds a lease, then SIGKILL it
        if queue.depth()["leased"] > 0 and backend.spawned:
            backend.spawned[0].kill()
            killed["done"] = True

    backend = QueueBackend(workers=2, lease_ttl_s=0.8, on_tick=chaos)
    chaos_dir = str(tmp_path / "chaos_cache")
    result = run_sweep(sweep, backend=backend, cache_dir=chaos_dir)
    assert killed["done"], "chaos hook never fired"
    assert result.executed == 4
    assert result.stats["respawns"] >= 1

    # correctness: payloads identical to an undisturbed local run
    reference = run_sweep(sweep, cache_dir=str(tmp_path / "ref_cache"))
    assert reference.executed == 4
    assert _payloads(chaos_dir) == _payloads(str(tmp_path / "ref_cache"))


# ---------------------------------------------------------------------------
# external workers (`repro pipeline worker` equivalent)
# ---------------------------------------------------------------------------
def test_external_worker_drains_coordinator_with_zero_spawned(cache):
    """workers=0: the coordinator only enqueues/harvests; an external
    worker loop (in-thread here) does all execution, then exits on the
    stop sentinel."""
    sweep = _synthetic_sweep(points=3)
    holder = {}

    def serve():
        holder["stats"] = run_worker(worker_id="external-1", poll_s=0.02,
                                     lease_ttl_s=10.0)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    result = run_sweep(sweep, backend="queue", workers=0,
                       backend_options={"lease_ttl_s": 10.0})
    thread.join(timeout=30)
    assert not thread.is_alive(), "worker did not exit on stop sentinel"
    assert result.executed == 3
    assert holder["stats"].executed == 3
    assert holder["stats"].worker == "external-1"


def test_worker_idle_timeout_returns(cache):
    stats = run_worker(worker_id="idle-1", poll_s=0.01, idle_timeout_s=0.05)
    assert stats.claimed == 0


# ---------------------------------------------------------------------------
# REPRO_PIPELINE_MODULES: analyses defined outside the package
# ---------------------------------------------------------------------------
PLUGIN_SOURCE = '''
from repro.pipeline import analysis


@analysis("plugin_ok")
def plugin_ok(ctx, params, inputs):
    value = int(params.get("value", 1))
    return {"headers": ["v"], "rows": [[value]],
            "metrics": {"v": float(value)}}


@analysis("plugin_boom")
def plugin_boom(ctx, params, inputs):
    raise RuntimeError("plugin exploded")
'''


def _plugin_spec(fn: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"plugin_{fn}",
        title="Plugin analysis",
        scale="smoke",
        stages=(stage("run", "analysis", fn=fn, value=7),),
    )


def test_load_extra_modules_imports_py_files(tmp_path):
    plugin = tmp_path / "queue_plugin_unit.py"
    plugin.write_text(PLUGIN_SOURCE)
    loaded = load_extra_modules(str(plugin))
    assert loaded == ["queue_plugin_unit"]
    from repro.pipeline import ANALYSES

    assert "plugin_ok" in ANALYSES
    # already-loaded modules are not re-executed
    assert load_extra_modules(str(plugin)) == ["queue_plugin_unit"]


def test_spawned_worker_loads_plugin_modules(cache, tmp_path, monkeypatch):
    plugin = tmp_path / "queue_plugin_spawn.py"
    plugin.write_text(PLUGIN_SOURCE)
    monkeypatch.setenv("REPRO_PIPELINE_MODULES", str(plugin))
    load_extra_modules()  # the coordinator needs it too (fingerprinting)
    result = run_spec(_plugin_spec("plugin_ok"), backend="queue", workers=1,
                      backend_options={"lease_ttl_s": 10.0})
    assert result.executed == 1
    assert result.outcome("run").payload["metrics"]["v"] == 7.0


def test_worker_failure_propagates_as_stage_failure(cache, tmp_path,
                                                    monkeypatch):
    plugin = tmp_path / "queue_plugin_fail.py"
    plugin.write_text(PLUGIN_SOURCE)
    monkeypatch.setenv("REPRO_PIPELINE_MODULES", str(plugin))
    load_extra_modules()
    with pytest.raises(StageFailure) as excinfo:
        run_spec(_plugin_spec("plugin_boom"), backend="queue", workers=1,
                 backend_options={"lease_ttl_s": 10.0})
    assert excinfo.value.stage_name == "run"
    assert "plugin exploded" in excinfo.value.detail
