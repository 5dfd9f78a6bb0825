"""Cross-process trace propagation: queue sweeps, serving cluster, SIGKILL.

The acceptance contract of the obs subsystem: one queue-backend sweep
and one 2-worker cluster request each produce a *single* stitched trace
whose worker spans are correctly parented on the coordinator's spans,
and a SIGKILLed process leaves a truncated-but-parseable trace.
"""

import os
import signal
import subprocess
import sys

import pytest

import repro.pipeline.dse  # noqa: F401 — registers synthetic_point
from repro import obs
from repro.obs.viewer import build_tree, group_traces, load_spans
from repro.pipeline import ExperimentSpec, SweepSpec, run_sweep, stage


@pytest.fixture
def traced(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    monkeypatch.delenv("REPRO_PIPELINE_MODULES", raising=False)
    obs.reset_for_tests()
    yield tmp_path
    obs.reset_for_tests()


def _synthetic_sweep(points: int = 3) -> SweepSpec:
    base = ExperimentSpec(
        name="obs-synth",
        title="Traced queue workload",
        scale="smoke",
        stages=(
            stage("point", "analysis", fn="synthetic_point",
                  point=0, work=200),
        ),
    )
    return SweepSpec(base=base, matrix={"point.point": tuple(range(points))})


def test_queue_sweep_one_stitched_trace(traced):
    result = run_sweep(
        _synthetic_sweep(points=3), backend="queue", workers=2,
        backend_options={"lease_ttl_s": 10.0},
    )
    assert result.executed == 3

    traces = group_traces(load_spans())
    runs = {
        tid: spans for tid, spans in traces.items()
        if any(s.name == "pipeline.run" for s in spans)
    }
    assert len(runs) == 1, "the whole sweep must be ONE trace"
    spans = next(iter(runs.values()))

    roots = build_tree(spans)
    assert [r.name for r in roots] == ["pipeline.run"]
    root = roots[0]
    assert root.attrs["backend"] == "queue"
    # every stage span is a direct child of the coordinator's run span,
    # executed in a *different* process (the spawned workers)
    stage_spans = [s for s in spans if s.name == "stage.run"]
    assert len(stage_spans) == 3
    for sp in stage_spans:
        assert sp.parent_id == root.span_id
        assert sp.pid != root.pid
        assert not sp.truncated
        assert sp.attrs["stage"] == "point"
        assert sp.attrs["worker"]
    # at least 2 distinct processes participated (coordinator + worker)
    assert len({(s.host, s.pid) for s in spans}) >= 2


def test_local_sweep_traces_too(traced):
    # the local backend runs scenarios sequentially: one pipeline.run
    # trace per sweep point, each with its stage nested inline
    run_sweep(_synthetic_sweep(points=2))
    spans = load_spans()
    run_roots = [r for r in build_tree(spans) if r.name == "pipeline.run"]
    assert len(run_roots) == 2
    for root in run_roots:
        assert root.attrs["backend"] == "local"
        assert [c.name for c in root.children] == ["stage.run"]
        assert all(c.pid == root.pid for c in root.children)


def test_sigkill_mid_span_leaves_truncated_trace(traced, tmp_path):
    """A process dying inside a span leaves a parseable, truncated span."""
    program = (
        "import os, signal\n"
        "from repro import obs\n"
        "sp = obs.span('doomed.work', victim=True)\n"
        "sp.__enter__()\n"
        "with obs.span('doomed.child'):\n"
        "    pass\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", program], env=dict(os.environ), timeout=60
    )
    assert proc.returncode == -signal.SIGKILL
    spans = load_spans()
    by_name = {s.name: s for s in spans}
    doomed = by_name["doomed.work"]
    assert doomed.truncated and doomed.status == "truncated"
    # the finished child survived intact and stays correctly parented
    child = by_name["doomed.child"]
    assert not child.truncated
    assert child.parent_id == doomed.span_id
    assert child.trace_id == doomed.trace_id


CLUSTER_SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)


def test_cluster_request_one_stitched_trace(traced):
    from repro.api import Session
    from repro.serving import PredictionCluster, ServeRequest

    session = Session(scale="smoke")
    session.train(benchmarks=("999.specrand",), **CLUSTER_SPEC)
    with PredictionCluster(workers=2, session=session) as cluster:
        with obs.span("client.request") as sp:
            trace_id = sp.trace_id
            result = cluster.predict(
                ServeRequest(benchmark="999.specrand"), timeout=120
            )
        assert result.benchmark == "999.specrand"

    spans = group_traces(load_spans()).get(trace_id, [])
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    # frontend-side client span plus the worker's serving span, one trace
    client = by_name["client.request"][0]
    worker = by_name["worker.predict"][0]
    assert worker.parent_id == client.span_id
    assert worker.pid != client.pid  # crossed the process boundary
    assert worker.attrs["requests"] == 1
    # the worker's model/feature loads nest under its serving span
    for name in ("service.model_load", "service.feature_load"):
        assert any(
            s.pid == worker.pid for s in by_name.get(name, [])
        ), f"expected {name} span from the worker process"


def test_in_process_request_one_stitched_trace(traced):
    # the in-process worker answers on the dispatcher's lane thread; the
    # request envelope carries the trace context across that thread hop
    from repro.api import Session
    from repro.serving import PredictionCluster, ServeRequest

    session = Session(scale="smoke")
    session.train(benchmarks=("999.specrand",), **CLUSTER_SPEC)
    with PredictionCluster(workers=0, session=session) as server:
        with obs.span("client.request") as sp:
            server.predict(ServeRequest(benchmark="999.specrand"), timeout=120)
    spans = group_traces(load_spans()).get(sp.trace_id, [])
    by_name = {span.name: span for span in spans}
    assert by_name["worker.predict"].parent_id == sp.span_id
    assert by_name["worker.predict"].pid == os.getpid()
    assert (by_name["service.model_load"].parent_id
            == by_name["worker.predict"].span_id)
