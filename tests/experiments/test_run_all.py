"""Batch execution: `repro run-all` and `run_union` over the preset specs."""

import os

import pytest

from repro.cli import main
from repro.pipeline import (
    ExperimentSpec,
    Runner,
    StageFailure,
    analysis,
    run_union,
    stage,
)
from repro.pipeline.presets import SPECS


@analysis("test_run_all_saw_file")
def _saw_file(ctx, params, inputs):
    seen = os.path.exists(params["path"])
    return {"headers": ["path", "existed"], "rows": [[params["path"], seen]],
            "metrics": {"existed": float(seen)}}


def test_run_all_unknown_name_rejected():
    with pytest.raises(KeyError):
        run_union(["fig99_nonexistent"], scale="smoke")


def test_run_all_serial_subset():
    batch = run_union(["sec4b_reuse"], scale="smoke", jobs=1)
    assert not batch.failures
    assert [p.spec_name for p in batch] == ["sec4b_reuse"]
    assert batch[0].result.experiment == "sec4b_reuse"


def test_run_all_parallel_two_experiments():
    batch = run_union(["sec4b_reuse", "fig3_seen_unseen"], scale="smoke",
                      jobs=2)
    assert not batch.failures
    assert [p.spec_name for p in batch] == ["sec4b_reuse", "fig3_seen_unseen"]
    # results came back across the process boundary fully formed
    assert all(p.result.rows for p in batch)


def test_run_all_captures_failures(monkeypatch, capsys, tmp_path):
    """One preset's analysis raises: the other eleven still complete and
    save, run-all exits 1 naming the experiment and stage, and a single
    run of that spec still raises StageFailure."""
    from repro.pipeline import ANALYSES

    def boom(ctx, params, inputs):
        raise RuntimeError("injected analysis failure")

    monkeypatch.setitem(ANALYSES, "sec4b_reuse", boom)
    results = tmp_path / "results"
    code = main(["run-all", "--scale", "smoke", "--jobs", "2",
                 "--results-dir", str(results)])
    out = capsys.readouterr().out
    assert code == 1
    assert "sec4b_reuse FAILED at stage 'analyze'" in out
    assert "injected analysis failure" in out
    assert "failed experiments: sec4b_reuse (stage 'analyze')" in out
    saved = sorted(os.listdir(results))
    assert saved == sorted(f"{name}_smoke.json" for name in SPECS
                           if name != "sec4b_reuse")
    with pytest.raises(StageFailure, match="injected") as excinfo:
        Runner(SPECS["sec4b_reuse"], scale="smoke", jobs=1).run()
    assert excinfo.value.stage_name == "analyze"


def test_run_all_save_writes_results_incrementally(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    # results follow the cache root: no hardcoded ./results
    first_path = tmp_path / "cache" / "results" / "first_smoke.json"

    def spec(name, **params):
        return ExperimentSpec(name=name, scale="smoke", stages=(
            stage("analyze", "analysis", fn="test_run_all_saw_file",
                  path=str(first_path), **params),
            stage("report", "report", needs=("analyze",)),
        ))

    # at jobs=1 the plan runs in order: the second spec's analysis runs
    # after the first spec's report landed, and must see its saved file
    batch = run_union([spec("first"), spec("second", tag=2)], jobs=1,
                      save=True)
    assert not batch.failures
    assert batch[0].saved == [str(first_path)]
    assert batch[1].result.metrics["existed"] == 1.0
    assert not os.path.exists("results")
