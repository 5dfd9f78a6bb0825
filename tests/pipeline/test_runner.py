"""Runner execution semantics: artifact reuse, forcing, failure resume,
parallel dispatch, and the Session facade."""

import os

import pytest

from repro.core.errors import UnknownExperimentError
from repro.pipeline import (
    ExperimentSpec,
    Runner,
    StageFailure,
    analysis,
    run_spec,
    stage,
)


@analysis("test_echo")
def _echo(ctx, params, inputs):
    counter = params.get("counter")
    if counter:
        with open(counter, "a") as fh:
            fh.write("x")
    value = params.get("value", 0)
    return {
        "title": "echo",
        "headers": ["key", "value"],
        "rows": [["value", value]],
        "metrics": {"value": float(value)},
        "notes": ["echoed"],
    }


@analysis("test_fail_unless_marker")
def _fail_unless_marker(ctx, params, inputs):
    if not os.path.exists(params["marker"]):
        raise RuntimeError("injected stage failure")
    return {"headers": ["a"], "rows": [["ok"]], "metrics": {}}


def _echo_spec(counter=None, value=7):
    params = {"value": value}
    if counter:
        params["counter"] = counter
    return ExperimentSpec(
        name="echo_spec",
        title="Echo",
        scale="smoke",
        stages=(
            stage("analyze", "analysis", fn="test_echo", **params),
            stage("report", "report", needs=("analyze",)),
        ),
    )


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    return tmp_path


def test_run_executes_then_fully_caches(cache):
    counter = str(cache / "count.txt")
    spec = _echo_spec(counter=counter)
    first = Runner(spec, jobs=1).run()
    assert first.executed == 2 and first.cached == 0
    result = first.result
    assert result.experiment == "echo_spec"
    assert result.metrics["value"] == 7.0

    second = Runner(spec, jobs=1).run()
    assert second.fully_cached and second.cached == 2
    assert "0 executed, 2 cached" in second.summary()
    # the analysis genuinely did not run again
    assert open(counter).read() == "x"
    # and the reconstructed result is identical
    assert second.result == result


def test_changed_param_invalidates_downstream(cache):
    spec = _echo_spec(value=1)
    Runner(spec, jobs=1).run()
    bumped = spec.override({"analyze.value": 2})
    rerun = Runner(bumped, jobs=1).run()
    assert rerun.executed == 2  # analysis key changed -> report key changed
    assert rerun.result.metrics["value"] == 2.0


def test_force_reexecutes_every_stage(cache):
    counter = str(cache / "count.txt")
    spec = _echo_spec(counter=counter)
    Runner(spec, jobs=1).run()
    forced = Runner(spec, jobs=1, force=True).run()
    assert forced.executed == 2
    assert open(counter).read() == "xx"


def test_resume_after_partial_failure_reuses_completed_stages(cache):
    """Satellite: a failed run's completed stages are served from their
    artifacts on the retry — only the failure point onward re-executes."""
    counter = str(cache / "count.txt")
    marker = str(cache / "marker")
    spec = ExperimentSpec(
        name="resume_spec",
        scale="smoke",
        stages=(
            stage("good", "analysis", fn="test_echo", counter=counter),
            stage("flaky", "analysis", fn="test_fail_unless_marker",
                  marker=marker, needs=("good",)),
            stage("report", "report", needs=("flaky",)),
        ),
    )
    with pytest.raises(StageFailure, match="injected stage failure") as exc:
        Runner(spec, jobs=1).run()
    assert exc.value.stage_name == "flaky"
    assert open(counter).read() == "x"  # first stage completed + persisted

    open(marker, "w").close()  # "fix the bug"
    retry = Runner(spec, jobs=1).run()
    assert retry.outcome("good").cached      # resumed, not re-executed
    assert not retry.outcome("flaky").cached
    assert not retry.outcome("report").cached
    assert open(counter).read() == "x"


def test_dataset_train_evaluate_pipeline_end_to_end(cache):
    spec = ExperimentSpec(
        name="mini_scenario",
        title="Train tiny model, evaluate transfer",
        scale="smoke",
        stages=(
            stage("data", "dataset", benchmarks=["999.specrand"]),
            stage("model", "train", benchmarks=["999.specrand"],
                  needs=("data",)),
            stage("transfer", "evaluate", benchmarks=["505.mcf"],
                  needs=("model",)),
            stage("report", "report", needs=("transfer",)),
        ),
    )
    first = Runner(spec, jobs=1).run()
    assert first.executed == 4
    assert first.outcome("data").payload["fingerprint"]
    assert first.outcome("model").payload["artifact"].startswith("perfvec-")
    result = first.result
    assert result.rows and result.rows[0][0] == "505.mcf"
    assert 0 <= result.metrics["avg_error"]

    second = Runner(spec, jobs=1).run()
    assert second.fully_cached
    assert second.result == result


def test_parallel_wave_matches_serial(cache):
    spec = ExperimentSpec(
        name="two_datasets",
        scale="smoke",
        stages=(
            stage("a", "dataset", benchmarks=["999.specrand"]),
            stage("b", "dataset", benchmarks=["505.mcf"]),
            stage("analyze", "analysis", fn="test_echo", needs=("a", "b")),
            stage("report", "report", needs=("analyze",)),
        ),
    )
    parallel = Runner(spec, jobs=2).run()
    assert parallel.executed == 4
    serial = Runner(spec, jobs=1, force=True).run()
    assert (parallel.outcome("a").payload["fingerprint"]
            == serial.outcome("a").payload["fingerprint"])
    assert (parallel.outcome("b").payload["fingerprint"]
            == serial.outcome("b").payload["fingerprint"])


def test_unknown_analysis_name_fails_with_suggestions(cache):
    spec = ExperimentSpec(
        name="typo_spec",
        scale="smoke",
        stages=(stage("analyze", "analysis", fn="test_ech0"),),
    )
    with pytest.raises(StageFailure, match="unknown analysis"):
        Runner(spec, jobs=1).run()


def test_run_spec_by_unknown_name_suggests():
    with pytest.raises(UnknownExperimentError, match="unknown spec"):
        run_spec("fig3_seen_unsen", scale="smoke")


def test_save_writes_report_json(cache):
    results = str(cache / "out")
    saved = Runner(_echo_spec(), jobs=1, save=True,
                   results_dir=results).run()
    assert saved.saved == [os.path.join(results, "echo_spec_smoke.json")]
    assert os.path.exists(saved.saved[0])
    # saving also works on a fully cached run (payload reconstruction)
    again = Runner(_echo_spec(), jobs=1, save=True,
                   results_dir=results).run()
    assert again.fully_cached and again.saved


def test_session_run_pipeline_uses_session_scale_and_cache(tmp_path, monkeypatch):
    from repro.api import Session

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    session = Session(scale="smoke", jobs=1)
    result = session.run_pipeline(_echo_spec())
    assert result.scale == "smoke"
    assert result.result.metrics["value"] == 7.0
    assert session.run_pipeline(_echo_spec()).fully_cached


def test_editing_analysis_code_invalidates_cached_stages(cache):
    """An edited analysis function must not be answered from artifacts
    recorded by its previous implementation."""
    from repro.pipeline.stages import ANALYSES, analysis_fingerprint

    spec = _echo_spec()
    assert Runner(spec, jobs=1).run().executed == 2
    assert Runner(spec, jobs=1).run().fully_cached

    original = ANALYSES["test_echo"]

    def patched(ctx, params, inputs):
        return {"headers": ["key", "value"], "rows": [["value", 99]],
                "metrics": {"value": 99.0}}

    try:
        ANALYSES["test_echo"] = patched
        assert analysis_fingerprint("test_echo") != "unregistered"
        rerun = Runner(spec, jobs=1).run()
        assert rerun.executed == 2  # new source -> new keys -> re-executed
        assert rerun.result.metrics["value"] == 99.0
    finally:
        ANALYSES["test_echo"] = original
    # the original implementation's artifacts are still intact
    assert Runner(spec, jobs=1).run().result.metrics["value"] == 7.0


def test_runner_restores_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    Runner(_echo_spec(), jobs=1, cache_dir=str(tmp_path / "c")).run()
    assert "REPRO_CACHE_DIR" not in os.environ

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "orig"))
    Runner(_echo_spec(), jobs=1, cache_dir=str(tmp_path / "c")).run()
    assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "orig")


def test_session_run_pipeline_rejects_sweeps(tmp_path, monkeypatch):
    from repro.api import Session
    from repro.pipeline import SpecError

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "sweep.toml"
    path.write_text(
        'name = "sw"\nscale = "smoke"\n'
        '[[stage]]\nname = "analyze"\nkind = "analysis"\nfn = "test_echo"\n'
        '[sweep.matrix]\n"analyze.value" = [1, 2]\n'
    )
    with pytest.raises(SpecError, match="repro pipeline sweep"):
        Session(scale="smoke", jobs=1).run_pipeline(str(path))


def test_unknown_scale_suggests():
    from repro.experiments.common import get_scale

    with pytest.raises(UnknownExperimentError, match="did you mean 'smoke'"):
        get_scale("smok")


def test_dataset_memo_is_keyed_by_cache_root(tmp_path, monkeypatch):
    """A dataset stage under a second cache root warms that root: the
    in-process memo does not answer for another root, and a train stage
    added under the second root then simulates nothing."""
    from repro.sim import CPUSimulator

    data = stage("data", "dataset", benchmarks=["999.specrand"])
    only_data = ExperimentSpec(name="memo_roots", scale="smoke", stages=(data,))
    roots = [str(tmp_path / "A"), str(tmp_path / "B")]
    for root in roots:
        assert Runner(only_data, cache_dir=root, jobs=1).run().executed == 1
    for root in roots:
        entries = [name for name in os.listdir(os.path.join(root, "datasets"))
                   if name.endswith(".npz")]
        assert len(entries) == 1, root

    runs = []
    original = CPUSimulator.run

    def counted(self, trace, *args, **kwargs):
        runs.append(self.config.name)
        return original(self, trace, *args, **kwargs)

    monkeypatch.setattr(CPUSimulator, "run", counted)
    with_train = ExperimentSpec(
        name="memo_roots", scale="smoke",
        stages=(data, stage("model", "train", benchmarks=["999.specrand"],
                            needs=("data",))),
    )
    result = Runner(with_train, cache_dir=roots[1], jobs=1).run()
    assert result.executed == 1  # the train stage; the dataset stage is cached
    assert runs == []
