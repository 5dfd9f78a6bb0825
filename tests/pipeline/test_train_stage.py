"""Train stages: one train-or-reuse path, and analyses score the model
their upstream train stage names."""

import pytest

from repro.pipeline import (
    ExperimentSpec,
    Runner,
    SpecError,
    StageFailure,
    SweepSpec,
    get_spec,
    run_sweep,
    stage,
)
from repro.pipeline.stages import upstream_train


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def _train_spec(**params):
    return ExperimentSpec(
        name="train_only",
        scale="smoke",
        stages=(
            stage("data", "dataset", benchmarks=["999.specrand"]),
            stage("model", "train", benchmarks=["999.specrand"],
                  needs=("data",), **params),
        ),
    )


def _stored_spec(artifact: str) -> dict:
    from repro.models import ModelStore

    return ModelStore().manifest(artifact)["spec"]


def test_train_params_reach_every_family(cache):
    run = Runner(_train_spec(family="ithemal", epochs=1), jobs=1).run()
    payload = run.outcome("model").payload
    assert _stored_spec(payload["artifact"])["epochs"] == 1
    assert payload["family"] == "ithemal"
    assert set(payload) == {"artifact", "family", "isa", "reused"}


def test_train_param_the_family_lacks_is_a_spec_error(cache):
    with pytest.raises(StageFailure, match="family 'ithemal' has no") as exc:
        Runner(_train_spec(family="ithemal", arch="lstm-9-9"), jobs=1).run()
    assert exc.value.stage_name == "model"
    assert "SpecError" in exc.value.detail


def test_upstream_train_names_a_missing_or_non_train_stage():
    model = {"artifact": "perfvec-0", "family": "perfvec",
             "isa": "mini-asm", "reused": False}
    data = {"fingerprint": "f", "rows": 1}
    assert upstream_train({"data": data, "model": model}) is model
    assert upstream_train({"model": model}, "model") is model
    with pytest.raises(SpecError, match="'foundation' is not among needs"):
        upstream_train({"model": model}, "foundation")
    with pytest.raises(SpecError, match="'data' is not a 'train' stage"):
        upstream_train({"data": data}, "data")
    with pytest.raises(SpecError, match="no upstream 'train' stage"):
        upstream_train({"data": data})


def test_analysis_fed_a_dataset_as_its_model_fails_naming_it(cache):
    spec = ExperimentSpec(
        name="fig3_without_model",
        scale="smoke",
        stages=(
            stage("foundation", "dataset", benchmarks=["999.specrand"]),
            stage("analyze", "analysis", fn="fig3_seen_unseen",
                  needs=("foundation",)),
            stage("report", "report", needs=("analyze",)),
        ),
    )
    with pytest.raises(StageFailure,
                       match="'foundation' is not a 'train' stage") as exc:
        Runner(spec, jobs=1).run()
    assert exc.value.stage_name == "analyze"


def test_fig3_sweep_points_score_their_own_foundation(cache, monkeypatch):
    """Each point of a sweep over the foundation's epochs reports the
    errors of the artifact its own train stage names, and the sweep fits
    exactly those two models (no default-epochs model of its own)."""
    import repro.models.adapters as adapters
    from repro.experiments.common import (
        benchmark_dataset,
        get_scale,
        total_time_errors,
    )
    from repro.models import ModelStore
    from repro.workloads import ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS

    fits = []
    real_train = adapters.train_foundation

    def counting_train(dataset, config):
        fits.append(config.epochs)
        return real_train(dataset, config)

    monkeypatch.setattr(adapters, "train_foundation", counting_train)
    sweep = SweepSpec(base=get_spec("fig3_seen_unseen"),
                      matrix={"foundation.epochs": (1, 3)})
    result = run_sweep(sweep, scale="smoke", jobs=1)
    assert sorted(fits) == [1, 3]

    cfg = get_scale("smoke")
    suite = benchmark_dataset(cfg, tuple(ALL_BENCHMARKS))
    reported = set()
    for point in result.points:
        artifact = point.outcome("foundation").payload["artifact"]
        model = ModelStore().load(artifact)
        errors = total_time_errors(model.perfvec, suite, cfg.chunk_len)
        seen = [errors[n].mean for n in TRAIN_BENCHMARKS]
        unseen = [errors[n].mean for n in TEST_BENCHMARKS]
        metrics = point.result.metrics
        assert metrics["avg_seen_error"] == sum(seen) / len(seen)
        assert metrics["avg_unseen_error"] == sum(unseen) / len(unseen)
        assert metrics["best_val_loss"] == model.history.best_val_loss
        reported.add((metrics["avg_seen_error"], metrics["avg_unseen_error"]))
    assert len(reported) == 2
