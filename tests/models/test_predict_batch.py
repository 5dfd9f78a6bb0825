"""The shared batched predict path across every model family."""

import numpy as np
import pytest

from repro.models import PredictRequest, PredictionError, create
from repro.models.base import PerformanceModel


@pytest.fixture(scope="module")
def perfvec(tiny_dataset):
    return create(
        "perfvec", arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1
    ).fit(tiny_dataset)


def test_predict_is_the_batched_path(perfvec, tiny_dataset):
    """predict(dataset) == predict_batch(dataset_requests(dataset))."""
    requests = perfvec.dataset_requests(tiny_dataset)
    batched = perfvec.predict_batch(requests)
    via_dataset = perfvec.predict(tiny_dataset)
    for request, result in zip(requests, batched):
        np.testing.assert_array_equal(via_dataset[request.benchmark], result)


def test_perfvec_batch_matches_single_requests(perfvec, tiny_dataset):
    requests = perfvec.dataset_requests(tiny_dataset)
    together = perfvec.predict_batch(requests)
    for request, result in zip(requests, together):
        alone = perfvec.predict_batch([request])[0]
        np.testing.assert_allclose(result, alone, rtol=1e-6)


def test_perfvec_runs_one_pass_per_request(perfvec, tiny_dataset,
                                           engine_passes):
    # repeats collapse in the callers (serving memo, predict_many); the
    # model answers each request with its own, identical, engine pass
    request = perfvec.dataset_requests(tiny_dataset)[0]
    twice = perfvec.predict_batch([request, request])
    assert engine_passes == [1, 1]
    np.testing.assert_array_equal(twice[0], twice[1])


def test_perfvec_requires_features(perfvec):
    with pytest.raises(PredictionError, match="no feature stream"):
        perfvec.predict_batch([PredictRequest(benchmark="505.mcf")])


def test_trace_walker_requires_length(tiny_dataset):
    model = create("ithemal", epochs=1).fit(tiny_dataset)
    with pytest.raises(PredictionError, match="no trace length"):
        model.predict_batch([PredictRequest(benchmark="505.mcf")])


def test_single_benchmark_family_rejects_other_benchmarks(
    tiny_dataset, tiny_configs
):
    model = create("actboost", n_estimators=3).fit(
        tiny_dataset, configs=tiny_configs
    )
    fitted = model.metadata["benchmark"]
    ok = model.predict_batch([PredictRequest(benchmark=fitted)])
    assert np.isfinite(ok[0]).all()
    with pytest.raises(PredictionError, match="is fitted to benchmark"):
        model.predict_batch([PredictRequest(benchmark="505.mcf")])


def test_cross_program_requires_signature_times(tiny_dataset, tiny_configs):
    model = create("cross_program", n_signature=2).fit(
        tiny_dataset, configs=tiny_configs
    )
    requests = model.dataset_requests(tiny_dataset)
    assert all(r.signature_times is not None for r in requests)
    with pytest.raises(PredictionError, match="signature"):
        model.predict_batch([PredictRequest(benchmark="505.mcf")])


def test_result_count_mismatch_is_rejected(tiny_dataset):
    class Broken(PerformanceModel):
        family = "broken"
        spec_fields = ("x",)
        x = 0

        @property
        def config_names(self):
            return ("a",)

        @property
        def is_fitted(self):
            return True

        def fit(self, dataset, configs=None):
            return self

        def _predict_batch(self, requests):
            return []  # wrong arity

        def state_arrays(self):
            return {}

        def restore(self, arrays, metadata):
            pass

    with pytest.raises(PredictionError, match="0 results for 1 requests"):
        Broken().predict_batch([PredictRequest(benchmark="b")])


def test_spec_fields_drive_spec():
    model = create("actboost", n_estimators=3, max_depth=2, seed=5)
    assert model.spec == {
        "benchmark": None, "n_estimators": 3, "max_depth": 2, "seed": 5,
    }
