"""PredictionService: caching, grouping; submitted traffic in-process.

Submitted requests go through the dispatcher: ``PredictionCluster``
with ``workers=0`` is the in-process server ``repro serve`` runs.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Session
from repro.core.errors import PredictionError, UnknownBenchmarkError
from repro.models import StoreError
from repro.obs.metrics import REGISTRY
from repro.serving import PredictionCluster, PredictionService, ServeRequest
from repro.serving.service import _LRU, error_reply

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("serving"))
    )
    session.train(benchmarks=BENCHMARKS, **SPEC)
    return session


@pytest.fixture()
def service(session):
    return PredictionService(session=session)


@pytest.fixture()
def in_process(session):
    with PredictionCluster(workers=0, session=session) as server:
        yield server


def test_lru_evicts_least_recent():
    lru = _LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refresh a
    lru.put("c", 3)  # evicts b
    assert lru.get("b") is None
    assert lru.get("a") == 1 and lru.get("c") == 3


def test_predict_matches_session(service, session):
    result = service.predict(ServeRequest(benchmark="505.mcf"))
    expected = session.predict("505.mcf")
    assert result.times == pytest.approx(expected)
    assert result.artifact == session.resolve_artifact()


def test_config_filter(service, session):
    expected = session.predict("505.mcf")
    config = next(iter(expected))
    result = service.predict(ServeRequest(benchmark="505.mcf", config=config))
    assert result.times == pytest.approx({config: expected[config]})


def test_model_and_feature_caches_warm_up(service):
    assert len(service._models) == 0 and len(service._features) == 0
    service.predict(ServeRequest(benchmark="505.mcf"))
    assert len(service._models) == 1 and len(service._features) == 1
    service.predict(ServeRequest(benchmark="505.mcf"))
    assert len(service._models) == 1 and len(service._features) == 1


def test_batch_results_in_request_order(service, session):
    requests = [
        ServeRequest(benchmark="505.mcf"),
        ServeRequest(benchmark="999.specrand"),
        ServeRequest(benchmark="505.mcf"),
    ]
    results = service.predict_batch(requests)
    assert [r.benchmark for r in results] == [r.benchmark for r in requests]
    assert results[0].times == results[2].times  # coalesced, same answer
    expected = session.predict_many(["505.mcf", "999.specrand"])
    for result in results:
        assert result.times == pytest.approx(expected[result.benchmark])


def test_submit_micro_batches(in_process, session):
    futures = [
        in_process.submit(ServeRequest(benchmark=name))
        for name in ("505.mcf", "999.specrand", "505.mcf", "999.specrand")
    ]
    results = [f.result(timeout=60) for f in futures]
    expected = session.predict_many(BENCHMARKS)
    for result in results:
        # the in-process worker hands results over unencoded: the same
        # bits as the one-shot session path
        assert result.times == expected[result.benchmark]
    assert in_process.stats()["completed"] == len(futures)


def test_concurrent_clients_share_lane_batches_exactly(in_process, session):
    # more client threads than cores, with a short switch interval: every
    # answer stays exact, none is lost, and queued requests ship together
    expected = session.predict_many(BENCHMARKS)
    names = [BENCHMARKS[i % 2] for i in range(40)]
    batches = REGISTRY.histogram("repro_dispatch_batch_size")
    before = (batches.count, batches.total)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda name: in_process.predict(
                    ServeRequest(benchmark=name), timeout=60
                ),
                names,
            ))
    finally:
        sys.setswitchinterval(interval)
    assert [r.times for r in results] == [expected[n] for n in names]
    stats = in_process.stats()
    assert stats["completed"] == 40 and stats["pending"] == 0
    assert batches.total - before[1] == 40
    assert batches.count - before[0] < 40


def test_lone_request_is_answered_without_follow_up(in_process):
    # a lone request goes out as soon as its lane is idle — it never
    # waits for companions that will never arrive
    start = time.monotonic()
    result = in_process.submit(ServeRequest(benchmark="505.mcf")).result(
        timeout=30
    )
    assert result.benchmark == "505.mcf"
    assert time.monotonic() - start < 5.0  # one engine pass, no hang


def test_submit_surfaces_errors_per_request(in_process):
    good = in_process.submit(ServeRequest(benchmark="505.mcf"))
    bad = in_process.submit(ServeRequest(benchmark="not.a.benchmark"))
    assert np.isfinite(list(good.result(timeout=60).times.values())).all()
    # in-process failures reach the caller as the exception raised
    with pytest.raises(UnknownBenchmarkError):
        bad.result(timeout=60)


@pytest.mark.parametrize("exc, status", [
    (UnknownBenchmarkError("x"), 404),  # a PredictionError, but unknown
    (StoreError("no artifact"), 404),
    (PredictionError("unknown config"), 400),
    (ValueError("bad field"), 400),
    (RuntimeError("boom"), 500),
])
def test_error_reply_maps_every_failure_once(exc, status):
    code, message = error_reply(exc)
    assert code == status
    assert message == (str(exc) if status < 500 else "RuntimeError: boom")


def test_unknown_config_is_clear_error(service):
    from repro.core.errors import PredictionError

    with pytest.raises(PredictionError, match="unknown config 'nope'"):
        service.predict(ServeRequest(benchmark="505.mcf", config="nope"))


def test_parameter_family_serves_its_fitted_benchmark(service, session):
    session.train(family="actboost", benchmarks=BENCHMARKS, n_estimators=3)
    result = service.predict(
        ServeRequest(benchmark="999.specrand", family="actboost")
    )
    assert result.times == session.predict("999.specrand", family="actboost")
    # the per-program baseline answers only for the benchmark it was fit to
    from repro.core.errors import PredictionError

    with pytest.raises(PredictionError, match="fitted to benchmark"):
        service.predict(
            ServeRequest(benchmark="505.mcf", family="actboost")
        )


def test_feature_lru_is_the_only_in_memory_copy(service, session):
    session._features.clear()
    service.predict(ServeRequest(benchmark="505.mcf"))
    assert len(service._features) == 1
    assert "505.mcf" not in session._features  # memo=False path


def test_unknown_artifact_raises_store_error(service):
    with pytest.raises(StoreError):
        service.predict(
            ServeRequest(benchmark="505.mcf", artifact="perfvec-missing")
        )


def test_serve_request_parsing():
    request = ServeRequest.from_dict({"benchmark": "505.mcf", "config": "u0"})
    assert request.benchmark == "505.mcf" and request.config == "u0"
    with pytest.raises(ValueError, match="benchmark"):
        ServeRequest.from_dict({})
    with pytest.raises(ValueError, match="unknown request fields"):
        ServeRequest.from_dict({"benchmark": "x", "nope": 1})
    assert ServeRequest.from_dict(
        ServeRequest(benchmark="x").to_dict()
    ) == ServeRequest(benchmark="x")


def test_stats_report_jit_activity(service):
    service.predict(ServeRequest(benchmark="505.mcf"))
    stats = service.stats()
    assert stats["scale"] == "smoke"
    assert stats["models_cached"] >= 1
    jit_section = stats["jit"]
    assert jit_section["enabled"] is True  # default tier
    # the smoke perfvec model is an lstm: the predict above must have
    # dispatched compiled kernels (compiled now or already resident)
    assert jit_section["kernel_calls"] >= 1


def test_jit_off_service_matches_jit_on(session):
    on = PredictionService(session=session)
    off = PredictionService(
        scale="smoke", cache_dir=session.cache_dir, jit=False
    )
    request = ServeRequest(benchmark="505.mcf")
    times_on = on.predict(request).times
    times_off = off.predict(request).times
    assert times_on.keys() == times_off.keys()
    for name in times_on:
        assert times_on[name] == pytest.approx(times_off[name], rel=1e-5)
    assert off.stats()["jit"]["enabled"] is False
