"""PredictionService: caching, grouping; submitted traffic in-process.

Submitted requests go through the dispatcher: ``PredictionCluster``
with ``workers=0`` is the in-process server ``repro serve`` runs.
"""

import gc
import os
import shutil
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Session
from repro.core.errors import PredictionError, UnknownBenchmarkError
from repro.features.feature_cache import feature_cache_dir
from repro.models import StoreError
from repro.obs.metrics import REGISTRY
from repro.serving import PredictionCluster, PredictionService, ServeRequest
from repro.serving.service import _LRU, error_reply
from repro.workloads import suite

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


def completed() -> float:
    return REGISTRY.counter(
        "repro_dispatch_events_total", kind="completed"
    ).value


def entries(cache: str) -> float:
    """The serving cache's size, as its last update set it."""
    return REGISTRY.gauge("repro_serving_cache_entries", cache=cache).value


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


def test_model_cache_warms_up(service, session):
    def hits():
        return REGISTRY.counter(
            "repro_serving_cache_total", cache="model", outcome="hit"
        ).value

    first = session.resolve_artifact()
    second = session.train(
        benchmarks=BENCHMARKS, **{**SPEC, "epochs": 2}
    ).artifact_id
    try:
        assert second != first
        before = hits()
        assert len(service._models) == 0
        service.predict(ServeRequest(benchmark="505.mcf", artifact=first))
        assert len(service._models) == 1
        # an answer-memo miss on another benchmark reuses the warm model;
        # another artifact loads its own
        service.predict(
            ServeRequest(benchmark="999.specrand", artifact=first)
        )
        assert len(service._models) == 1
        service.predict(ServeRequest(benchmark="505.mcf", artifact=second))
        assert len(service._models) == 2
        assert hits() - before == 1
    finally:
        # later tests serve the module's newest artifact: keep it the first
        session.store.delete(second)


def test_batch_results_in_request_order(service, session):
    requests = [
        ServeRequest(benchmark="505.mcf"),
        ServeRequest(benchmark="999.specrand"),
        ServeRequest(benchmark="505.mcf"),
    ]
    results = service.predict_batch(requests)
    assert [r.benchmark for r in results] == [r.benchmark for r in requests]
    assert results[0].times == results[2].times  # one key, one answer
    expected = session.predict_many(["505.mcf", "999.specrand"])
    for result in results:
        assert result.times == pytest.approx(expected[result.benchmark])


def test_submit_micro_batches(in_process, session):
    before = completed()
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
    assert completed() - before == len(futures)


def test_concurrent_clients_share_lane_batches_exactly(in_process, session):
    # more client threads than cores, with a short switch interval: every
    # answer stays exact, none is lost, and queued requests ship together
    expected = session.predict_many(BENCHMARKS)
    names = [BENCHMARKS[i % 2] for i in range(40)]
    batches = REGISTRY.histogram("repro_dispatch_batch_size")
    before = (batches.count, batches.total, completed())
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
    assert completed() - before[2] == 40
    assert REGISTRY.gauge("repro_dispatch_pending").value == 0
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


def test_served_streams_are_not_kept(service, session, monkeypatch):
    # a memo miss reads its stream for one engine pass: once every
    # program is answered, no stream the engine read is still alive
    session._features.clear()
    streams = {}
    load = service.features

    def tracked(benchmark):
        stream = load(benchmark)
        streams[benchmark] = weakref.ref(stream)
        return stream

    monkeypatch.setattr(service, "features", tracked)
    for name in BENCHMARKS:
        service.predict(ServeRequest(benchmark=name))
    gc.collect()
    assert sorted(streams) == sorted(BENCHMARKS)
    assert [name for name, ref in streams.items() if ref() is not None] == []
    assert session._features == {}  # memo=False path
    assert entries("answer") == len(BENCHMARKS)


@pytest.mark.parametrize("family", ["perfvec", "simnet", "ithemal"])
def test_served_misses_leave_the_trace_memo_empty(session, family):
    # a served miss traces its program for one pass (perfvec: on a
    # feature-cache miss, to encode it) and keeps the trace out of the
    # frontend's process-wide memo, which dataset builds and training
    # share (training filled it with these programs)
    if family != "perfvec":
        session.train(family=family, benchmarks=BENCHMARKS, evaluate=False,
                      epochs=1)
    features = feature_cache_dir(session.cache_dir)
    shutil.rmtree(features, ignore_errors=True)
    session._features.clear()
    suite.clear_trace_cache()
    service = PredictionService(session=session)
    for name in BENCHMARKS:
        service.predict(ServeRequest(benchmark=name, family=family))
    if family == "perfvec":  # every one missed the feature cache
        assert len(os.listdir(features)) == len(BENCHMARKS)
    assert suite._TRACE_CACHE == {}


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


# -- the answer memo ----------------------------------------------------------
@pytest.mark.parametrize("family, name", [
    ("perfvec", "505.mcf"),
    ("actboost", "999.specrand"),  # answers its fitted benchmark only
])
def test_memo_hits_equal_predict_many(service, session, family, name):
    session.train(family=family, benchmarks=BENCHMARKS,
                  **(SPEC if family == "perfvec" else {"n_estimators": 3}))
    request = ServeRequest(benchmark=name, family=family)
    miss = service.predict(request)
    hit = service.predict(request)
    expected = session.predict_many([name], family=family)[name]
    assert miss.times == expected and hit.times == expected


def test_memo_hit_fetches_no_features_and_runs_no_engine(
    service, engine_passes, monkeypatch
):
    request = ServeRequest(benchmark="505.mcf")
    service.predict(request)
    assert engine_passes == [1]
    fetched = []
    monkeypatch.setattr(service, "features", fetched.append)
    service.predict(request)
    assert engine_passes == [1] and fetched == []


def test_repeats_in_one_batch_share_one_engine_pass(service, engine_passes):
    first, second = service.predict_batch(
        [ServeRequest(benchmark="505.mcf")] * 2
    )
    assert engine_passes == [1]
    assert first.times == second.times and first.times is not second.times


def test_predict_many_answers_each_name_once(session, engine_passes):
    many = session.predict_many(["505.mcf", "505.mcf", "999.specrand"])
    assert engine_passes == [1, 1]
    assert list(many) == ["505.mcf", "999.specrand"]


def test_each_artifact_answers_from_its_own_entries(tmp_path):
    # a second artifact of the family, reached by pinning or by a swap,
    # never reads the first one's answers
    session = Session(scale="smoke", cache_dir=str(tmp_path))
    old_id = session.train(benchmarks=BENCHMARKS, **SPEC).artifact_id
    request = ServeRequest(benchmark="505.mcf")
    with PredictionCluster(workers=0, session=session) as server:
        old = server.predict(request, timeout=120)
        new_id = session.train(
            benchmarks=BENCHMARKS, **{**SPEC, "epochs": 2}
        ).artifact_id
        server.swap(new_id)
        new = server.predict(request, timeout=120)
        pinned = server.predict(
            ServeRequest(benchmark="505.mcf", artifact=old_id), timeout=120
        )
        stats = server.stats()
    assert (old.artifact, new.artifact) == (old_id, new_id)
    assert new.times == session.predict("505.mcf", artifact=new_id)
    assert new.times != old.times
    assert pinned.times == old.times
    assert stats["metrics"]['repro_serving_cache_entries{cache="answer"}'] == 2


def test_signature_times_are_part_of_the_key(service, session):
    session.train(family="cross_program", benchmarks=BENCHMARKS)
    answers = [
        service.predict(ServeRequest(
            benchmark="505.mcf", family="cross_program",
            signature_times=signature,
        )).times
        for signature in ((1e6, 2e6, 3e6), (2e6, 4e6, 6e6))
    ]
    assert answers[0] != answers[1]
    assert answers[1] == session.predict(
        "505.mcf", family="cross_program", signature_times=(2e6, 4e6, 6e6)
    )


def test_mutating_a_result_leaves_later_answers_alone(service):
    request = ServeRequest(benchmark="505.mcf")
    first = service.predict(request)
    expected = dict(first.times)
    for name in first.times:
        first.times[name] = -1.0
    assert service.predict(request).times == expected


def test_one_entry_caches_miss_on_every_alternating_request(
    session, engine_passes
):
    # a one-entry answer memo holds only the latest key: a round-robin
    # over two benchmarks never hits
    service = PredictionService(session=session, answer_cache=1)
    for name in BENCHMARKS * 3:
        service.predict(ServeRequest(benchmark=name))
    assert len(engine_passes) == 6
    assert entries("answer") == 1


def test_concurrent_callers_share_one_memo_exactly(service, session):
    # more threads than cores, a short switch interval: every answer is
    # exact and the memo ends with one entry per key
    expected = session.predict_many(BENCHMARKS)
    names = [BENCHMARKS[i % 2] for i in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda name: service.predict(ServeRequest(benchmark=name)),
                names,
            ))
    finally:
        sys.setswitchinterval(interval)
    assert [r.times for r in results] == [expected[n] for n in names]
    assert entries("answer") == 2


def test_answer_counters_and_stats_track_the_memo(service):
    def count(outcome):
        return REGISTRY.counter(
            "repro_serving_cache_total", cache="answer", outcome=outcome
        ).value

    before = (count("hit"), count("miss"))
    service.predict_batch([ServeRequest(benchmark="505.mcf")] * 2)
    service.predict(ServeRequest(benchmark="505.mcf"))
    service.predict(ServeRequest(benchmark="999.specrand"))
    # the in-batch repeat was not held when looked up: a miss
    assert (count("hit") - before[0], count("miss") - before[1]) == (1, 3)
    assert (entries("answer"), entries("model")) == (2, 1)
