"""PredictionCluster: concurrency, crash recovery, hot-swap atomicity.

These tests run a real 2-worker cluster (spawned processes, mmap'd
weights) against a smoke-scale store and hold it to the single-process
ground truth: every answer a client ever sees must be byte-identical to
what ``Session.predict`` returns for the artifact that served it.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session
from repro.serving import (
    DispatchPolicy,
    PredictionCluster,
    ServeRequest,
    WorkerError,
)

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("cluster"))
    )
    session.train(benchmarks=BENCHMARKS, **SPEC)
    return session


@pytest.fixture(scope="module")
def expected(session):
    return {name: session.predict(name) for name in BENCHMARKS}


@pytest.fixture(scope="module")
def cluster(session):
    with PredictionCluster(
        workers=2,
        scale="smoke",
        cache_dir=session.cache_dir,
        policy=DispatchPolicy(queue_depth=256, queue_timeout_s=120.0),
    ) as cluster:
        yield cluster


def test_negative_worker_count_is_rejected(session):
    with pytest.raises(ValueError, match=">= 0"):
        PredictionCluster(workers=-1, session=session)


def test_in_process_worker_runs_the_cluster_surface(tmp_path):
    # workers=0 is the same dispatcher path with one in-process worker:
    # exact answers, hot swap, per-worker stats, no worker processes.
    # Its own store: a second artifact here must not become "newest"
    # for the module's cluster.
    session = Session(scale="smoke", cache_dir=str(tmp_path))
    old_id = session.train(benchmarks=BENCHMARKS, **SPEC).artifact_id
    with PredictionCluster(workers=0, session=session) as server:
        result = server.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
        assert result.artifact == old_id
        assert result.times == session.predict("505.mcf")

        new_id = session.train(
            benchmarks=BENCHMARKS, **{**SPEC, "epochs": 2}
        ).artifact_id
        # the route stays pinned until the swap flips it
        assert server.predict(
            ServeRequest(benchmark="505.mcf"), timeout=120
        ).artifact == old_id
        outcome = server.swap(new_id)
        assert outcome == {"family": "perfvec", "artifact": new_id,
                           "previous": old_id, "workers": 1}
        swapped = server.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
        assert swapped.artifact == new_id
        assert swapped.times == session.predict("505.mcf", artifact=new_id)

        stats = server.stats()
        assert stats["completed"] == 3 and stats["worker_pids"] == {}
        assert stats["routes"] == {"perfvec": new_id}
        assert [w["scale"] for w in stats["worker_stats"].values()] == [
            "smoke"
        ]
        # the in-process worker records into this process's registry,
        # which /v1/metrics renders once — no per-worker copy
        assert server.worker_metrics() == {}
        with pytest.raises(RuntimeError, match="no workers to kill"):
            server.kill_worker()


def test_concurrent_clients_byte_identical(cluster, expected):
    # M threads x K requests: under real cross-process concurrency every
    # answer must be *byte-identical* to the single-process path — no
    # batching-composition or shared-memory effect may leak into values
    threads, per_thread = 8, 5

    def client(i):
        out = []
        for k in range(per_thread):
            name = BENCHMARKS[(i + k) % len(BENCHMARKS)]
            out.append(
                (name, cluster.predict(ServeRequest(benchmark=name),
                                       timeout=120))
            )
        return out

    with ThreadPoolExecutor(max_workers=threads) as pool:
        all_results = [
            item
            for chunk in pool.map(client, range(threads))
            for item in chunk
        ]
    assert len(all_results) == threads * per_thread
    for name, result in all_results:
        assert result.benchmark == name
        assert result.times == expected[name]  # exact, not approx


def test_worker_crash_recovery_no_request_lost(cluster, expected):
    # kill a worker while a burst is in flight: every future must still
    # resolve with the correct answer (fail-over), and the cluster must
    # respawn back to full strength
    futures = [
        cluster.submit(ServeRequest(benchmark=BENCHMARKS[i % 2]))
        for i in range(40)
    ]
    killed = cluster.kill_worker()
    for i, future in enumerate(futures):
        result = future.result(timeout=120)
        assert result.times == expected[BENCHMARKS[i % 2]]
    assert wait_until(lambda: len(cluster.dispatcher.alive_workers()) == 2)
    assert killed not in cluster.dispatcher.alive_workers()
    # the replacement serves correctly too
    after = cluster.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
    assert after.times == expected["505.mcf"]


def test_hot_swap_is_atomic_under_traffic(cluster, session, expected):
    # second artifact with different weights (one more epoch)
    old_id = session.resolve_artifact()
    new_id = session.train(
        benchmarks=BENCHMARKS, **{**SPEC, "epochs": 2}
    ).artifact_id
    assert new_id != old_id
    by_artifact = {
        old_id: expected["505.mcf"],
        new_id: session.predict("505.mcf", artifact=new_id),
    }
    assert by_artifact[old_id] != by_artifact[new_id]

    seen, failures = [], []
    stop = threading.Event()

    def traffic():
        while not stop.is_set():
            try:
                result = cluster.predict(
                    ServeRequest(benchmark="505.mcf"), timeout=120
                )
            except Exception as exc:  # pragma: no cover - fails the test
                failures.append(exc)
                return
            seen.append((result.artifact, result.times))

    clients = [threading.Thread(target=traffic) for _ in range(4)]
    for thread in clients:
        thread.start()
    try:
        time.sleep(0.2)  # in-flight traffic on the old model
        outcome = cluster.swap(new_id)
    finally:
        time.sleep(0.2)  # in-flight traffic on the new model
        stop.set()
        for thread in clients:
            thread.join(timeout=120)

    assert not failures
    assert outcome["artifact"] == new_id and outcome["previous"] == old_id
    # atomicity: every answer matches its serving artifact exactly —
    # nothing half-loaded, no value from a third source
    assert {artifact for artifact, _ in seen} <= {old_id, new_id}
    for artifact, times in seen:
        assert times == by_artifact[artifact]
    # the switch happened: traffic after swap() returned is on new_id
    result = cluster.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
    assert result.artifact == new_id
    assert result.times == by_artifact[new_id]
    # swap back so later tests see the original route
    cluster.swap(old_id)


def test_worker_errors_carry_status(cluster):
    with pytest.raises(WorkerError) as excinfo:
        cluster.predict(ServeRequest(benchmark="not.a.benchmark"),
                        timeout=120)
    assert excinfo.value.status == 404
    with pytest.raises(WorkerError) as excinfo:
        cluster.predict(
            ServeRequest(benchmark="505.mcf", config="nope"), timeout=120
        )
    assert excinfo.value.status == 400
    with pytest.raises(WorkerError) as excinfo:
        cluster.predict(
            ServeRequest(benchmark="505.mcf", artifact="perfvec-missing"),
            timeout=120,
        )
    assert excinfo.value.status == 404


def test_stats_expose_workers_and_routes(cluster, session):
    result = cluster.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
    stats = cluster.stats()
    assert stats["completed"] >= 1
    assert len(stats["worker_pids"]) == 2
    # the route table pins the artifact this very request was served by
    assert stats["routes"]["perfvec"] == result.artifact
    alive = [w for w in stats["workers"].values() if w["alive"]]
    assert len(alive) == 2


def wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_worker_stats_report_each_workers_service(cluster):
    cluster.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
    stats = cluster.stats()
    workers = stats["worker_stats"]
    assert len(workers) == 2
    for report in workers.values():
        # every worker answers its control probe with its own service
        # counters
        assert "error" not in report
        assert report["scale"] == "smoke"


def test_worker_metrics_fanout(cluster):
    cluster.predict(ServeRequest(benchmark="505.mcf"), timeout=120)
    metrics = cluster.worker_metrics()
    assert len(metrics) == 2
    # the request passed through exactly one worker's serving caches
    assert any(
        "repro_serving_cache_total" in snap for snap in metrics.values()
    )
    for snap in metrics.values():
        for family in snap.values():
            assert family["kind"] in ("counter", "gauge", "histogram")
