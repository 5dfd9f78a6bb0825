"""Corrupt records are counted + logged, never silently folded into miss."""

import json
import os

import pytest

from repro.obs.metrics import REGISTRY
from repro.pipeline.artifacts import StageArtifactStore
from repro.pipeline.queue import WorkQueue


def _counter_value(name: str, **labels) -> float:
    return REGISTRY.counter(name, **labels).value


@pytest.fixture
def store(tmp_path):
    return StageArtifactStore(root=str(tmp_path / "stages"))


def test_stage_store_counts_hit_miss(store, caplog):
    before_miss = _counter_value(
        "repro_stage_store_lookups_total", outcome="miss")
    before_hit = _counter_value(
        "repro_stage_store_lookups_total", outcome="hit")
    assert store.get("absent") is None
    store.put("k1", "s", "analysis", "spec", {"x": 1})
    assert store.get("k1")["payload"] == {"x": 1}
    assert _counter_value(
        "repro_stage_store_lookups_total", outcome="miss"
    ) == before_miss + 1
    assert _counter_value(
        "repro_stage_store_lookups_total", outcome="hit"
    ) == before_hit + 1


@pytest.mark.parametrize("content,reason", [
    ("{ not json", "unparseable"),
    ('{"format": 99, "payload": {}}', "wrong format"),
    ('{"format": 1, "key": "k2"}', "no payload"),
])
def test_stage_store_corruption_counted_and_logged(
    store, caplog, content, reason
):
    os.makedirs(store.root, exist_ok=True)
    with open(store.path("k2"), "w") as fh:
        fh.write(content)
    before = _counter_value(
        "repro_stage_store_lookups_total", outcome="corrupt")
    with caplog.at_level("WARNING", logger="repro.pipeline.artifacts"):
        assert store.get("k2") is None  # still reads as a miss
    assert _counter_value(
        "repro_stage_store_lookups_total", outcome="corrupt"
    ) == before + 1
    assert any("corrupt stage record" in r.message for r in caplog.records)


def test_queue_corrupt_task_file_counted(tmp_path, caplog):
    queue = WorkQueue(str(tmp_path / "queue"), lease_ttl_s=10.0)
    queue.ensure()
    queue.enqueue({"key": "good", "stage": {"name": "s", "kind": "analysis"}})
    with open(queue.task_path("bad"), "w") as fh:
        fh.write("{ torn")
    before = _counter_value("repro_queue_corrupt_total")
    with caplog.at_level("WARNING", logger="repro.pipeline.queue"):
        claims = [queue.claim("w1"), queue.claim("w1")]
    # the corrupt task is skipped (not claimable), the good one is won
    assert {c.task["key"] for c in claims if c is not None} == {"good"}
    assert _counter_value("repro_queue_corrupt_total") >= before + 1
    assert any("corrupt queue file" in r.message for r in caplog.records)


def test_feature_cache_corrupt_entry_recomputes(tmp_path, caplog):
    from repro.features.feature_cache import encoded_features, feature_path
    from repro.frontends import DEFAULT_FRONTEND

    cache_dir = str(tmp_path / "features")
    os.makedirs(cache_dir)
    first = encoded_features(
        "999.specrand", 200, seed=7, cache_dir=cache_dir)
    path = feature_path(cache_dir, "999.specrand", 200, 7, DEFAULT_FRONTEND)
    assert os.path.exists(path)
    with open(path, "wb") as fh:
        fh.write(b"this is not an npz archive")
    before = _counter_value("repro_feature_cache_total", outcome="corrupt")
    with caplog.at_level("WARNING", logger="repro.features.feature_cache"):
        again = encoded_features(
            "999.specrand", 200, seed=7, cache_dir=cache_dir)
    assert (again == first).all()  # recomputed, not served corrupt
    assert _counter_value(
        "repro_feature_cache_total", outcome="corrupt") == before + 1
    assert any("corrupt feature cache" in r.message for r in caplog.records)
    # the rewrite repaired the entry: the next lookup is a clean hit
    before_hit = _counter_value("repro_feature_cache_total", outcome="hit")
    encoded_features("999.specrand", 200, seed=7, cache_dir=cache_dir)
    assert _counter_value(
        "repro_feature_cache_total", outcome="hit") == before_hit + 1


def test_feature_cache_zero_byte_entry_recomputes(tmp_path, caplog):
    """An empty cache file makes np.load raise EOFError: still a counted,
    logged corruption that is recomputed and rewritten."""
    from repro.features.feature_cache import encoded_features, feature_path
    from repro.frontends import DEFAULT_FRONTEND

    cache_dir = str(tmp_path / "features")
    os.makedirs(cache_dir)
    first = encoded_features(
        "999.specrand", 200, seed=7, cache_dir=cache_dir)
    path = feature_path(cache_dir, "999.specrand", 200, 7, DEFAULT_FRONTEND)
    open(path, "wb").close()
    before = _counter_value("repro_feature_cache_total", outcome="corrupt")
    with caplog.at_level("WARNING", logger="repro.features.feature_cache"):
        again = encoded_features(
            "999.specrand", 200, seed=7, cache_dir=cache_dir)
    assert (again == first).all()
    assert _counter_value(
        "repro_feature_cache_total", outcome="corrupt") == before + 1
    assert any("corrupt feature cache" in r.message for r in caplog.records)
    assert os.path.getsize(path) > 0
    before_hit = _counter_value("repro_feature_cache_total", outcome="hit")
    encoded_features("999.specrand", 200, seed=7, cache_dir=cache_dir)
    assert _counter_value(
        "repro_feature_cache_total", outcome="hit") == before_hit + 1


def test_queue_lease_reap_counted(tmp_path):
    queue = WorkQueue(str(tmp_path / "queue"), lease_ttl_s=0.01)
    queue.ensure()
    queue.enqueue({"key": "t1", "stage": {"name": "s", "kind": "analysis"}})
    claim = queue.claim("w1")
    assert claim is not None
    import time

    time.sleep(0.05)  # let the lease expire
    before = _counter_value("repro_queue_leases_reaped_total")
    assert queue.reap_stale() == 1
    assert _counter_value("repro_queue_leases_reaped_total") == before + 1
