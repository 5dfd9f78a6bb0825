"""Filesystem work-queue protocol: claims, leases, stealing, hygiene."""

import json
import os
import time

import pytest

from repro.pipeline.queue import Claim, WorkQueue, default_worker_id


def _task(key: str, **extra) -> dict:
    return {
        "key": key,
        "stage": {"name": f"stage-{key}", "kind": "analysis",
                  "needs": [], "params": {}},
        "spec": "spec", "scale": "smoke", "upstream": {}, "jobs": 1,
        "force": False, **extra,
    }


@pytest.fixture
def queue(tmp_path):
    q = WorkQueue(str(tmp_path / "queue"), lease_ttl_s=30.0)
    q.ensure()
    return q


def _age_lease(queue: WorkQueue, key: str, seconds: float) -> None:
    """Backdate a lease's heartbeat (simulates a dead worker)."""
    past = time.time() - seconds
    os.utime(queue.lease_path(key), (past, past))


def test_enqueue_is_idempotent(queue):
    assert queue.enqueue(_task("aaaa")) is True
    assert queue.enqueue(_task("aaaa")) is False
    assert queue.task_keys() == ["aaaa"]


def test_claim_is_exclusive_while_lease_is_fresh(queue):
    queue.enqueue(_task("aaaa"))
    claim = queue.claim("w1")
    assert claim is not None and claim.key == "aaaa"
    assert claim.stolen is False
    # the lease is fresh, so a second worker finds nothing claimable
    assert queue.claim("w2") is None


def test_stale_lease_is_stolen_with_new_token(queue):
    queue.enqueue(_task("aaaa"))
    first = queue.claim("w1")
    _age_lease(queue, "aaaa", 3600.0)
    stolen = queue.claim("w2")
    assert stolen is not None and stolen.stolen is True
    assert stolen.token != first.token
    with open(queue.lease_path("aaaa")) as fh:
        assert json.load(fh)["worker"] == "w2"


def test_heartbeat_prevents_stealing(queue):
    queue.enqueue(_task("aaaa"))
    claim = queue.claim("w1")
    _age_lease(queue, "aaaa", 3600.0)
    queue.heartbeat(claim)  # owner touches the lease back to life
    assert queue.claim("w2") is None


def test_complete_retires_task_and_lease(queue):
    queue.enqueue(_task("aaaa"))
    claim = queue.claim("w1")
    queue.complete(claim)
    assert queue.task_keys() == []
    assert not os.path.exists(queue.lease_path("aaaa"))
    assert queue.depth() == {"ready": 0, "leased": 0}


def test_claim_skips_task_completed_between_scan_and_lease(queue):
    queue.enqueue(_task("aaaa"))
    os.remove(queue.task_path("aaaa"))  # raced completion
    assert queue.claim("w1") is None
    assert not os.path.exists(queue.lease_path("aaaa"))  # lease released


def test_depth_distinguishes_ready_from_leased(queue):
    for key in ("aaaa", "bbbb", "cccc"):
        queue.enqueue(_task(key))
    queue.claim("w1")
    assert queue.depth() == {"ready": 2, "leased": 1}


def test_two_workers_drain_disjoint_tasks(queue):
    for key in ("aaaa", "bbbb"):
        queue.enqueue(_task(key))
    c1 = queue.claim("w1")
    c2 = queue.claim("w2")
    assert c1 is not None and c2 is not None
    assert {c1.key, c2.key} == {"aaaa", "bbbb"}


def test_fail_records_traceback_for_coordinator(queue):
    queue.enqueue(_task("aaaa"))
    claim = queue.claim("w1")
    queue.fail(claim, "Traceback: boom")
    assert queue.task_keys() == []
    failure = queue.first_failure()
    assert failure["key"] == "aaaa"
    assert failure["stage"] == "stage-aaaa"
    assert "boom" in failure["error"]
    queue.clear_failures()
    assert queue.first_failure() is None


def test_reap_stale_reissues_dead_workers_tasks(queue):
    queue.enqueue(_task("aaaa"))
    queue.claim("w1")
    _age_lease(queue, "aaaa", 3600.0)
    assert queue.reap_stale() == 1
    # task is claimable again, as a plain (non-stolen) claim
    claim = queue.claim("w2")
    assert claim is not None and claim.stolen is False


def test_reap_stale_drops_orphan_leases(queue):
    queue.enqueue(_task("aaaa"))
    claim = queue.claim("w1")
    os.remove(queue.task_path("aaaa"))  # completed elsewhere, lease left
    assert queue.reap_stale() == 1
    assert not os.path.exists(queue.lease_path(claim.key))


def test_reap_stale_leaves_fresh_leases(queue):
    queue.enqueue(_task("aaaa"))
    queue.claim("w1")
    assert queue.reap_stale() == 0


def test_reap_tmp_clears_old_orphans_only(queue, tmp_path):
    old = os.path.join(queue.root, "tasks", "dead.json.123.tmp")
    fresh = os.path.join(queue.root, "tasks", "live.json.456.tmp")
    for path in (old, fresh):
        with open(path, "w") as fh:
            fh.write("{")
    past = time.time() - 7200
    os.utime(old, (past, past))
    assert queue.reap_tmp() == 1
    assert not os.path.exists(old)
    assert os.path.exists(fresh)


def test_stop_sentinel_round_trip(queue):
    assert queue.stopped() is False
    queue.stop()
    assert queue.stopped() is True
    queue.stop()  # idempotent
    queue.clear_stop()
    assert queue.stopped() is False


def test_worker_stats_round_trip(queue):
    queue.write_stats("w1", {"worker": "w1", "executed": 3})
    queue.write_stats("w2", {"worker": "w2", "executed": 5})
    stats = queue.read_stats()
    assert stats["w1"]["executed"] == 3
    assert stats["w2"]["executed"] == 5


def test_corrupt_task_file_is_not_claimable(queue):
    queue.enqueue(_task("aaaa"))
    with open(queue.task_path("aaaa"), "w") as fh:
        fh.write("{ not json")
    assert queue.claim("w1") is None


def test_claim_key_property():
    claim = Claim(task=_task("abcd"), token="t", stolen=False)
    assert claim.key == "abcd"


def test_default_worker_id_names_host_and_pid():
    worker_id = default_worker_id()
    assert str(os.getpid()) in worker_id
