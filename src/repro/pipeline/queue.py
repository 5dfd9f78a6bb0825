"""Filesystem work queue: claim files, leases, and stealing.

The distributed executor backend coordinates over nothing but a shared
directory — ``<cache>/queue/`` — so any process that can see the cache
root (same host, or a shared filesystem across hosts) can serve as a
worker via ``repro pipeline worker``.  No sockets, no broker:

``tasks/<key>.json``
    One ready-to-run stage (its spec fragment, scale, upstream artifact
    keys).  Published by the coordinator once every upstream key has
    been published to the :class:`StageArtifactStore`; removed by
    whichever worker completes it.

``leases/<key>.json``
    An exclusive claim.  Creation is ``O_CREAT | O_EXCL`` so exactly one
    claimer wins; the owner heartbeats by touching the file's mtime.  A
    lease whose mtime is older than the TTL belongs to a dead or wedged
    worker and may be **stolen**: the thief publishes its own lease over
    it and re-reads to confirm it won.  A doomed
    double-execution window exists by design (two thieves can both pass
    the confirm read) — correctness is preserved because publication to
    the artifact store is atomic and first-writer-wins, so the loser's
    work is discarded, never interleaved.

``failed/<key>.json``
    A worker-side traceback.  The coordinator converts the first one
    into a :class:`~repro.pipeline.runner.StageFailure` after persisting
    everything else that completed.

``stats/<worker>.json``
    Per-worker lifetime counters (claimed/executed/stolen/...), published
    after every task so the coordinator can report per-worker throughput
    and steal counts.

``stop``
    Shutdown sentinel.  The coordinator writes it when the run finishes
    (or fails); workers exit when they see it, which is how remote
    ``repro pipeline worker`` processes learn the sweep is over.

Every file but a fresh lease is published and read through
:mod:`repro.cache`; a corrupt one reads as absent (the caller retries)
and is counted.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
import uuid
from dataclasses import dataclass

from repro.cache import publish, queue_dir, read_json, reap_tmp
from repro.obs.metrics import REGISTRY

log = logging.getLogger(__name__)

_TASKS = "tasks"
_LEASES = "leases"
_FAILED = "failed"
_STATS = "stats"
_STOP = "stop"

#: Default seconds of missed heartbeats before a lease is stealable.
DEFAULT_LEASE_TTL_S = 30.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _publish(path: str, data: dict) -> None:
    text = json.dumps(data, default=str)
    publish(path, lambda fh: fh.write(text.encode()))


def _read(path: str) -> dict | None:
    """A whole JSON object, or ``None`` for missing/corrupt (= retry).

    A corrupt file (a flipped bit, a torn copy) is counted rather than
    silently folded into "missing": a retry still recovers, but the
    corruption is visible.
    """
    data, outcome = read_json(path)
    if outcome == "corrupt":
        REGISTRY.counter(
            "repro_queue_corrupt_total",
            "Queue files present but unparseable.",
        ).inc()
        log.warning("corrupt queue file %s: skipped", path)
    return data


@dataclass
class Claim:
    """One successfully claimed task: the work plus our lease token."""

    task: dict
    token: str
    stolen: bool

    @property
    def key(self) -> str:
        return self.task["key"]


class WorkQueue:
    """The shared-directory protocol both coordinator and workers speak."""

    def __init__(self, root: str | None = None,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S):
        self.root = root or queue_dir()
        self.lease_ttl_s = lease_ttl_s

    # -- paths -------------------------------------------------------------
    def _dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def task_path(self, key: str) -> str:
        return os.path.join(self._dir(_TASKS), f"{key}.json")

    def lease_path(self, key: str) -> str:
        return os.path.join(self._dir(_LEASES), f"{key}.json")

    def ensure(self) -> None:
        for name in (_TASKS, _LEASES, _FAILED, _STATS):
            os.makedirs(self._dir(name), exist_ok=True)

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    def _keys(self, dirname: str) -> list[str]:
        try:
            names = os.listdir(self._dir(dirname))
        except OSError:
            return []
        return sorted(n[:-5] for n in names if n.endswith(".json"))

    # -- enqueue / claim / complete ---------------------------------------
    def enqueue(self, task: dict) -> bool:
        """Publish one ready task; no-op if it is already enqueued."""
        self.ensure()
        path = self.task_path(task["key"])
        if os.path.exists(path):
            return False
        _publish(path, task)
        return True

    def task_keys(self) -> list[str]:
        return self._keys(_TASKS)

    def _lease_age(self, key: str) -> float | None:
        """Seconds since the lease's last heartbeat, or ``None`` if unleased."""
        try:
            return time.time() - os.stat(self.lease_path(key)).st_mtime
        except OSError:
            return None

    def claim(self, worker_id: str) -> Claim | None:
        """Claim one task: unleased first, then stale leases (stealing).

        The scan order is rotated by a per-worker offset so concurrent
        workers don't all fight over the lexicographically first task.
        """
        keys = self.task_keys()
        if not keys:
            return None
        offset = hash(worker_id) % len(keys)
        for key in keys[offset:] + keys[:offset]:
            age = self._lease_age(key)
            if age is not None and age <= self.lease_ttl_s:
                continue  # live owner
            claim = self._try_claim(key, worker_id, steal=age is not None)
            if claim is not None:
                return claim
        return None

    def _try_claim(self, key: str, worker_id: str, steal: bool) -> Claim | None:
        self.ensure()
        lease_path = self.lease_path(key)
        token = uuid.uuid4().hex
        lease = {
            "worker": worker_id,
            "token": token,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "claimed_at": time.time(),
            "stolen": steal,
        }
        if not steal:
            try:
                fd = os.open(lease_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return None  # another claimer beat us
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(lease, fh)
        else:
            # Steal: atomically replace the stale lease, then confirm we
            # are the one the file now names (two thieves can race; the
            # replace is atomic so exactly one token survives).
            _publish(lease_path, lease)
            current = _read(lease_path)
            if current is None or current.get("token") != token:
                return None
        task = _read(self.task_path(key))
        if task is None:
            # completed (or corrupt) between scan and claim: release
            self._unlink(lease_path)
            return None
        REGISTRY.counter(
            "repro_queue_claims_total",
            "Successful task claims by kind.",
            kind="steal" if steal else "fresh",
        ).inc()
        return Claim(task=task, token=token, stolen=steal)

    def heartbeat(self, claim: Claim) -> None:
        """Refresh the lease so it is not mistaken for a dead worker's."""
        try:
            os.utime(self.lease_path(claim.key))
        except OSError:
            pass  # lease stolen or completed elsewhere; publish decides

    def complete(self, claim: Claim) -> None:
        """Retire a finished task: its result lives in the artifact store."""
        self.discard(claim.key)

    def discard(self, key: str) -> None:
        """Drop a task's queue files (done, or cached before enqueue)."""
        self._unlink(self.task_path(key))
        self._unlink(self.lease_path(key))

    def fail(self, claim: Claim, error: str) -> None:
        """Record a worker-side stage failure for the coordinator."""
        stage = claim.task.get("stage", {})
        _publish(
            os.path.join(self._dir(_FAILED), f"{claim.key}.json"),
            {
                "key": claim.key,
                "stage": stage.get("name", "?"),
                "spec": claim.task.get("spec", "?"),
                "error": error,
            },
        )
        self.discard(claim.key)

    def first_failure(self) -> dict | None:
        for key in self._keys(_FAILED):
            failure = _read(os.path.join(self._dir(_FAILED), f"{key}.json"))
            if failure is not None:
                return failure
        return None

    def clear_failures(self) -> None:
        for key in self._keys(_FAILED):
            self._unlink(os.path.join(self._dir(_FAILED), f"{key}.json"))

    # -- lease hygiene -----------------------------------------------------
    def reap_stale(self) -> int:
        """Drop expired leases so their tasks become claimable again.

        Workers steal stale leases on their own; the coordinator calls
        this as a backstop so a task whose claimer died is re-issued
        even when every surviving worker is busy at scan time.  Orphan
        leases whose task already completed are dropped too.
        """
        reaped = 0
        for key in self._keys(_LEASES):
            age = self._lease_age(key)
            has_task = os.path.exists(self.task_path(key))
            if age is not None and (age > self.lease_ttl_s or not has_task):
                if self._unlink(self.lease_path(key)):
                    reaped += 1
        if reaped:
            REGISTRY.counter(
                "repro_queue_leases_reaped_total",
                "Expired or orphaned leases dropped by the coordinator.",
            ).inc(reaped)
        return reaped

    def reap_tmp(self) -> int:
        """Delete stale ``.tmp`` files from killed writers; returns how many."""
        return sum(
            reap_tmp(self._dir(name))
            for name in (_TASKS, _LEASES, _FAILED, _STATS)
        )

    # -- depth / stats / shutdown -----------------------------------------
    def depth(self) -> dict:
        """Queue composition right now: ready vs leased task counts."""
        ready = leased = 0
        for key in self.task_keys():
            age = self._lease_age(key)
            if age is not None and age <= self.lease_ttl_s:
                leased += 1
            else:
                ready += 1
        return {"ready": ready, "leased": leased}

    def write_stats(self, worker_id: str, stats: dict) -> None:
        _publish(
            os.path.join(self._dir(_STATS), f"{worker_id}.json"), stats
        )

    def read_stats(self) -> dict[str, dict]:
        """Every worker's latest counters, keyed by worker id."""
        out: dict[str, dict] = {}
        for worker_id in self._keys(_STATS):
            stats = _read(os.path.join(self._dir(_STATS), f"{worker_id}.json"))
            if stats is not None:
                out[worker_id] = stats
        return out

    def stop(self) -> None:
        """Raise the shutdown sentinel (idempotent)."""
        stamp = str(time.time()).encode()
        publish(os.path.join(self.root, _STOP), lambda fh: fh.write(stamp))

    def clear_stop(self) -> None:
        self._unlink(os.path.join(self.root, _STOP))

    def stopped(self) -> bool:
        return os.path.exists(os.path.join(self.root, _STOP))
