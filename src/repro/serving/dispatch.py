"""Front-end request dispatcher: shard, bound, hedge, fail over.

The :class:`Dispatcher` is the traffic-control half of the prediction
cluster (:mod:`repro.serving.cluster` owns the processes).  It is
transport-agnostic: workers appear as :class:`WorkerLink` objects that
can ship request batches and control messages somewhere, and whatever
owns the transport feeds replies back through :meth:`Dispatcher.complete`
/ :meth:`Dispatcher.fail` / :meth:`Dispatcher.worker_lost`.  That makes
every policy below unit-testable with in-process fake workers — no
subprocesses required.

Policies (one :class:`DispatchPolicy`):

* **bounded queues** — each worker has a lane bounded at
  ``queue_depth`` outstanding requests.  A request that finds every
  candidate lane full is rejected *immediately* with :class:`QueueFull`
  (a 503, not a hang); a request that waits past ``queue_timeout_s``
  without an answer — queued or in flight — is failed with
  :class:`RequestTimeout`.  Backpressure therefore costs bounded memory
  and bounded client latency, never an unbounded queue.
* **per-model routing** — requests are routed by model key (family,
  artifact) with rendezvous hashing over the alive workers, restricted
  to ``replicas`` candidates per key, least-loaded first.  One model's
  traffic concentrates on a few workers, so worker-side model LRUs stay
  hot instead of thrashing.
* **LRU admission** — at most ``admission`` distinct model keys are
  admitted concurrently; a key beyond that evicts the least-recently
  used *idle* key or is rejected with :class:`QueueFull`, protecting
  workers from model-cache thrash under adversarial key mixes.
* **hedging** — when ``hedge_after_s`` is set, a request still
  unanswered after that long is duplicated onto the next-best worker;
  the first reply wins and the loser is discarded.  Tail latency then
  tracks the *fastest* of two workers instead of a straggler.
* **fail-over** — when a worker dies (transport EOF), every request
  queued on or in flight to it is transparently re-dispatched to a
  surviving worker; requests are lost only when no workers remain.

The lane sender threads micro-batch: up to ``max_batch`` queued
requests ship as one message, and a new batch is sent only when the
previous one has drained, so a slow worker holds at most one batch in
flight while the bounded lane absorbs (or rejects) the backlog.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.obs.metrics import REGISTRY, SIZE_BUCKETS


class ServingUnavailable(RuntimeError):
    """The cluster cannot answer right now — retry later (HTTP 503)."""

    #: Hint for the HTTP frontend's ``Retry-After`` header.
    retry_after_s: float = 1.0


class QueueFull(ServingUnavailable):
    """Every candidate worker lane is at its bound (or admission is)."""


class RequestTimeout(ServingUnavailable):
    """The request aged past ``queue_timeout_s`` without an answer."""


class NoWorkersAvailable(ServingUnavailable):
    """No alive workers (all crashed, or the cluster is stopping)."""


class WorkerError(RuntimeError):
    """An error raised *inside* a worker process, reconstructed at the
    frontend with the HTTP ``status`` the worker mapped it to."""

    def __init__(self, message: str, status: int = 500):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class DispatchPolicy:
    """Tuning knobs for the dispatcher (defaults favour correctness)."""

    #: Max outstanding (queued + in-flight) requests per worker lane.
    queue_depth: int = 64
    #: A request unanswered for this long fails with RequestTimeout.
    queue_timeout_s: float = 30.0
    #: Duplicate a request to a second worker after this long (None: off).
    hedge_after_s: float | None = None
    #: Workers eligible per model key (rendezvous top-k).
    replicas: int = 2
    #: Requests shipped to a worker as one message.
    max_batch: int = 16
    #: Distinct model keys admitted concurrently (LRU beyond that).
    admission: int = 8
    #: Watchdog scan interval (timeouts + hedging resolution).
    watchdog_interval_s: float = 0.005


class WorkerLink:
    """Transport protocol a worker must offer the dispatcher.

    Implementations ship messages to the worker; replies come back
    through whatever reader the owner runs — or, for an in-process
    worker, from inside the send call itself — which must call
    :meth:`Dispatcher.complete` / :meth:`Dispatcher.fail` /
    :meth:`Dispatcher.control_reply` / :meth:`Dispatcher.worker_lost`.
    Send methods are only ever called from the worker's single lane
    sender thread, so they need no locking of their own.  A raised
    ``OSError``/``EOFError`` marks the worker lost.
    """

    def send_requests(self, items: list) -> None:  # [(rid, payload), ...]
        raise NotImplementedError

    def send_control(self, cid: int, payload: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - transport-specific
        pass


class _Entry:
    """One submitted request and its resolution state."""

    __slots__ = (
        "payload", "key", "future", "deadline", "rids", "sent_at",
        "hedged", "resolved", "created_at",
    )

    def __init__(self, payload, key, deadline):
        self.payload = payload
        self.key = key
        self.future: Future = Future()
        self.deadline = deadline
        self.rids: list[int] = []
        self.sent_at: float | None = None
        self.hedged = False
        self.resolved = False
        self.created_at = time.monotonic()


class _Lane:
    """One worker's bounded outbound queue plus its sender thread."""

    def __init__(self, worker_id: int, link: WorkerLink, dispatcher):
        self.worker_id = worker_id
        self.link = link
        self.dispatcher = dispatcher
        self.queue: deque = deque()  # (rid, _Entry)
        self.control: deque = deque()  # (cid, payload)
        self.inflight: set[int] = set()
        self.alive = True
        self.cond = threading.Condition()
        self.sender = threading.Thread(
            target=self._send_loop, name=f"repro-lane-{worker_id}",
            daemon=True,
        )
        self.sender.start()

    # load = everything this lane is responsible for right now
    def load(self) -> int:
        return len(self.queue) + len(self.inflight)

    def kill(self) -> None:
        with self.cond:
            self.alive = False
            self.cond.notify_all()

    def mark_done(self, rid: int) -> None:
        with self.cond:
            self.inflight.discard(rid)
            self.cond.notify_all()

    def _send_loop(self) -> None:
        while True:
            ctl = None
            batch: list[tuple[int, _Entry]] = []
            with self.cond:
                while self.alive:
                    if self.control:
                        ctl = self.control.popleft()
                        break
                    if self.queue and not self.inflight:
                        limit = self.dispatcher.policy.max_batch
                        while self.queue and len(batch) < limit:
                            batch.append(self.queue.popleft())
                        break
                    self.cond.wait(timeout=0.05)
                if not self.alive:
                    return
            try:
                if ctl is not None:
                    self.link.send_control(*ctl)
                    continue
                self._send_batch(batch)
            except (OSError, EOFError, BrokenPipeError):
                self.dispatcher.worker_lost(self.worker_id)
                return

    def _send_batch(self, batch: list[tuple[int, _Entry]]) -> None:
        now = time.monotonic()
        items = []
        live: list[tuple[int, _Entry]] = []
        for rid, entry in batch:
            if entry.resolved:
                self.dispatcher._drop_rid(rid)
                continue
            if now > entry.deadline:
                self.dispatcher._timeout_entry(entry)
                self.dispatcher._drop_rid(rid)
                continue
            items.append((rid, entry.payload))
            live.append((rid, entry))
        if not items:
            return
        with self.cond:
            for rid, _ in live:
                self.inflight.add(rid)
        for _, entry in live:
            if entry.sent_at is None:
                entry.sent_at = now
        self.dispatcher._batch_size.observe(len(items))
        self.link.send_requests(items)


class Dispatcher:
    """Shard requests across worker lanes under one
    :class:`DispatchPolicy` (see the module docstring for the policies).
    """

    def __init__(
        self,
        policy: DispatchPolicy | None = None,
        on_worker_lost: Callable[[int], None] | None = None,
    ):
        self.policy = policy or DispatchPolicy()
        self.on_worker_lost = on_worker_lost
        self._lock = threading.RLock()
        self._lanes: dict[int, _Lane] = {}
        self._pending: dict[int, _Entry] = {}  # rid -> entry
        self._controls: dict[int, Future] = {}  # cid -> future
        self._rid_lane: dict[int, int] = {}  # rid -> worker id
        self._next_id = 0
        self._next_worker = 0
        self._admitted: dict = {}  # model key -> outstanding count (LRU order)
        self._closing = False
        # every lifecycle event bumps one of these; a timed-out request
        # counts as failed and as timed_out
        self._events = {
            kind: REGISTRY.counter(
                "repro_dispatch_events_total",
                "Dispatcher request lifecycle events by kind.",
                kind=kind,
            )
            for kind in ("submitted", "completed", "failed", "rejected",
                         "timed_out", "hedged", "failovers")
        }
        self._latency = REGISTRY.histogram(
            "repro_dispatch_latency_seconds",
            "Request latency from submission to resolution.",
        )
        self._batch_size = REGISTRY.histogram(
            "repro_dispatch_batch_size",
            "Requests shipped to a worker per lane batch.",
            buckets=SIZE_BUCKETS,
        )
        self._pending_gauge = REGISTRY.gauge(
            "repro_dispatch_pending",
            "Requests queued or in flight right now.",
        )
        self._watchdog = threading.Thread(
            target=self._watch_loop, name="repro-dispatch-watchdog",
            daemon=True,
        )
        self._watchdog.start()

    # -- worker membership ------------------------------------------------
    def add_worker(self, link: WorkerLink, worker_id: int | None = None) -> int:
        with self._lock:
            if worker_id is None:
                worker_id = self._next_worker
            self._next_worker = max(self._next_worker, worker_id + 1)
            self._lanes[worker_id] = _Lane(worker_id, link, self)
            return worker_id

    def alive_workers(self) -> list[int]:
        with self._lock:
            return sorted(
                wid for wid, lane in self._lanes.items() if lane.alive
            )

    # -- submission -------------------------------------------------------
    def submit(self, payload, key=None) -> Future:
        """Dispatch one request payload; returns its future.

        ``key`` is the model-routing key (hashable); requests sharing a
        key concentrate on the same ``replicas`` workers.
        """
        now = time.monotonic()
        with self._lock:
            if self._closing:
                raise NoWorkersAvailable("dispatcher is shutting down")
            lanes = [lane for lane in self._lanes.values() if lane.alive]
            if not lanes:
                self._events["rejected"].inc()
                raise NoWorkersAvailable("no alive workers")
            self._admit(key)
            entry = _Entry(payload, key, now + self.policy.queue_timeout_s)
            lane = self._pick_lane(key, lanes)
            if lane is None:
                self._unadmit(key)
                self._events["rejected"].inc()
                raise QueueFull(
                    f"every candidate worker is at queue depth "
                    f"{self.policy.queue_depth}; retry later"
                )
            self._events["submitted"].inc()
            self._enqueue(lane, entry)
        return entry.future

    def control(self, worker_id: int, payload: dict) -> Future:
        """Ship a control message to one worker; resolves with its reply.

        Control messages ride the worker's lane (so they serialize with
        request sends) but bypass the queue bound and never time out —
        they are the hot-swap/health channel, not client traffic.
        """
        with self._lock:
            lane = self._lanes.get(worker_id)
            if lane is None or not lane.alive:
                raise NoWorkersAvailable(f"worker {worker_id} is not alive")
            cid = self._new_id()
            future: Future = Future()
            self._controls[cid] = future
        with lane.cond:
            lane.control.append((cid, payload))
            lane.cond.notify_all()
        return future

    # -- transport callbacks ---------------------------------------------
    def complete(self, rid: int, result) -> None:
        """A worker answered request ``rid``."""
        self._finish_rid(rid, result=result)

    def fail(self, rid: int, exc: Exception) -> None:
        """A worker failed request ``rid``."""
        self._finish_rid(rid, exc=exc)

    def control_reply(self, cid: int, ok: bool, payload) -> None:
        with self._lock:
            future = self._controls.pop(cid, None)
        if future is None:
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(WorkerError(str(payload)))

    def worker_lost(self, worker_id: int) -> None:
        """Transport EOF: fail over everything assigned to the worker."""
        with self._lock:
            lane = self._lanes.get(worker_id)
            if lane is None or not lane.alive:
                return
            lane.kill()
            orphans: list[_Entry] = []
            for rid, entry in list(lane.queue):
                self._rid_lane.pop(rid, None)
                self._pending.pop(rid, None)
                if not entry.resolved:
                    orphans.append(entry)
            lane.queue.clear()
            for rid in list(lane.inflight):
                wid = self._rid_lane.pop(rid, None)
                entry = self._pending.pop(rid, None)
                if wid is not None and entry is not None and not entry.resolved:
                    orphans.append(entry)
            lane.inflight.clear()
            for cid, _payload in list(lane.control):
                future = self._controls.pop(cid, None)
                if future is not None:
                    future.set_exception(
                        NoWorkersAvailable(f"worker {worker_id} died")
                    )
            lane.control.clear()
            survivors = [
                ln for ln in self._lanes.values()
                if ln.alive and ln.worker_id != worker_id
            ]
            for entry in orphans:
                # hedged twins may still be alive on another lane
                if any(rid in self._pending for rid in entry.rids):
                    continue
                if not survivors:
                    self._resolve(
                        entry,
                        exc=NoWorkersAvailable(
                            "last worker died with requests in flight"
                        ),
                    )
                    continue
                target = min(survivors, key=_Lane.load)
                self._events["failovers"].inc()
                self._enqueue(target, entry)
        if self.on_worker_lost is not None:
            self.on_worker_lost(worker_id)

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        """Live state: each lane's liveness and load, and the admitted
        model keys.  Event counts live in the registry
        (``repro_dispatch_events_total``, ``repro_dispatch_pending``)."""
        with self._lock:
            workers = {
                str(wid): {
                    "alive": lane.alive,
                    "queued": len(lane.queue),
                    "inflight": len(lane.inflight),
                }
                for wid, lane in sorted(self._lanes.items())
            }
            return {"admitted_models": len(self._admitted), "workers": workers}

    def close(self) -> None:
        """Stop lanes and fail everything still pending (503)."""
        with self._lock:
            self._closing = True
            entries = {
                id(entry): entry for entry in self._pending.values()
            }
            self._pending.clear()
            self._rid_lane.clear()
            for lane in self._lanes.values():
                for _rid, entry in lane.queue:
                    entries.setdefault(id(entry), entry)
                lane.kill()
            controls = list(self._controls.values())
            self._controls.clear()
        for entry in entries.values():
            self._resolve(
                entry, exc=NoWorkersAvailable("dispatcher closed")
            )
        for future in controls:
            if not future.done():
                future.set_exception(NoWorkersAvailable("dispatcher closed"))

    # -- internals --------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _admit(self, key) -> None:
        """Per-model LRU admission (see the module docstring)."""
        if key is None:
            return
        admitted = self._admitted
        if key in admitted:
            admitted[key] = admitted.pop(key) + 1  # refresh LRU position
            return
        if len(admitted) >= self.policy.admission:
            for stale, outstanding in list(admitted.items()):
                if outstanding == 0:
                    del admitted[stale]
                    break
            else:
                self._events["rejected"].inc()
                raise QueueFull(
                    f"model admission is full "
                    f"({self.policy.admission} active models); retry later"
                )
        admitted[key] = 1

    def _unadmit(self, key) -> None:
        if key is not None and key in self._admitted:
            self._admitted[key] = max(0, self._admitted[key] - 1)

    def _pick_lane(self, key, lanes: list[_Lane]) -> _Lane | None:
        candidates = self._candidates(key, lanes)
        open_lanes = [
            lane for lane in candidates
            if lane.load() < self.policy.queue_depth
        ]
        if not open_lanes:
            return None
        return min(open_lanes, key=_Lane.load)

    def _candidates(self, key, lanes: Iterable[_Lane]) -> list[_Lane]:
        """Rendezvous top-``replicas`` lanes for a model key."""
        def score(lane: _Lane) -> int:
            return zlib.crc32(f"{key}|{lane.worker_id}".encode())

        ranked = sorted(lanes, key=score)
        return ranked[: max(1, self.policy.replicas)]

    def _enqueue(self, lane: _Lane, entry: _Entry) -> None:
        """Register a rid for ``entry`` on ``lane`` (caller holds lock)."""
        rid = self._new_id()
        entry.rids.append(rid)
        self._pending[rid] = entry
        self._rid_lane[rid] = lane.worker_id
        self._pending_gauge.set(len(self._pending))
        with lane.cond:
            lane.queue.append((rid, entry))
            lane.cond.notify_all()

    def _drop_rid(self, rid: int) -> None:
        with self._lock:
            self._pending.pop(rid, None)
            self._rid_lane.pop(rid, None)

    def _finish_rid(self, rid: int, result=None, exc=None) -> None:
        with self._lock:
            entry = self._pending.pop(rid, None)
            wid = self._rid_lane.pop(rid, None)
            lane = self._lanes.get(wid) if wid is not None else None
        if lane is not None:
            lane.mark_done(rid)
        if entry is None:
            return  # late reply for a timed-out/hedge-resolved request
        self._resolve(entry, result=result, exc=exc)

    def _timeout_entry(self, entry: _Entry) -> None:
        self._resolve(
            entry,
            exc=RequestTimeout(
                f"request unanswered after "
                f"{self.policy.queue_timeout_s:.3g}s (queue timeout)"
            ),
        )

    def _resolve(self, entry: _Entry, result=None, exc=None) -> None:
        with self._lock:
            if entry.resolved:
                return
            entry.resolved = True
            for rid in entry.rids:
                self._pending.pop(rid, None)
                wid = self._rid_lane.pop(rid, None)
                lane = self._lanes.get(wid) if wid is not None else None
                if lane is not None:
                    lane.mark_done(rid)
            self._unadmit(entry.key)
            self._pending_gauge.set(len(self._pending))
            if exc is None:
                self._events["completed"].inc()
            else:
                self._events["failed"].inc()
                if isinstance(exc, RequestTimeout):
                    # counted once resolved: a reply that wins the race
                    # to the deadline is not a timeout
                    self._events["timed_out"].inc()
            self._latency.observe(time.monotonic() - entry.created_at)
        if exc is None:
            entry.future.set_result(result)
        else:
            entry.future.set_exception(exc)

    def _watch_loop(self) -> None:
        while True:
            time.sleep(self.policy.watchdog_interval_s)
            with self._lock:
                if self._closing:
                    return
                entries = {
                    id(entry): entry for entry in self._pending.values()
                }
            now = time.monotonic()
            for entry in entries.values():
                if entry.resolved:
                    continue
                if now > entry.deadline:
                    self._timeout_entry(entry)
                    continue
                self._maybe_hedge(entry, now)

    def _maybe_hedge(self, entry: _Entry, now: float) -> None:
        hedge_after = self.policy.hedge_after_s
        if (
            hedge_after is None or entry.hedged
            or entry.sent_at is None or now - entry.sent_at < hedge_after
        ):
            return
        with self._lock:
            if entry.resolved or entry.hedged:
                return
            used = {self._rid_lane.get(rid) for rid in entry.rids}
            lanes = [
                lane for lane in self._lanes.values()
                if lane.alive and lane.worker_id not in used
            ]
            if not lanes:
                return
            candidates = [
                lane for lane in self._candidates(entry.key, lanes)
                if lane.load() < self.policy.queue_depth
            ] or [min(lanes, key=_Lane.load)]
            entry.hedged = True
            self._events["hedged"].inc()
            self._enqueue(candidates[0], entry)


__all__ = [
    "DispatchPolicy",
    "Dispatcher",
    "NoWorkersAvailable",
    "QueueFull",
    "RequestTimeout",
    "ServingUnavailable",
    "WorkerError",
    "WorkerLink",
]
