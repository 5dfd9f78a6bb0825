"""Dispatcher fault injection: saturation, timeout, hedging, fail-over.

These tests drive :class:`repro.serving.dispatch.Dispatcher` with fake
in-process workers (no subprocesses), so every failure mode is forced
deterministically: a black-hole worker that swallows requests, a manual
worker completed by the test, a dead transport.  The invariant under
test everywhere: overload and crashes produce *clean, prompt errors or
transparent recovery* — never a hang, never a lost request.
"""

import time

import pytest

from repro.obs.metrics import REGISTRY
from repro.serving.dispatch import (
    Dispatcher,
    DispatchPolicy,
    NoWorkersAvailable,
    QueueFull,
    RequestTimeout,
    ServingUnavailable,
    WorkerLink,
)


class ManualLink(WorkerLink):
    """Records every send; the test completes requests explicitly."""

    def __init__(self):
        self.sent = []  # (rid, payload) in send order
        self.controls = []  # (cid, payload)

    def send_requests(self, items):
        self.sent.extend(items)

    def send_control(self, cid, payload):
        self.controls.append((cid, payload))


class DeadLink(WorkerLink):
    """A transport whose sends fail — the worker is already gone."""

    def send_requests(self, items):
        raise BrokenPipeError("worker is gone")

    def send_control(self, cid, payload):
        raise BrokenPipeError("worker is gone")


KINDS = ("submitted", "completed", "failed", "rejected", "timed_out",
         "hedged", "failovers")


def event_counts() -> dict:
    """``repro_dispatch_events_total`` by kind; the registry is
    process-wide, so tests compare counts before and after."""
    return {
        kind: REGISTRY.counter("repro_dispatch_events_total", kind=kind).value
        for kind in KINDS
    }


def events_since(before: dict) -> dict:
    """The kinds whose count moved since ``before``, with the change."""
    now = event_counts()
    return {kind: now[kind] - before[kind] for kind in KINDS
            if now[kind] != before[kind]}


def wait_until(predicate, timeout_s: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


@pytest.fixture()
def fast_policy():
    return DispatchPolicy(
        queue_depth=64, queue_timeout_s=0.25, watchdog_interval_s=0.002
    )


def make_dispatcher(policy, links):
    dispatcher = Dispatcher(policy)
    ids = [dispatcher.add_worker(link) for link in links]
    return dispatcher, ids


def test_no_workers_is_clean_rejection():
    dispatcher = Dispatcher(DispatchPolicy())
    before = event_counts()
    try:
        with pytest.raises(NoWorkersAvailable):
            dispatcher.submit({"x": 1}, key="m")
        assert events_since(before) == {"rejected": 1}
    finally:
        dispatcher.close()


def test_saturated_queue_rejects_immediately_never_hangs(fast_policy):
    # one black-hole worker, depth 3: the 4th submit must be rejected
    # synchronously (503 semantics), not queued forever
    policy = DispatchPolicy(
        queue_depth=3, queue_timeout_s=60.0, replicas=1,
        watchdog_interval_s=0.002,
    )
    dispatcher, _ = make_dispatcher(policy, [ManualLink()])
    before = event_counts()
    try:
        futures = [dispatcher.submit({"i": i}, key="m") for i in range(3)]
        start = time.monotonic()
        with pytest.raises(QueueFull):
            dispatcher.submit({"i": 3}, key="m")
        assert time.monotonic() - start < 1.0  # rejected, not stalled
        assert isinstance(QueueFull("x"), ServingUnavailable)  # 503 family
        assert events_since(before) == {"submitted": 3, "rejected": 1}
        assert not any(f.done() for f in futures)
    finally:
        dispatcher.close()


def test_unanswered_requests_time_out_with_503(fast_policy):
    # the worker swallows the request; the watchdog must fail it with
    # RequestTimeout around queue_timeout_s — a hang here deadlocks CI
    dispatcher, _ = make_dispatcher(fast_policy, [ManualLink()])
    before = event_counts()
    try:
        future = dispatcher.submit({"x": 1}, key="m")
        start = time.monotonic()
        with pytest.raises(RequestTimeout):
            future.result(timeout=5.0)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0  # ~queue_timeout_s, not the outer timeout
        assert events_since(before) == {
            "submitted": 1, "failed": 1, "timed_out": 1,
        }
    finally:
        dispatcher.close()


def test_expired_requests_are_not_sent_to_workers():
    # a request that dies in the queue (slow worker, deadline passes)
    # is dropped at send time rather than shipped dead
    policy = DispatchPolicy(
        queue_depth=64, queue_timeout_s=0.05, max_batch=1, replicas=1,
        watchdog_interval_s=10.0,  # watchdog dormant: send path must act
    )
    link = ManualLink()
    dispatcher, _ = make_dispatcher(policy, [link])
    try:
        blocker = dispatcher.submit({"i": 0}, key="m")  # occupies the lane
        assert wait_until(lambda: len(link.sent) == 1)
        late = dispatcher.submit({"i": 1}, key="m")  # queued behind it
        time.sleep(0.1)  # let the deadline lapse while queued
        dispatcher.complete(link.sent[0][0], "done")  # lane drains now
        with pytest.raises(RequestTimeout):
            late.result(timeout=2.0)
        assert blocker.result(timeout=2.0) == "done"
        assert [payload for _, payload in link.sent] == [{"i": 0}]
    finally:
        dispatcher.close()


def test_completion_resolves_future_with_result(fast_policy):
    link = ManualLink()
    dispatcher, _ = make_dispatcher(fast_policy, [link])
    before = event_counts()
    try:
        future = dispatcher.submit({"x": 1}, key="m")
        assert wait_until(lambda: len(link.sent) == 1)
        rid, payload = link.sent[0]
        assert payload == {"x": 1}
        dispatcher.complete(rid, {"answer": 42})
        assert future.result(timeout=2.0) == {"answer": 42}
        # one request, one count per event it went through
        assert events_since(before) == {"submitted": 1, "completed": 1}
        assert dispatcher.stats() == {
            "admitted_models": 1,
            "workers": {"0": {"alive": True, "queued": 0, "inflight": 0}},
        }
    finally:
        dispatcher.close()


def test_hedging_duplicates_stragglers_first_reply_wins():
    policy = DispatchPolicy(
        queue_depth=8, queue_timeout_s=5.0, hedge_after_s=0.03,
        replicas=2, watchdog_interval_s=0.002,
    )
    first, second = ManualLink(), ManualLink()
    dispatcher, _ = make_dispatcher(policy, [first, second])
    before = event_counts()
    try:
        future = dispatcher.submit({"x": 1}, key="m")
        # the primary swallows the request; the hedge must land on the
        # other worker shortly after hedge_after_s
        assert wait_until(lambda: len(first.sent) + len(second.sent) == 2)
        assert len(first.sent) == 1 and len(second.sent) == 1
        primary_rid = (first.sent + second.sent)[0][0]
        hedge_rid = next(
            rid for rid, _ in first.sent + second.sent
            if rid != primary_rid
        )
        dispatcher.complete(hedge_rid, "hedged answer")
        assert future.result(timeout=2.0) == "hedged answer"
        dispatcher.complete(primary_rid, "late answer")  # ignored
        assert future.result() == "hedged answer"
        assert events_since(before) == {
            "submitted": 1, "hedged": 1, "completed": 1,
        }
    finally:
        dispatcher.close()


def test_worker_loss_fails_over_inflight_requests(fast_policy):
    policy = DispatchPolicy(
        queue_depth=16, queue_timeout_s=5.0, replicas=2,
        watchdog_interval_s=0.002,
    )
    lossy, survivor = ManualLink(), ManualLink()
    dispatcher, (lossy_id, survivor_id) = make_dispatcher(
        policy, [lossy, survivor]
    )
    before = event_counts()
    try:
        futures = [dispatcher.submit({"i": i}, key="m") for i in range(4)]
        assert wait_until(lambda: len(lossy.sent) + len(survivor.sent) >= 1)
        # kill whichever worker actually holds requests
        if lossy.sent:
            dead_id, dead_link, alive_link = lossy_id, lossy, survivor
        else:
            dead_id, dead_link, alive_link = survivor_id, survivor, lossy
        assert len(dead_link.sent) > 0
        dispatcher.worker_lost(dead_id)
        # every request the dead worker owed is re-dispatched to the
        # survivor; lanes are stop-and-wait, so answer the survivor's
        # in-flight batch to let the failed-over backlog through
        answered = set()

        def drain():
            for rid, _payload in list(alive_link.sent):
                if rid not in answered:
                    answered.add(rid)
                    dispatcher.complete(rid, "ok")
            return all(future.done() for future in futures)

        assert wait_until(drain, timeout_s=5.0)
        for future in futures:
            assert future.result(timeout=2.0) == "ok"
        assert events_since(before).get("failovers", 0) >= 1
        assert dispatcher.alive_workers() == [
            wid for wid in (lossy_id, survivor_id) if wid != dead_id
        ]
    finally:
        dispatcher.close()


def test_last_worker_death_fails_requests_as_503(fast_policy):
    link = ManualLink()
    dispatcher, (worker_id,) = make_dispatcher(fast_policy, [link])
    try:
        future = dispatcher.submit({"x": 1}, key="m")
        assert wait_until(lambda: len(link.sent) == 1)
        dispatcher.worker_lost(worker_id)
        with pytest.raises(NoWorkersAvailable):
            future.result(timeout=2.0)
    finally:
        dispatcher.close()


def test_broken_transport_detected_on_send(fast_policy):
    # a send error (EPIPE) marks the worker lost without poisoning the
    # dispatcher; with no survivors the request fails as 503
    dispatcher, _ = make_dispatcher(fast_policy, [DeadLink()])
    try:
        future = dispatcher.submit({"x": 1}, key="m")
        with pytest.raises(ServingUnavailable):
            future.result(timeout=2.0)
        assert dispatcher.alive_workers() == []
    finally:
        dispatcher.close()


def test_admission_lru_bounds_distinct_models(fast_policy):
    policy = DispatchPolicy(
        queue_depth=16, queue_timeout_s=5.0, admission=1, replicas=1,
        watchdog_interval_s=0.002,
    )
    link = ManualLink()
    dispatcher, _ = make_dispatcher(policy, [link])
    try:
        future = dispatcher.submit({"x": 1}, key="model-a")
        with pytest.raises(QueueFull, match="admission"):
            dispatcher.submit({"x": 2}, key="model-b")
        assert wait_until(lambda: len(link.sent) == 1)
        dispatcher.complete(link.sent[0][0], "a")
        assert future.result(timeout=2.0) == "a"
        # model-a is idle now: model-b evicts it and gets through
        future_b = dispatcher.submit({"x": 3}, key="model-b")
        assert wait_until(lambda: len(link.sent) == 2)
        dispatcher.complete(link.sent[1][0], "b")
        assert future_b.result(timeout=2.0) == "b"
    finally:
        dispatcher.close()


def test_requests_batch_up_to_max_batch():
    policy = DispatchPolicy(
        queue_depth=64, queue_timeout_s=5.0, max_batch=4, replicas=1,
        watchdog_interval_s=0.002,
    )
    link = ManualLink()
    dispatcher, _ = make_dispatcher(policy, [link])
    try:
        first = dispatcher.submit({"i": 0}, key="m")
        assert wait_until(lambda: len(link.sent) == 1)
        # lane is stop-and-wait: these queue while the first is in flight
        rest = [dispatcher.submit({"i": i}, key="m") for i in range(1, 7)]
        dispatcher.complete(link.sent[0][0], "ok")
        # the backlog drains as one full batch (max_batch) then the rest
        assert wait_until(lambda: len(link.sent) == 5)
        assert first.result(timeout=2.0) == "ok"
        for rid, _ in link.sent[1:5]:
            dispatcher.complete(rid, "ok")
        assert wait_until(lambda: len(link.sent) == 7)
        for rid, _ in link.sent[5:]:
            dispatcher.complete(rid, "ok")
        for future in rest:
            assert future.result(timeout=2.0) == "ok"
    finally:
        dispatcher.close()


def test_close_fails_pending_requests(fast_policy):
    link = ManualLink()
    dispatcher, _ = make_dispatcher(fast_policy, [link])
    future = dispatcher.submit({"x": 1}, key="m")
    dispatcher.close()
    with pytest.raises(NoWorkersAvailable):
        future.result(timeout=2.0)
    with pytest.raises(NoWorkersAvailable):
        dispatcher.submit({"x": 2}, key="m")


def test_control_messages_bypass_the_queue_bound():
    policy = DispatchPolicy(
        queue_depth=1, queue_timeout_s=5.0, replicas=1,
        watchdog_interval_s=0.002,
    )
    link = ManualLink()
    dispatcher, (worker_id,) = make_dispatcher(policy, [link])
    try:
        dispatcher.submit({"x": 1}, key="m")  # fills the lane
        ack = dispatcher.control(worker_id, {"op": "ping"})
        assert wait_until(lambda: len(link.controls) == 1)
        cid, payload = link.controls[0]
        assert payload == {"op": "ping"}
        dispatcher.control_reply(cid, True, {"pong": True})
        assert ack.result(timeout=2.0) == {"pong": True}
    finally:
        dispatcher.close()
