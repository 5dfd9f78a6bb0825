"""Prediction cluster: one dispatcher in front of every serving worker.

Topology::

    clients -> PredictionCluster.submit
                 |  resolve family -> concrete artifact id (routes table)
                 v
               Dispatcher (repro.serving.dispatch)
                 |  per-model rendezvous routing, bounded lanes,
                 |  timeout/rejection, hedging, fail-over, lane batching
                 v
               workers, each a PredictionService answering lane batches:
                 workers=N  N spawned processes
                            (repro.runtime.workers.WorkerProcess)
                 workers=0  one in-process worker: its lane's sender
                            thread answers the batch itself

Both modes take the same path, so the in-process server (``repro
serve``) and ``repro serve --workers N`` share load-shedding, timeouts,
batching, hot swap and the stats/metrics surface.

Worker processes load model weights with ``mmap=True`` — read-only
views over the artifact's extracted ``.npy`` sidecar — so all N
processes share **one** physical copy of each model through the OS page
cache instead of N private copies.  The in-process worker has nothing to
share and loads weights eagerly.

**Routing is by concrete artifact id.**  The frontend resolves a
request's family to an artifact id *once, at submit time* (the routes
table), and ships the pinned id to the worker.  Workers never resolve
"newest" themselves, which is what makes :meth:`PredictionCluster.swap`
atomic: a model hot-swap preloads the new artifact on every worker
(register), waits for every acknowledgement (drain — in-flight requests
keep their old pinned id and finish against the old model), then
switches the routes entry in one assignment.  No request can ever
observe a half-loaded model: every request is answered entirely by the
artifact id it was pinned to.

Crash recovery: a worker that dies mid-request is detected by its pipe
reader (EOF); the dispatcher re-dispatches everything the worker owed to
the survivors and the cluster spawns a replacement.  :meth:`kill_worker`
exposes that failure path to tests (SIGKILL, no cleanup).
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future

from repro import obs
from repro.api import Session
from repro.serving.dispatch import (
    Dispatcher,
    DispatchPolicy,
    WorkerError,
    WorkerLink,
)
from repro.serving.service import (
    PredictionService,
    ServeRequest,
    ServeResult,
    error_reply,
)


def _answer(
    service: PredictionService, items: list
) -> list[tuple[int, ServeResult | Exception]]:
    """Answer one lane batch of ``(rid, request dict)`` pairs.

    Parse failures answer per request; the parseable remainder runs
    through the service's per-request error-isolating batch path.
    Outcomes pair each rid with a result or the exception it raised.
    """
    outcomes: list[tuple[int, ServeResult | Exception]] = []
    parsed: list[tuple[int, ServeRequest]] = []
    parent = None
    for rid, payload in items:
        # the frontend's trace context rides the envelope; pop it before
        # schema validation and parent the worker span on it so the
        # request stitches across the thread or process boundary
        ctx = obs.extract_message(payload)
        parent = parent or ctx
        try:
            parsed.append((rid, ServeRequest.from_dict(payload)))
        except (ValueError, TypeError) as exc:
            outcomes.append((rid, exc))
    with obs.span("worker.predict", parent=parent, requests=len(parsed)):
        results = service.predict_each([req for _, req in parsed])
    outcomes.extend(zip((rid for rid, _ in parsed), results))
    return outcomes


def _worker_main(conn, options: dict) -> None:
    """Worker process entry point (module-level: spawn pickles it).

    Wire protocol (tuples, first element tags the kind)::

        parent -> worker: ("predict", [(rid, request dict), ...])
                          ("ctl", cid, {"op": ...})
                          ("stop",)
        worker -> parent: ("ok", rid, result dict)
                          ("err", rid, http status, message)
                          ("ctl-ok", cid, payload) / ("ctl-err", cid, msg)
    """
    service = PredictionService(
        scale=options["scale"],
        cache_dir=options["cache_dir"],
        model_cache=options["model_cache"],
        answer_cache=options["answer_cache"],
        mmap=options["mmap"],
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        if kind == "ctl":
            _, cid, payload = message
            conn.send(_handle_control(service, cid, payload))
            continue
        for rid, outcome in _answer(service, message[1]):  # ("predict", items)
            if isinstance(outcome, Exception):
                conn.send(("err", rid, *error_reply(outcome)))
            else:
                conn.send(("ok", rid, outcome.to_dict()))


def _handle_control(service: PredictionService, cid: int, payload: dict):
    import os

    op = payload.get("op")
    try:
        if op == "ping":
            return ("ctl-ok", cid, {"pid": os.getpid()})
        if op == "stats":
            return ("ctl-ok", cid, service.stats())
        if op == "metrics":
            # this worker's registry snapshot; the frontend merges it
            # into /v1/metrics under a {"worker": id} label
            return ("ctl-ok", cid, obs.metrics_snapshot())
        if op == "swap":
            # preload: after the ack this artifact is warm in the LRU,
            # so switching the route never serves a cold/partial model
            artifact_id, model = service.model(
                family=payload["family"], artifact=payload["artifact"]
            )
            return ("ctl-ok", cid, {
                "artifact": artifact_id, "family": model.family,
            })
        return ("ctl-err", cid, f"unknown control op {op!r}")
    except Exception as exc:
        return ("ctl-err", cid, f"{type(exc).__name__}: {exc}")


class _PipeLink(WorkerLink):
    """Dispatcher-facing transport over one worker's pipe."""

    def __init__(self, proc):
        self.proc = proc

    def send_requests(self, items: list) -> None:
        self.proc.send(("predict", items))

    def send_control(self, cid: int, payload: dict) -> None:
        self.proc.send(("ctl", cid, payload))

    def close(self) -> None:
        try:
            self.proc.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _LocalLink(WorkerLink):
    """Dispatcher-facing transport to the in-process worker.

    The lane's sender thread answers each batch itself, so the
    in-process worker is serial like a spawned one, and outcomes resolve
    the futures as they are: results unencoded, exceptions unwrapped.
    """

    def __init__(self, service: PredictionService, dispatcher: Dispatcher):
        self.service = service
        self.dispatcher = dispatcher

    def send_requests(self, items: list) -> None:
        for rid, outcome in _answer(self.service, items):
            if isinstance(outcome, Exception):
                self.dispatcher.fail(rid, outcome)
            else:
                self.dispatcher.complete(rid, outcome)

    def send_control(self, cid: int, payload: dict) -> None:
        kind, _, reply = _handle_control(self.service, cid, payload)
        self.dispatcher.control_reply(cid, kind == "ctl-ok", reply)


class PredictionCluster:
    """Serving workers behind one dispatching frontend.

    ``workers`` spawned processes answer the dispatcher's lanes; with
    ``workers=0`` one in-process worker does (``mmap`` applies to worker
    processes only).  The HTTP frontend and the load harness drive both
    modes through the same ``submit``/``predict``/``swap``/``stats``
    surface.
    """

    def __init__(
        self,
        workers: int = 2,
        scale: str = "bench",
        cache_dir: str | None = None,
        session: Session | None = None,
        policy: DispatchPolicy | None = None,
        model_cache: int = 4,
        answer_cache: int = 256,
        mmap: bool = True,
    ):
        if workers < 0:
            raise ValueError(
                "worker count must be >= 0 (0 serves in-process)"
            )
        self.session = session or Session(scale=scale, cache_dir=cache_dir)
        self.workers = workers
        self._local = None if workers else PredictionService(
            session=self.session, model_cache=model_cache,
            answer_cache=answer_cache,
        )
        self._options = {
            "scale": self.session.scale.name,
            "cache_dir": self.session.cache_dir,
            "model_cache": model_cache,
            "answer_cache": answer_cache,
            "mmap": mmap,
        }
        self.dispatcher = Dispatcher(
            policy=policy, on_worker_lost=self._on_worker_lost
        )
        self._lock = threading.Lock()
        self._procs: dict[int, object] = {}
        self._readers: dict[int, threading.Thread] = {}
        self._routes: dict[str, str] = {}  # family -> pinned artifact id
        self._closing = False
        self._started = False

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Start the workers (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for _ in range(self.workers or 1):
            self._spawn_worker()

    def stop(self) -> None:
        """Fail pending requests, stop workers, join readers."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            procs = dict(self._procs)
            readers = dict(self._readers)
            self._procs.clear()
            self._readers.clear()
        self.dispatcher.close()
        for proc in procs.values():
            proc.stop(shutdown_message=("stop",))
        for reader in readers.values():
            reader.join(timeout=5.0)

    def __enter__(self) -> "PredictionCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving ----------------------------------------------------------
    def submit(self, request: ServeRequest) -> Future:
        """Dispatch one request; the future resolves to a
        :class:`ServeResult` (or raises — see
        :mod:`repro.serving.dispatch` for the 503 family)."""
        self.start()
        artifact = request.artifact or self._route(request.family)
        concrete = (
            request if request.artifact == artifact
            else dataclasses.replace(request, artifact=artifact)
        )
        key = (concrete.family, concrete.artifact)
        # stamp the current trace context onto the envelope so the
        # worker's spans join this request's trace (multi-process stitch)
        payload = obs.inject_message(concrete.to_dict())
        return self.dispatcher.submit(payload, key=key)

    def predict(
        self, request: ServeRequest, timeout: float | None = None
    ) -> ServeResult:
        return self.submit(request).result(timeout=timeout)

    def _route(self, family: str) -> str:
        with self._lock:
            pinned = self._routes.get(family)
        if pinned is not None:
            return pinned
        resolved = self.session.resolve_artifact(family)
        with self._lock:
            return self._routes.setdefault(family, resolved)

    # -- hot swap ---------------------------------------------------------
    def swap(
        self, artifact: str, family: str | None = None,
        timeout_s: float = 60.0,
    ) -> dict:
        """Atomically switch a family's route to ``artifact``.

        Register (verify the artifact exists), preload it on every
        worker, await every acknowledgement, then switch the route in
        one assignment.  In-flight requests finish against the artifact
        they were pinned to; a preload failure on any worker leaves the
        route unchanged.
        """
        manifest = self.session.store.manifest(artifact)
        family = family or manifest["family"]
        if manifest["family"] != family:
            raise ValueError(
                f"artifact {artifact!r} is family "
                f"{manifest['family']!r}, not {family!r}"
            )
        self.start()
        acks = [
            self.dispatcher.control(
                wid, {"op": "swap", "family": family, "artifact": artifact}
            )
            for wid in self.dispatcher.alive_workers()
        ]
        for ack in acks:
            ack.result(timeout=timeout_s)  # raises -> route unchanged
        with self._lock:
            previous = self._routes.get(family)
            self._routes[family] = artifact
        return {
            "family": family, "artifact": artifact,
            "previous": previous, "workers": len(acks),
        }

    # -- fault injection / introspection ----------------------------------
    def kill_worker(self, worker_id: int | None = None) -> int:
        """SIGKILL one worker (default: lowest alive id) — chaos hook.

        Returns the killed worker's id.  Recovery is automatic: the
        pipe reader sees EOF, the dispatcher fails over the worker's
        requests, and a replacement spawns.
        """
        with self._lock:
            if worker_id is None:
                if not self._procs:
                    raise RuntimeError("no workers to kill")
                worker_id = min(self._procs)
            proc = self._procs[worker_id]
        proc.kill()
        return worker_id

    def stats(self, worker_timeout_s: float = 2.0) -> dict:
        with self._lock:
            pids = {
                str(wid): proc.pid for wid, proc in sorted(self._procs.items())
            }
            routes = dict(self._routes)
        return {
            **self.dispatcher.stats(),
            "worker_pids": pids,
            "routes": routes,
            "worker_stats": self._collect_worker_stats(worker_timeout_s),
        }

    def worker_metrics(self, timeout_s: float = 2.0) -> dict:
        """Per-worker metrics snapshots keyed by worker id.

        Fans the ``metrics`` control op out to every live worker; a
        worker that dies or stalls is simply absent from the result —
        ``/v1/metrics`` renders whatever answered.  The in-process
        worker records into this process's registry, so it has no
        separate snapshot.
        """
        if not self._started or self._local is not None:
            return {}
        acks = [
            (wid, self.dispatcher.control(wid, {"op": "metrics"}))
            for wid in self.dispatcher.alive_workers()
        ]
        collected: dict = {}
        for wid, ack in acks:
            try:
                collected[wid] = ack.result(timeout=timeout_s)
            except Exception:  # noqa: BLE001 - scrape is best-effort
                continue
        return collected

    def _collect_worker_stats(self, timeout_s: float) -> dict:
        """Best-effort per-worker service counters.

        Control round-trips fan out to every live worker in parallel; a
        worker that dies or stalls contributes an ``error`` entry instead
        of failing the whole stats call.
        """
        if not self._started:
            return {}
        acks = [
            (wid, self.dispatcher.control(wid, {"op": "stats"}))
            for wid in self.dispatcher.alive_workers()
        ]
        collected: dict = {}
        for wid, ack in acks:
            try:
                collected[str(wid)] = ack.result(timeout=timeout_s)
            except Exception as exc:
                collected[str(wid)] = {
                    "error": f"{type(exc).__name__}: {exc}"
                }
        return collected

    # -- internals --------------------------------------------------------
    def _spawn_worker(self) -> int:
        if self._local is not None:
            return self.dispatcher.add_worker(
                _LocalLink(self._local, self.dispatcher)
            )
        from repro.runtime.workers import WorkerProcess

        proc = WorkerProcess(
            _worker_main, args=(self._options,), name="repro-serve-worker"
        )
        worker_id = self.dispatcher.add_worker(_PipeLink(proc))
        reader = threading.Thread(
            target=self._read_loop, args=(worker_id, proc),
            name=f"repro-cluster-reader-{worker_id}", daemon=True,
        )
        with self._lock:
            self._procs[worker_id] = proc
            self._readers[worker_id] = reader
        reader.start()
        return worker_id

    def _read_loop(self, worker_id: int, proc) -> None:
        while True:
            try:
                message = proc.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ok":
                self.dispatcher.complete(
                    message[1], ServeResult.from_dict(message[2])
                )
            elif kind == "err":
                _, rid, status, text = message
                self.dispatcher.fail(rid, WorkerError(text, status))
            elif kind == "ctl-ok":
                self.dispatcher.control_reply(message[1], True, message[2])
            elif kind == "ctl-err":
                self.dispatcher.control_reply(message[1], False, message[2])
        if not self._closing:
            self.dispatcher.worker_lost(worker_id)

    def _on_worker_lost(self, worker_id: int) -> None:
        with self._lock:
            if self._closing:
                return
            proc = self._procs.pop(worker_id, None)
            self._readers.pop(worker_id, None)
        if proc is not None:
            proc.stop(timeout_s=1.0)  # reap the corpse
        if not self._closing:
            self._spawn_worker()


__all__ = ["PredictionCluster"]
