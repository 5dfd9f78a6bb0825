"""The prediction service: memoized answers over hot models.

``Session.predict`` is a one-shot path: it resolves and loads the model
artifact on every call.  A serving process answering sustained traffic
wants the opposite trade-off, which is what :class:`PredictionService`
provides:

* **answer memo** — PerfVec's program representation is computed once
  and reused for every microarchitecture (paper Sec. III-B), so the
  reusable product of one (artifact, program) pair is its answer row.
  :meth:`predict_batch` keeps up to ``answer_cache`` recent rows, keyed
  by (artifact id, benchmark, signature times), and answers a repeated
  request with no feature fetch and no engine pass.  Artifact ids are
  content addresses, so a swapped or retrained model gets fresh keys;
* **model LRU** — recently served artifacts stay deserialized in memory,
  keyed by resolved artifact id (with ``mmap=True`` the weight arrays
  are read-only views over a shared page-cache mapping, so N worker
  processes serving the same artifact hold **one** physical copy);
* **batched answers** — memo misses collapse by key and group by model;
  each group runs through one ``predict_batch`` call on the model.  A
  miss reads its encoded ``[n, 51]`` stream from the on-disk
  content-addressed feature cache for that one engine pass and keeps
  no reference to it, nor to the trace a feature-cache miss encodes:
  the answer row is what the service holds.

The service is synchronous and owns no threads.  Queueing and
micro-batching of concurrent traffic belong to the
:class:`~repro.serving.dispatch.Dispatcher` in front of it: every
:mod:`repro.serving.cluster` worker — spawned process or the in-process
worker of ``repro serve`` — answers each lane batch with
:meth:`predict_each`.  It keeps no counters of its own: lookups count in
``repro_serving_cache_total`` and cache sizes in
``repro_serving_cache_entries`` of the obs registry.

All six model families serve: each family's
:attr:`~repro.models.base.PerformanceModel.serve_inputs` names what a
request must carry (feature stream, trace length, signature times), and
:meth:`repro.api.Session.serve_request` assembles it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.api import Session
from repro.core.errors import PredictionError
from repro.models import PerformanceModel, StoreError
from repro.obs.metrics import REGISTRY


def error_reply(exc: Exception) -> tuple[int, str]:
    """HTTP status and message for a request that raised ``exc``.

    One table for every worker: the HTTP frontend applies it to the
    in-process worker's exceptions, and worker processes apply it before
    shipping an error over their pipe.
    """
    if isinstance(exc, (StoreError, KeyError)):  # UnknownBenchmarkError too
        return 404, str(exc)
    if isinstance(exc, (PredictionError, TypeError, ValueError)):
        return 400, str(exc)
    return 500, f"{type(exc).__name__}: {exc}"


#: Request fields accepted over the wire.
_REQUEST_FIELDS = {"benchmark", "family", "artifact", "config",
                   "signature_times"}


@dataclass(frozen=True)
class ServeRequest:
    """One client prediction request."""

    benchmark: str
    family: str = "perfvec"
    artifact: str | None = None  # None: newest of family at service scale
    config: str | None = None  # None: every config the model knows
    #: Measured times on the signature configurations — required by the
    #: ``cross_program`` family only.
    signature_times: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        payload = {
            "benchmark": self.benchmark, "family": self.family,
            "artifact": self.artifact, "config": self.config,
        }
        if self.signature_times is not None:
            payload["signature_times"] = list(self.signature_times)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeRequest":
        try:
            benchmark = payload["benchmark"]
        except (TypeError, KeyError):
            raise ValueError("request must carry a 'benchmark' field")
        unknown = set(payload) - _REQUEST_FIELDS
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        signature_times = payload.get("signature_times")
        if signature_times is not None:
            signature_times = tuple(float(t) for t in signature_times)
        return cls(
            benchmark=benchmark,
            family=payload.get("family") or "perfvec",
            artifact=payload.get("artifact"),
            config=payload.get("config"),
            signature_times=signature_times,
        )


@dataclass(frozen=True)
class ServeResult:
    """Prediction for one request: ticks per microarchitecture."""

    benchmark: str
    artifact: str
    times: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark, "artifact": self.artifact,
            "times": self.times,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeResult":
        return cls(
            benchmark=payload["benchmark"], artifact=payload["artifact"],
            times=dict(payload["times"]),
        )


class _LRU:
    """A tiny thread-unsafe LRU (callers hold the service lock)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self._items: dict = {}

    def get(self, key):
        value = self._items.pop(key, None)
        if value is not None:
            self._items[key] = value  # re-insert: most recently used
        return value

    def put(self, key, value) -> None:
        self._items.pop(key, None)
        self._items[key] = value
        while len(self._items) > self.capacity:
            self._items.pop(next(iter(self._items)))

    def __len__(self) -> int:
        return len(self._items)


class PredictionService:
    """Serve stored models with caching and batched inference."""

    def __init__(
        self,
        session: Session | None = None,
        scale: str = "bench",
        cache_dir: str | None = None,
        model_cache: int = 4,
        answer_cache: int = 256,
        mmap: bool = False,
        frontend: str | None = None,
    ):
        self.session = session or Session(
            scale=scale, cache_dir=cache_dir,
            **({"frontend": frontend} if frontend else {}),
        )
        self.mmap = mmap
        self._models = _LRU(model_cache)
        self._answers = _LRU(answer_cache)
        self._lock = threading.Lock()
        self._cache_events = {
            (cache, outcome): REGISTRY.counter(
                "repro_serving_cache_total",
                "Serving LRU lookups by cache and outcome.",
                cache=cache, outcome=outcome,
            )
            for cache in ("answer", "model")
            for outcome in ("hit", "miss")
        }
        self._entries = {
            cache: REGISTRY.gauge(
                "repro_serving_cache_entries",
                "Entries the serving answer memo and model LRU hold.",
                cache=cache,
            )
            for cache in ("answer", "model")
        }

    # -- caches -----------------------------------------------------------
    def model(
        self, family: str = "perfvec", artifact: str | None = None
    ) -> tuple[str, PerformanceModel]:
        """(resolved artifact id, deserialized model), LRU-cached.

        With ``mmap=True`` cold loads map the stored weights read-only
        instead of copying them into private memory.
        """
        artifact_id = self.session.resolve_artifact(family, artifact)
        with self._lock:
            model = self._models.get(artifact_id)
        if model is None:
            self._cache_events[("model", "miss")].inc()
            with obs.span("service.model_load", artifact=artifact_id):
                model = self.session.store.load(
                    artifact_id, mmap=self.mmap
                )
            with self._lock:
                self._models.put(artifact_id, model)
                self._entries["model"].set(len(self._models))
        else:
            self._cache_events[("model", "hit")].inc()
        return artifact_id, model

    def features(self, benchmark: str):
        """The benchmark's encoded stream, read for one engine pass.

        Loaded from the on-disk feature cache with ``memo=False`` and
        not kept: only answer-memo misses call this, and the answer row
        they produce is what the service holds, so the stream is freed
        once its engine pass is done.  A feature-cache miss traces the
        program outside the frontend's trace memo, so its trace is freed
        once encoded.
        """
        with obs.span("service.feature_load", benchmark=benchmark):
            return self.session.features(benchmark, memo=False)

    # -- answering --------------------------------------------------------
    def predict(self, request: ServeRequest) -> ServeResult:
        """Answer one request (a batch of one)."""
        return self.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[ServeRequest]
    ) -> list[ServeResult]:
        """Answer a batch in request order.

        A request whose memo key is held is answered from the memo.
        Misses collapse by key, group by model, and each group runs one
        ``predict_batch`` on its model; the answers join the memo.
        """
        requests = list(requests)
        pinned: dict[tuple[str, str | None], str] = {}
        keys = []
        for request in requests:
            pin = (request.family, request.artifact)
            if pin not in pinned:
                pinned[pin] = self.session.resolve_artifact(*pin)
            signature = request.signature_times
            keys.append((
                pinned[pin], request.benchmark,
                None if signature is None else tuple(signature),
            ))
        with self._lock:
            answers = {key: self._answers.get(key) for key in keys}
        hits = sum(answers[key] is not None for key in keys)
        self._cache_events[("answer", "hit")].inc(hits)
        self._cache_events[("answer", "miss")].inc(len(keys) - hits)

        groups: dict[tuple[str, str], dict[tuple, ServeRequest]] = {}
        for key, request in zip(keys, requests):
            if answers[key] is None:
                groups.setdefault(
                    (request.family, key[0]), {}
                ).setdefault(key, request)
        for (family, artifact_id), missed in groups.items():
            _, model = self.model(family, artifact_id)
            needs_features = "features" in model.serve_inputs
            batch = [
                self.session.serve_request(
                    model,
                    request.benchmark,
                    features=(
                        self.features(request.benchmark)
                        if needs_features else None
                    ),
                    signature_times=request.signature_times,
                )
                for request in missed.values()
            ]
            batch_times = model.predict_batch(batch)
            with self._lock:
                for key, times in zip(missed, batch_times):
                    # immutable, so no caller can edit a later answer
                    answers[key] = (model.config_names, tuple(times.tolist()))
                    self._answers.put(key, answers[key])
                self._entries["answer"].set(len(self._answers))

        results = []
        for key, request in zip(keys, requests):
            named = dict(zip(*answers[key]))
            config = request.config
            if config is not None:
                if config not in named:
                    raise PredictionError(
                        f"unknown config {config!r} for artifact "
                        f"{key[0]}; known: {list(named)}"
                    )
                named = {config: named[config]}
            results.append(ServeResult(
                benchmark=request.benchmark, artifact=key[0], times=named,
            ))
        return results

    def predict_each(
        self, requests: Sequence[ServeRequest]
    ) -> list[ServeResult | Exception]:
        """Like :meth:`predict_batch`, but a bad request poisons only its
        own slot: on a batch failure every request retries alone, and
        failures come back as exception objects in request order."""
        requests = list(requests)
        try:
            return list(self.predict_batch(requests))
        except Exception:
            if len(requests) == 1:
                try:
                    return [self.predict(requests[0])]
                except Exception as exc:
                    return [exc]
            out: list[ServeResult | Exception] = []
            for request in requests:
                out.extend(self.predict_each([request]))
            return out
