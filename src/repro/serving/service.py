"""The prediction service: hot models and hot features over batched inference.

``Session.predict`` is a one-shot path: it resolves and loads the model
artifact on every call.  A serving process answering sustained traffic
wants the opposite trade-off, which is what :class:`PredictionService`
provides:

* **model LRU** — recently served artifacts stay deserialized in memory,
  keyed by resolved artifact id (with ``mmap=True`` the weight arrays
  are read-only views over a shared page-cache mapping, so N worker
  processes serving the same artifact hold **one** physical copy);
* **feature LRU** — recently served benchmarks keep their encoded
  ``[n, 51]`` streams (backed by the on-disk content-addressed feature
  cache for cold entries);
* **batched answers** — :meth:`predict_batch` groups requests by model
  and answers each group through one batched no-grad engine pass.

The service is synchronous and owns no threads.  Queueing and
micro-batching of concurrent traffic belong to the
:class:`~repro.serving.dispatch.Dispatcher` in front of it: every
:mod:`repro.serving.cluster` worker — spawned process or the in-process
worker of ``repro serve`` — answers each lane batch with
:meth:`predict_each`.

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
        feature_cache: int = 64,
        mmap: bool = False,
        jit: bool | None = None,
        frontend: str | None = None,
    ):
        self.session = session or Session(
            scale=scale, cache_dir=cache_dir, jit=jit,
            **({"frontend": frontend} if frontend else {}),
        )
        self.mmap = mmap
        self._models = _LRU(model_cache)
        self._features = _LRU(feature_cache)
        self._lock = threading.Lock()
        self._cache_events = {
            (cache, outcome): REGISTRY.counter(
                "repro_serving_cache_total",
                "Serving LRU lookups by cache and outcome.",
                cache=cache, outcome=outcome,
            )
            for cache in ("model", "feature")
            for outcome in ("hit", "miss")
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
        else:
            self._cache_events[("model", "hit")].inc()
        return artifact_id, model

    def features(self, benchmark: str):
        """The benchmark's encoded stream, LRU over the on-disk cache.

        ``memo=False`` keeps the session's unbounded memo out of the
        loop: this LRU is the only in-memory copy, so eviction really
        frees the stream.
        """
        with self._lock:
            stream = self._features.get(benchmark)
        if stream is None:
            self._cache_events[("feature", "miss")].inc()
            with obs.span("service.feature_load", benchmark=benchmark):
                stream = self.session.features(benchmark, memo=False)
            with self._lock:
                self._features.put(benchmark, stream)
        else:
            self._cache_events[("feature", "hit")].inc()
        return stream

    # -- answering --------------------------------------------------------
    def predict(self, request: ServeRequest) -> ServeResult:
        """Answer one request (a batch of one)."""
        return self.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[ServeRequest]
    ) -> list[ServeResult]:
        """Answer a batch: requests group by model, each group runs one
        batched engine pass; results return in request order."""
        requests = list(requests)
        groups: dict[tuple[str, str | None], list[int]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(
                (request.family, request.artifact), []
            ).append(i)
        results: list[ServeResult | None] = [None] * len(requests)
        for (family, artifact), indices in groups.items():
            artifact_id, model = self.model(family, artifact)
            needs_features = "features" in model.serve_inputs
            batch = [
                self.session.serve_request(
                    model,
                    requests[i].benchmark,
                    features=(
                        self.features(requests[i].benchmark)
                        if needs_features else None
                    ),
                    signature_times=requests[i].signature_times,
                )
                for i in indices
            ]
            with self.session._jit_scope():
                batch_times = model.predict_batch(batch)
            for i, times in zip(indices, batch_times):
                named = dict(zip(model.config_names, times.tolist()))
                config = requests[i].config
                if config is not None:
                    if config not in named:
                        raise PredictionError(
                            f"unknown config {config!r} for artifact "
                            f"{artifact_id}; known: {list(named)}"
                        )
                    named = {config: named[config]}
                results[i] = ServeResult(
                    benchmark=requests[i].benchmark,
                    artifact=artifact_id,
                    times=named,
                )
        return results  # type: ignore[return-value]

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

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        """This worker's counters (``worker_stats`` in ``GET /v1/stats``).

        The ``jit`` section is this process's compiled-kernel activity —
        compile counts, registry/disk hits, per-signature timings — taken
        under the session's jit scope so ``enabled`` reflects what the
        engine passes actually see.
        """
        from repro import jit

        with self._lock:
            payload = {
                "scale": self.session.scale.name,
                "frontend": self.session.frontend,
                "models_cached": len(self._models),
                "features_cached": len(self._features),
            }
        with self.session._jit_scope():
            payload["jit"] = jit.stats()
        return payload
