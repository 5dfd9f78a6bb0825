"""Model serving: batched prediction as a long-lived service.

* :mod:`~repro.serving.service` — :class:`PredictionService`: memoized
  answers and hot models in LRU caches over batched no-grad inference
  (each batch groups its misses by model, one engine pass per group).
* :mod:`~repro.serving.dispatch` — :class:`Dispatcher`: per-model
  routing, bounded queues with timeout/rejection, lane micro-batching,
  request hedging and crash fail-over across worker lanes
  (transport-agnostic).
* :mod:`~repro.serving.cluster` — :class:`PredictionCluster`: serving
  workers (each a ``PredictionService``) behind one dispatcher, with
  graceful model hot-swap; N spawned processes over mmap-shared weights,
  or one in-process worker.
* :mod:`~repro.serving.http` — a dependency-free HTTP/JSON endpoint over
  the cluster (``repro serve [--workers N]``).
"""

from repro.serving.dispatch import (
    Dispatcher,
    DispatchPolicy,
    NoWorkersAvailable,
    QueueFull,
    RequestTimeout,
    ServingUnavailable,
    WorkerError,
)
from repro.serving.service import (
    PredictionService,
    ServeRequest,
    ServeResult,
)
from repro.serving.cluster import PredictionCluster
from repro.serving.http import make_server, run_server

__all__ = [
    "Dispatcher",
    "DispatchPolicy",
    "NoWorkersAvailable",
    "PredictionCluster",
    "PredictionService",
    "QueueFull",
    "RequestTimeout",
    "ServeRequest",
    "ServeResult",
    "ServingUnavailable",
    "WorkerError",
    "make_server",
    "run_server",
]
