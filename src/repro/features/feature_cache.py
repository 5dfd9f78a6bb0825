"""Content-addressed cache of encoded feature streams (the serving path).

``Session.predict`` / the serving layer need a benchmark's ``[n, 51]``
feature matrix on every request; traces are deterministic functions of
``(benchmark, max_instructions, seed)``, so the encoded features are too.
This module memoizes them on disk under the :mod:`repro.cache` root
(``<root>/features/``), keyed by those inputs plus an encoder version —
bumping :data:`ENCODER_VERSION` invalidates every cached stream when the
Table I encoding changes.

Encoding streams through :func:`repro.features.encoder.iter_encoded_chunks`
so long traces never hold more than one chunk of intermediate state, and
entries are published and read through :mod:`repro.cache`, so concurrent
servers can share one cache directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os

import numpy as np

from repro.cache import cache_root, publish, read_npz
from repro.features.encoder import NUM_FEATURES, iter_encoded_chunks
from repro.frontends import DEFAULT_FRONTEND
from repro.obs.metrics import REGISTRY

log = logging.getLogger(__name__)


def _count(outcome: str) -> None:
    REGISTRY.counter(
        "repro_feature_cache_total",
        "On-disk feature cache lookups by outcome.",
        outcome=outcome,
    ).inc()

#: Bump when the Table I encoding changes incompatibly.
ENCODER_VERSION = 1

#: Rows encoded (and held in memory) per streaming chunk.
DEFAULT_CHUNK_ROWS = 8192

#: Default ``cache_dir`` sentinel: resolve the :mod:`repro.cache` root at
#: call time (pass ``None`` to disable the on-disk cache).
DEFAULT_CACHE_DIR = "auto"


def feature_cache_dir(root: str | None = None) -> str:
    """Where encoded feature streams are cached."""
    return os.path.join(cache_root(root), "features")


def feature_key(
    benchmark: str,
    max_instructions: int,
    seed: int | None,
    isa: str = DEFAULT_FRONTEND,
) -> str:
    """Content address of one encoded stream (inputs + encoder version)."""
    identity = {
        "benchmark": benchmark,
        "max_instructions": max_instructions,
        "seed": seed,
        "num_features": NUM_FEATURES,
        "encoder_version": ENCODER_VERSION,
    }
    if isa != DEFAULT_FRONTEND:
        # conditional so every pre-frontend cache key stays stable
        identity["isa"] = isa
    return hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode()
    ).hexdigest()[:16]


def _cache_path(
    cache_dir: str,
    benchmark: str,
    max_instructions: int,
    seed: int | None,
    isa: str,
) -> str:
    safe = benchmark.replace(".", "_")
    key = feature_key(benchmark, max_instructions, seed, isa)
    return os.path.join(cache_dir, f"{safe}_{key}.npz")


def encoded_features(
    benchmark: str,
    max_instructions: int,
    seed: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    isa: str = DEFAULT_FRONTEND,
    memo: bool = True,
) -> np.ndarray:
    """The benchmark's encoded ``[n, 51]`` features, via the on-disk cache.

    A cache miss traces the benchmark through its frontend; ``memo=False``
    keeps that trace out of the frontend's process-wide trace memo.
    """
    from repro.frontends import get_frontend

    if cache_dir == DEFAULT_CACHE_DIR:
        cache_dir = feature_cache_dir()
    path = None
    if cache_dir:
        path = _cache_path(cache_dir, benchmark, max_instructions, seed, isa)
        loaded, outcome = read_npz(path, "features")
        _count(outcome)
        if loaded is not None:
            return loaded[0]
        if outcome == "corrupt":
            # a corrupt entry must not take prediction down: recompute,
            # and the rewrite below repairs it
            log.warning("corrupt feature cache entry %s: recomputing", path)
    trace = get_frontend(isa).trace(
        benchmark, max_instructions, seed=seed, memo=memo
    )
    # fill a preallocated matrix chunk-by-chunk: peak transient memory is
    # one chunk, not a second copy of the whole stream
    features = np.empty((len(trace), NUM_FEATURES), dtype=np.float32)
    row = 0
    for chunk in iter_encoded_chunks(trace, chunk_rows=chunk_rows):
        features[row : row + len(chunk)] = chunk
        row += len(chunk)
    if path:
        publish(path, lambda fh: np.savez_compressed(fh, features=features))
    return features
