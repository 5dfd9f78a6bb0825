"""One on-disk copy of each encoded feature stream.

A benchmark's ``[n, 51]`` feature matrix is a deterministic function of
``(benchmark, max_instructions, seed, frontend)`` and the Table I
encoding, so it is stored once: a *feature entry* keyed by
:func:`feature_key`, in the dataset cache's ``features/`` directory
(``<root>/datasets/features/``).  Two paths read and write the same
entry:

* :func:`repro.features.dataset.build_dataset` takes a benchmark's rows
  from its entry, or encodes the trace and publishes the entry;
* :func:`encoded_features` (behind ``Session.features``: serving and
  ``repro predict``) reads the entry, and on a miss encodes the stream
  through :func:`repro.features.encoder.iter_encoded_chunks`, so a long
  trace never holds more than one chunk of intermediate state, and
  publishes it.

So a server on a root whose datasets are built never traces or encodes.
Bumping :data:`ENCODER_VERSION` invalidates every entry when the
encoding changes.  Entries are published and read through
:mod:`repro.cache`, so concurrent builders and servers share one
directory.  A root written before streams lived here keeps a
``<root>/features/`` directory that nothing reads.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os

import numpy as np

from repro.cache import dataset_cache_dir, publish, read_npz
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
    """Where encoded feature streams are cached: the dataset cache's
    ``features/``."""
    return os.path.join(dataset_cache_dir(root), "features")


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


def feature_path(
    cache_dir: str,
    benchmark: str,
    max_instructions: int,
    seed: int | None,
    isa: str = DEFAULT_FRONTEND,
) -> str:
    """The feature entry of one stream under ``cache_dir``."""
    safe = benchmark.replace(".", "_")
    key = feature_key(benchmark, max_instructions, seed, isa)
    return os.path.join(cache_dir, f"{safe}_{key}.npz")


def read_stream(path: str) -> tuple[np.ndarray | None, str]:
    """``(stream, outcome)`` for the feature entry at ``path``; outcomes
    as for :func:`repro.cache.read_npz`."""
    loaded, outcome = read_npz(path, "features")
    return (None if loaded is None else loaded[0]), outcome


def publish_stream(path: str, features: np.ndarray) -> None:
    """Publish ``features`` as the feature entry at ``path``."""
    publish(path, lambda fh: np.savez_compressed(fh, features=features))


def encoded_features(
    benchmark: str,
    max_instructions: int,
    seed: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    isa: str = DEFAULT_FRONTEND,
    memo: bool = True,
) -> np.ndarray:
    """The benchmark's encoded ``[n, 51]`` features, via its feature entry.

    A miss traces the benchmark through its frontend; ``memo=False``
    keeps that trace out of the frontend's process-wide trace memo.
    """
    from repro.frontends import get_frontend

    if cache_dir == DEFAULT_CACHE_DIR:
        cache_dir = feature_cache_dir()
    path = None
    if cache_dir:
        path = feature_path(cache_dir, benchmark, max_instructions, seed, isa)
        stream, outcome = read_stream(path)
        _count(outcome)
        if stream is not None:
            return stream
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
        publish_stream(path, features)
    return features
