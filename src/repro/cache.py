"""Cache-location resolution.

Every on-disk cache (dataset npz files, stored model artifacts) lives
under one *cache root*, resolved per call in priority order:

1. an explicit ``cache_dir``/``root`` argument (CLI ``--cache-dir``);
2. the ``REPRO_CACHE_DIR`` environment variable;
3. ``.repro_cache/`` in the current working directory.

Resolution happens at call time, not import time, so tests and the CLI
can redirect every cache by setting the environment variable (or passing
``--cache-dir``, which does exactly that) without reimporting anything.
"""

from __future__ import annotations

import os

#: Fallback cache root when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_ROOT = ".repro_cache"

#: Environment variable that overrides the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable that overrides where result JSON files land.
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"


def cache_root(override: str | None = None) -> str:
    """The cache root directory (not created here)."""
    if override:
        return override
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_ROOT


def dataset_cache_dir(root: str | None = None) -> str:
    """Where :mod:`repro.features.dataset` keeps its npz cache."""
    return os.path.join(cache_root(root), "datasets")


def model_store_dir(root: str | None = None) -> str:
    """Where :class:`repro.models.store.ModelStore` keeps artifacts."""
    return os.path.join(cache_root(root), "models")


def stage_store_dir(root: str | None = None) -> str:
    """Where :mod:`repro.pipeline` keeps per-stage result artifacts."""
    return os.path.join(cache_root(root), "stages")


def obs_dir(root: str | None = None) -> str:
    """Where :mod:`repro.obs` appends trace logs and flight dumps.

    Shares the cache root so every process in one run (coordinator,
    cluster workers, queue workers) writes span files next to each
    other — the ``repro obs`` viewers stitch a trace by reading the
    whole directory.
    """
    return os.path.join(cache_root(root), "obs")


def imported_trace_dir(root: str | None = None) -> str:
    """Where :mod:`repro.frontends.trace_import` publishes ingested traces."""
    return os.path.join(cache_root(root), "imported")


def queue_dir(root: str | None = None) -> str:
    """Where :mod:`repro.pipeline.queue` keeps its distributed work queue.

    Lives under the cache root on purpose: every worker that shares the
    cache root (same host or a shared filesystem) sees the same queue
    *and* the same stage artifact store, which is what makes claiming
    and publishing a single rendezvous point.
    """
    return os.path.join(cache_root(root), "queue")


def results_dir(override: str | None = None, root: str | None = None) -> str:
    """Where experiment/pipeline result JSON files land.

    Resolution mirrors :func:`cache_root`: an explicit override (CLI
    ``--results-dir``), then ``REPRO_RESULTS_DIR``, then ``results/``
    under the cache root — so redirecting the cache relocates results
    with every other artifact instead of littering the working directory.
    """
    if override:
        return override
    env = os.environ.get(RESULTS_DIR_ENV)
    if env:
        return env
    return os.path.join(cache_root(root), "results")


def set_cache_root(path: str | None) -> None:
    """Process-wide cache-root override (the CLI's ``--cache-dir``).

    Exported as ``REPRO_CACHE_DIR`` so worker processes spawned by
    :mod:`repro.runtime` resolve the same root.
    """
    if path:
        os.environ[CACHE_DIR_ENV] = path


def set_results_dir(path: str | None) -> None:
    """Process-wide results-dir override (the CLI's ``--results-dir``).

    Exported as ``REPRO_RESULTS_DIR`` for the same worker-process reason
    as :func:`set_cache_root`.
    """
    if path:
        os.environ[RESULTS_DIR_ENV] = path
