"""Where every on-disk cache lives, and how its files are written and read.

Every on-disk cache (datasets, feature streams, model artifacts, stage
records, the sweep queue, imported traces) lives under one *cache root*,
resolved per call in priority order:

1. an explicit ``cache_dir``/``root`` argument (CLI ``--cache-dir``);
2. the ``REPRO_CACHE_DIR`` environment variable;
3. ``.repro_cache/`` in the current working directory.

Resolution happens at call time, not import time, so tests and the CLI
can redirect every cache by setting the environment variable (or passing
``--cache-dir``, which does exactly that) without reimporting anything.

Every file a store keeps under the root or the results dir is written
with :func:`publish`, read with :func:`read_json`, :func:`read_npz` or
:func:`read_npz_arrays`, and its killed writers' tmp files are deleted
by :func:`reap_tmp`.  A reader sees the old file or the new one, never
a torn one.  There is no ``fsync``: every file here can be rebuilt from
its inputs, so a crash may cost a recompute but never serves a torn
file.
"""

from __future__ import annotations

import json
import logging
import os
import time
import uuid
import zipfile
import zlib
from typing import IO, Any, Callable

import numpy as np

log = logging.getLogger(__name__)

#: Fallback cache root when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_ROOT = ".repro_cache"

#: Environment variable that overrides the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable that overrides where result JSON files land.
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"

#: A ``.tmp`` file older than this belongs to no live writer (live
#: writers hold theirs for milliseconds), so :func:`reap_tmp` deletes it.
STALE_TMP_SECONDS = 600.0


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


# ---------------------------------------------------------------------------
# the file contract
# ---------------------------------------------------------------------------
def publish(path: str, write: Callable[[IO[bytes]], Any]) -> str:
    """Replace ``path`` whole with what ``write`` puts in a binary file.

    ``write`` fills a unique sibling ``<path>.<pid>.<8 hex>.tmp``, which
    ``os.replace`` then renames over ``path``; if ``write`` raises, the
    tmp file is removed and ``path`` is left as it was.  Returns ``path``.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


def _corrupt(path: str, reason: Exception) -> tuple[None, str]:
    log.warning("corrupt cache file %s (%r)", path, reason)
    return None, "corrupt"


def read_json(path: str) -> tuple[dict | None, str]:
    """``(object, outcome)`` for the JSON object at ``path``.

    The outcome is ``"hit"``, ``"miss"`` (no file; the value is None) or
    ``"corrupt"`` (present but not a whole JSON object; logged, and the
    value is None).
    """
    try:
        with open(path, "rb") as fh:
            value = json.load(fh)
    except FileNotFoundError:
        return None, "miss"
    except (OSError, ValueError) as exc:  # ValueError: torn JSON, bad UTF-8
        return _corrupt(path, exc)
    if not isinstance(value, dict):
        return _corrupt(path, ValueError("not a JSON object"))
    return value, "hit"


def read_npz(path: str, *keys: str) -> tuple[tuple[np.ndarray, ...] | None, str]:
    """``(arrays, outcome)``: the ``keys`` arrays of the npz at ``path``.

    Outcomes as for :func:`read_json`; a torn archive, an empty file or a
    missing key is ``"corrupt"``.
    """
    return _read_npz(path, lambda data: tuple(data[key] for key in keys))


def read_npz_arrays(path: str) -> tuple[dict[str, np.ndarray] | None, str]:
    """``(arrays, outcome)``: every array of the npz at ``path``, by name.

    Outcomes as for :func:`read_npz`.
    """
    return _read_npz(path, lambda data: {name: data[name] for name in data.files})


def _read_npz(path: str, take: Callable[[Any], Any]) -> tuple[Any, str]:
    try:
        with np.load(path) as data:
            return take(data), "hit"
    except FileNotFoundError:
        return None, "miss"
    except (OSError, ValueError, KeyError, EOFError,  # EOFError: empty file
            zipfile.BadZipFile, zlib.error) as exc:
        return _corrupt(path, exc)


def reap_tmp(directory: str) -> int:
    """Delete the stale ``.tmp`` files in ``directory``; returns how many.

    A writer killed between its write and its rename leaves its tmp file
    behind.  One older than :data:`STALE_TMP_SECONDS` cannot belong to a
    live writer; a fresher one may be mid-publish and is kept.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    now = time.time()
    reaped = 0
    for name in names:
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        try:
            if now - os.stat(path).st_mtime > STALE_TMP_SECONDS:
                os.remove(path)
                reaped += 1
        except OSError:
            continue  # vanished under us: another reaper won
    return reaped
