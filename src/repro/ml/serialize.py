"""Model state persistence (npz) with an optional zero-copy mmap path.

:func:`save_arrays` publishes through :func:`repro.cache.publish`, so an
interrupted save never leaves a truncated artifact behind.

:func:`load_arrays` has two modes:

* **eager** (default) — decompress the npz into private in-memory
  arrays, exactly as before;
* **mmap** (``mmap=True``) — serve every array as a *read-only view over
  an OS page-cache mapping*.  Compressed npz members cannot be mapped
  directly, so the first mmap load extracts the archive into a sidecar
  directory (``<path>.mmap/``, one raw ``.npy`` per array plus an
  ``index.json`` recording the source file's identity) and atomically
  publishes it; every later load — from any process — maps those files.
  N serving workers loading the same artifact therefore share **one**
  physical copy of the weights instead of paying N decompressed copies.

The mmap invariants (relied on by :mod:`repro.serving.cluster`):

* returned arrays are **read-only** (``flags.writeable`` is False) —
  mutating shared weights would corrupt every mapped process, so numpy
  refuses in-place writes outright;
* values are bit-identical to the eager load (the sidecar is a lossless
  re-encoding; ``tests/ml/test_serialize_mmap.py`` asserts this for
  every model family);
* the sidecar is invalidated and rebuilt whenever the source npz changes
  (size or mtime), and concurrent extraction from several processes is
  safe — the atomic directory rename means one wins and the rest adopt
  the published copy.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from repro.cache import publish, read_json
from repro.ml.layers import Module

#: Sidecar directory suffix for the mmap extraction of an npz file.
MMAP_SUFFIX = ".mmap"

#: Name of the sidecar's manifest (written last: its presence marks a
#: complete extraction).
MMAP_INDEX = "index.json"


def save_arrays(path: str, arrays: dict[str, np.ndarray]) -> str:
    """Publish named arrays to ``path`` (compressed npz); returns the path.

    Mirrors ``np.savez_compressed``'s naming: a ``.npz`` suffix is added
    when missing.
    """
    if not path.endswith(".npz"):
        path = f"{path}.npz"
    return publish(path, lambda fh: np.savez_compressed(fh, **arrays))


def _source_identity(path: str) -> dict:
    stat = os.stat(path)
    return {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}


def _sidecar_valid(sidecar: str, identity: dict) -> dict | None:
    """The sidecar's index when it matches ``identity``, else None."""
    index, _ = read_json(os.path.join(sidecar, MMAP_INDEX))
    if index is None or index.get("source") != identity:
        return None
    return index


def _extract_sidecar(path: str, sidecar: str, identity: dict) -> dict:
    """Extract ``path``'s arrays into ``sidecar`` (atomic publish).

    Several processes may race here; the directory rename picks one
    winner and everyone else adopts its copy.
    """
    tmp = f"{sidecar}.{os.getpid()}.tmp"
    os.makedirs(tmp, exist_ok=True)
    try:
        files: dict[str, str] = {}
        with np.load(path) as data:
            for i, name in enumerate(data.files):
                filename = f"a{i}.npy"
                np.save(os.path.join(tmp, filename), data[name])
                files[name] = filename
        index = {"source": identity, "arrays": files}
        with open(os.path.join(tmp, MMAP_INDEX), "w") as fh:
            json.dump(index, fh, indent=2, sort_keys=True)
        # a process that published while this one extracted may already
        # be mapping its files: adopt them instead of deleting them
        published = _sidecar_valid(sidecar, identity)
        if published is not None:
            return published
        if os.path.isdir(sidecar):  # stale extraction of an older npz
            shutil.rmtree(sidecar)
        try:
            os.replace(tmp, sidecar)
        except OSError:
            # another process published first; use its (valid) copy
            published = _sidecar_valid(sidecar, identity)
            if published is None:
                raise
            return published
        return index
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


def load_arrays(path: str, mmap: bool = False) -> dict[str, np.ndarray]:
    """Load every array saved by :func:`save_arrays`.

    With ``mmap=True`` each array is a **read-only** view over a shared
    OS page-cache mapping of the sidecar extraction (see the module
    docstring) — values are bit-identical to the eager load, but N
    processes loading the same file share one physical copy.
    """
    if not mmap:
        with np.load(path) as data:
            return {k: data[k] for k in data.files}
    sidecar = f"{path}{MMAP_SUFFIX}"
    identity = _source_identity(path)
    index = _sidecar_valid(sidecar, identity)
    if index is None:
        index = _extract_sidecar(path, sidecar, identity)
    arrays: dict[str, np.ndarray] = {}
    for name, filename in index["arrays"].items():
        mapped = np.load(os.path.join(sidecar, filename), mmap_mode="r")
        # a plain-ndarray view: callers never see the np.memmap subclass
        # (which would otherwise propagate through every computation),
        # but the read-only flag and the shared mapping are preserved
        view = mapped.view(np.ndarray)
        view.flags.writeable = False
        arrays[name] = view
    return arrays


def save_state(model: Module, path: str) -> None:
    """Save a model's parameters to ``path`` (npz, atomic)."""
    save_arrays(path, model.state_dict())


def load_state(model: Module, path: str) -> None:
    """Load parameters saved by :func:`save_state` into ``model``."""
    model.load_state_dict(load_arrays(path))
