"""Versioned, content-addressed model artifact store.

Layout (under the :mod:`repro.cache` root, ``<root>/models/`` by
default)::

    <store root>/
        perfvec-3f9ab2c41d0e55aa/
            manifest.json       # family, spec, metadata, provenance
            weights.npz         # every learned array

The artifact id is **content-addressed**: a hash over the family, the
spec, the training config, the dataset fingerprint and a digest of the
weight arrays. Storing the same trained model twice is therefore
idempotent, and two different trainings can never collide.

The manifest records the :meth:`~repro.features.dataset.TraceDataset.fingerprint`
of the training data; :meth:`ModelStore.load` rejects an artifact whose
recorded fingerprint does not match the caller's expectation
(:class:`FingerprintMismatch`), so a stored model can never silently be
reused against data it was not trained on. Weight integrity is verified
on every load against the manifest's ``weights_digest``; missing, torn
or tampered weights raise :class:`StoreError`. The store is the only
code that writes or reads an artifact, and both files are published and
read through :mod:`repro.cache`; :meth:`ModelStore.list` skips (and the
cache layer logs) an artifact whose manifest is corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from repro.cache import model_store_dir, publish, read_json, read_npz_arrays
from repro.models.base import PerformanceModel

#: Identity and provenance record inside each artifact directory.
MANIFEST_JSON = "manifest.json"
#: Every learned array of the model, beside the manifest.
WEIGHTS_NPZ = "weights.npz"

#: Bump when the artifact layout changes incompatibly.
STORE_FORMAT = 1


class StoreError(RuntimeError):
    """Missing, unreadable or corrupt artifact."""


class FingerprintMismatch(StoreError):
    """Artifact was trained on different data than the caller expects."""


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def training_provenance(
    scale: str, family: str, benchmarks, isa: str | None = None
) -> dict:
    """The canonical ``train_config`` dict artifacts are keyed by.

    :meth:`repro.api.Session.train`, the one train-or-reuse path, builds
    it here.  ``isa`` (the trace frontend) enters the key only when it is
    not the default, keeping every pre-frontend artifact findable.
    """
    from repro.frontends import DEFAULT_FRONTEND

    config = {"scale": scale, "family": family, "benchmarks": list(benchmarks)}
    if isa is not None and isa != DEFAULT_FRONTEND:
        config["isa"] = isa
    return config


def _digest_arrays(arrays: dict[str, np.ndarray]) -> str:
    """Order-independent content hash of named arrays."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class ModelStore:
    """Content-addressed artifact directory for fitted models."""

    def __init__(self, root: str | None = None):
        self.root = root or model_store_dir()

    def path(self, artifact_id: str) -> str:
        return os.path.join(self.root, artifact_id)

    # -- write ------------------------------------------------------------
    def put(
        self,
        model: PerformanceModel,
        dataset_fingerprint: str | None = None,
        train_config: dict | None = None,
        tag: str | None = None,
    ) -> str:
        """Store a fitted model; returns its content-addressed id.

        ``dataset_fingerprint`` should be the training dataset's
        :meth:`~repro.features.dataset.TraceDataset.fingerprint`;
        ``train_config`` any extra provenance (scale name, benchmark
        split, ...) worth finding the artifact by later.
        """
        arrays = model.state_arrays()
        weights_digest = _digest_arrays(arrays)
        identity = {
            "family": model.family,
            "spec": model.spec,
            "train_config": train_config,
            "dataset_fingerprint": dataset_fingerprint,
            "weights_digest": weights_digest,
        }
        digest = hashlib.sha256(_canonical(identity)).hexdigest()[:16]
        artifact_id = f"{model.family}-{digest}"
        path = self.path(artifact_id)
        manifest_path = os.path.join(path, MANIFEST_JSON)
        if tag is None:
            # re-putting identical content must not erase an earlier tag
            previous, _ = read_json(manifest_path)
            tag = (previous or {}).get("tag")
        publish(
            os.path.join(path, WEIGHTS_NPZ),
            lambda fh: np.savez_compressed(fh, **arrays),
        )
        manifest = {
            "format": STORE_FORMAT,
            "id": artifact_id,
            "family": model.family,
            "spec": model.spec,
            "metadata": model.metadata,
            "train_config": train_config,
            "dataset_fingerprint": dataset_fingerprint,
            "weights_digest": weights_digest,
            "tag": tag,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True)
        publish(manifest_path, lambda fh: fh.write(text.encode()))
        return artifact_id

    # -- read -------------------------------------------------------------
    def exists(self, artifact_id: str) -> bool:
        return os.path.exists(os.path.join(self.path(artifact_id), MANIFEST_JSON))

    def manifest(self, artifact_id: str) -> dict:
        manifest, outcome = read_json(
            os.path.join(self.path(artifact_id), MANIFEST_JSON)
        )
        if outcome == "miss":
            raise StoreError(f"no artifact {artifact_id!r} under {self.root}")
        if manifest is None:
            raise StoreError(f"artifact {artifact_id!r} has a corrupt manifest")
        return manifest

    def load(
        self, artifact_id: str, expect_fingerprint: str | None = None
    ) -> PerformanceModel:
        """Rebuild the stored model, verifying integrity and provenance.

        With ``expect_fingerprint`` the load is refused unless the
        artifact was trained on exactly that dataset.  Reloaded models
        predict byte-identically to the model that was stored.
        """
        from repro.models.registry import create

        manifest = self.manifest(artifact_id)
        if (
            expect_fingerprint is not None
            and manifest.get("dataset_fingerprint") != expect_fingerprint
        ):
            raise FingerprintMismatch(
                f"artifact {artifact_id!r} was trained on dataset "
                f"{manifest.get('dataset_fingerprint')!r}, expected "
                f"{expect_fingerprint!r}"
            )
        arrays, outcome = read_npz_arrays(
            os.path.join(self.path(artifact_id), WEIGHTS_NPZ)
        )
        if outcome == "miss":
            raise StoreError(f"artifact {artifact_id!r} has no weights")
        if arrays is None or _digest_arrays(arrays) != manifest["weights_digest"]:
            raise StoreError(f"artifact {artifact_id!r} weights are corrupt")
        model = create(manifest["family"], **manifest["spec"])
        model.restore(arrays, manifest["metadata"])
        return model

    # -- query ------------------------------------------------------------
    def list(self) -> list[dict]:
        """Every readable stored manifest, newest first (a corrupt one is
        skipped, so one torn artifact cannot hide the others)."""
        if not os.path.isdir(self.root):
            return []
        entries = []
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name, MANIFEST_JSON)
            manifest, _ = read_json(path)
            if manifest is not None:
                entries.append((os.path.getmtime(path), manifest))
        entries.sort(key=lambda item: item[0], reverse=True)
        return [manifest for _, manifest in entries]

    def find(
        self,
        family: str | None = None,
        dataset_fingerprint: str | None = None,
        train_config: dict | None = None,
        spec: dict | None = None,
        tag: str | None = None,
    ) -> str | None:
        """Id of the newest artifact matching every given filter, if any."""
        for manifest in self.list():
            if family is not None and manifest["family"] != family:
                continue
            if (
                dataset_fingerprint is not None
                and manifest.get("dataset_fingerprint") != dataset_fingerprint
            ):
                continue
            if train_config is not None and _canonical(
                manifest.get("train_config")
            ) != _canonical(train_config):
                continue
            if spec is not None and _canonical(manifest["spec"]) != _canonical(spec):
                continue
            if tag is not None and manifest.get("tag") != tag:
                continue
            return manifest["id"]
        return None

    def delete(self, artifact_id: str) -> None:
        """Remove one artifact directory."""
        import shutil

        path = self.path(artifact_id)
        if not os.path.isdir(path):
            raise StoreError(f"no artifact {artifact_id!r} under {self.root}")
        shutil.rmtree(path)


# re-exported for convenience alongside the store
__all__ = [
    "MANIFEST_JSON",
    "STORE_FORMAT",
    "WEIGHTS_NPZ",
    "FingerprintMismatch",
    "ModelStore",
    "StoreError",
    "training_provenance",
]
