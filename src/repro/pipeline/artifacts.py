"""Content-addressed, resumable per-stage artifacts.

Every executed stage persists its (JSON) payload under the cache root at
``<root>/stages/<key>.json``.  The key is a hash over the stage's kind +
version, its resolved parameters, the full scale identity and the keys
of every upstream stage — so a change anywhere upstream transparently
invalidates everything downstream, while an untouched prefix of the DAG
is served from disk without executing.

Heavy data never lives here: dataset stages reference the npz dataset
cache by fingerprint and train stages reference the
:class:`~repro.models.store.ModelStore` by artifact id.  A stage artifact
is therefore small, diff-able provenance — what ran, with which inputs,
producing which references.

The store is safe for **concurrent writers and readers** (the
distributed queue backend runs many worker processes against one root):
records are published and read through :mod:`repro.cache`, a corrupt or
malformed record reads as a miss (the stage recomputes) and is counted,
racing writers of one key converge on a single record with the first
publisher winning by default (``overwrite=False``), and store init reaps
the tmp files a killed writer left behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os

from repro.cache import publish, read_json, reap_tmp, stage_store_dir
from repro.obs.metrics import REGISTRY

log = logging.getLogger(__name__)

#: Bump when the artifact record layout changes incompatibly.
STAGE_STORE_FORMAT = 1


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str).encode()


def stage_key(
    stage, scale, upstream_keys: dict[str, str], version: int,
    extra: dict | None = None,
) -> str:
    """Content address of one stage execution.

    ``extra`` carries kind-specific identity beyond the declared params —
    the analysis kind passes its function's source fingerprint here so
    code edits invalidate cached payloads.
    """
    identity = {
        "format": STAGE_STORE_FORMAT,
        "kind": stage.kind,
        "kind_version": version,
        "params": dict(stage.params),
        "scale": dataclasses.asdict(scale),
        "upstream": dict(sorted(upstream_keys.items())),
    }
    if extra:
        identity["extra"] = extra
    return hashlib.sha256(_canonical(identity)).hexdigest()[:16]


class StageArtifactStore:
    """Flat directory of ``<key>.json`` stage records."""

    def __init__(self, root: str | None = None):
        self.root = root or stage_store_dir()
        reap_tmp(self.root)

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> dict | None:
        """The stored record, or ``None`` on miss/corruption (recompute).

        Corruption still reads as a miss — the stage recomputes and
        republishes — but is counted and logged instead of silently
        indistinguishable from "never ran".
        """
        record, outcome = read_json(self.path(key))
        if outcome == "miss":
            self._count("miss")
            return None
        if record is None:
            self._corrupt(key, "unreadable")
            return None
        if record.get("format") != STAGE_STORE_FORMAT:
            self._corrupt(key, "wrong format marker")
            return None
        if "payload" not in record:
            self._corrupt(key, "record has no payload")
            return None
        self._count("hit")
        return record

    @staticmethod
    def _count(outcome: str) -> None:
        REGISTRY.counter(
            "repro_stage_store_lookups_total",
            "Stage artifact store lookups by outcome.",
            outcome=outcome,
        ).inc()

    def _corrupt(self, key: str, reason: str) -> None:
        self._count("corrupt")
        log.warning(
            "corrupt stage record %s (%s): treating as miss, stage "
            "will recompute", self.path(key), reason,
        )

    def put(
        self,
        key: str,
        stage_name: str,
        kind: str,
        spec_name: str,
        payload: dict,
        seconds: float | None = None,
        cpu_seconds: float | None = None,
        worker: str | None = None,
        overwrite: bool = True,
    ) -> str:
        """Publish one stage record; returns its path.

        With ``overwrite=False`` an existing valid record wins and this
        publication is discarded — the protocol queue workers use so two
        workers racing on one key converge without a rewrite.  Readers
        see one whole record whoever wins.
        """
        path = self.path(key)
        if not overwrite and self.get(key) is not None:
            return path
        record = {
            "format": STAGE_STORE_FORMAT,
            "key": key,
            "stage": stage_name,
            "kind": kind,
            "spec": spec_name,
            "payload": payload,
        }
        if seconds is not None:
            record["seconds"] = round(float(seconds), 6)
        if cpu_seconds is not None:
            record["cpu_seconds"] = round(float(cpu_seconds), 6)
        if worker is not None:
            record["worker"] = worker
        text = json.dumps(record, indent=2, default=str)
        return publish(path, lambda fh: fh.write(text.encode()))

    def drop(self, key: str) -> None:
        try:
            os.remove(self.path(key))
        except OSError:
            pass
