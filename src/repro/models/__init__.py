"""Unified model-facing public API.

* :mod:`~repro.models.base` — the :class:`PerformanceModel` estimator
  protocol every family implements (``fit`` / ``predict`` / ``evaluate``
  plus ``spec`` / ``metadata`` and the ``state_arrays`` / ``restore``
  pair the store persists).
* :mod:`~repro.models.adapters` — thin adapters putting
  :class:`repro.core.perfvec.PerfVec` and the five baselines behind the
  protocol (the low-level modules are untouched).
* :mod:`~repro.models.registry` — family name → factory; the CLI,
  experiments and :class:`repro.api.Session` construct models here.
* :mod:`~repro.models.store` — the versioned, content-addressed artifact
  store (``ModelStore``) with dataset-fingerprint provenance checks: the
  only code that writes or reads a model artifact.
"""

from repro.core.errors import PredictionError, UnknownBenchmarkError
from repro.models.base import (
    NotFittedError,
    PerformanceModel,
    PredictRequest,
)
from repro.models.registry import available, create, get_family, register
from repro.models.store import FingerprintMismatch, ModelStore, StoreError
from repro.models.adapters import (
    ActBoostAdapter,
    CrossProgramAdapter,
    IthemalAdapter,
    PerfVecModel,
    ProgramSpecificAdapter,
    SimNetAdapter,
)

__all__ = [
    "PerformanceModel",
    "PredictRequest",
    "PredictionError",
    "UnknownBenchmarkError",
    "NotFittedError",
    "register",
    "create",
    "available",
    "get_family",
    "ModelStore",
    "StoreError",
    "FingerprintMismatch",
    "PerfVecModel",
    "IthemalAdapter",
    "SimNetAdapter",
    "ProgramSpecificAdapter",
    "CrossProgramAdapter",
    "ActBoostAdapter",
]
