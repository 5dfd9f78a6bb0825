"""The ``PerformanceModel`` protocol: one estimator shape for every family.

Every performance model in this repo — PerfVec and the five baselines —
implements the same surface:

* ``fit(dataset, configs=None)`` — train on a
  :class:`~repro.features.dataset.TraceDataset` (families that consume
  microarchitecture *parameters* additionally need the
  :class:`~repro.uarch.config.MicroarchConfig` objects behind the
  dataset's columns).
* ``predict(dataset)`` — per-benchmark predicted **total execution
  times** (0.1 ns ticks), one value per entry of :attr:`config_names`.
  Implemented once, on the base class, over the batched
  ``predict_batch(requests)`` path: the dataset is turned into
  :class:`PredictRequest` items and every family answers the whole batch
  at once (PerfVec runs each feature stream through its own no-grad
  engine pass; parameter families answer from their fitted state).
* ``evaluate(dataset)`` — :class:`~repro.core.errors.ErrorSummary` per
  benchmark against the dataset's simulated ground truth.
* ``state_arrays()`` / ``restore(arrays, metadata)`` — every learned
  array out, and fitted state rebuilt from them; the file I/O belongs to
  :class:`~repro.models.store.ModelStore`, whose reloaded models produce
  **byte-identical** predictions.
* ``spec`` / ``metadata`` — the constructor hyper-parameters and the
  fitted-state summary, both JSON-serializable; together with the weight
  arrays they fully determine the model.

The low-level modules (:mod:`repro.core`, :mod:`repro.baselines`) stay
untouched; adapters in :mod:`repro.models.adapters` wrap them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from repro.core.errors import ErrorSummary, PredictionError, error_summary
from repro.features.dataset import TraceDataset
from repro.uarch.config import MicroarchConfig


class NotFittedError(RuntimeError):
    """Raised when predicting or storing with an unfitted model."""


@dataclass(frozen=True)
class PredictRequest:
    """One unit of batched prediction work.

    Families consume the fields they need and ignore the rest:

    * ``features`` — the ``[n, 51]`` encoded stream (PerfVec's serving
      input; :meth:`PerformanceModel.dataset_requests` fills it from the
      dataset, the serving layer from the feature cache);
    * ``n_instructions`` — trace length, for trace-walking families that
      regenerate the benchmark's trace deterministically;
    * ``signature_times`` — measured times on the signature
      configurations (the cross-program baseline's extra input);
    * ``isa`` — the trace frontend the benchmark name resolves against
      (``None`` means "whatever the model was fitted on"); trace-walking
      families use it to fetch traces through :mod:`repro.frontends`.
    """

    benchmark: str
    features: np.ndarray | None = None
    n_instructions: int | None = None
    signature_times: np.ndarray | None = None
    isa: str | None = None

    def require_features(self) -> np.ndarray:
        if self.features is None:
            raise PredictionError(
                f"request for {self.benchmark!r} carries no feature stream"
            )
        return self.features

    def require_length(self) -> int:
        if self.n_instructions is None:
            raise PredictionError(
                f"request for {self.benchmark!r} carries no trace length"
            )
        return self.n_instructions


class PerformanceModel(abc.ABC):
    """Uniform estimator protocol over all model families."""

    #: Registry key of the family (set by each adapter class).
    family: ClassVar[str] = ""

    #: Constructor hyper-parameter names; drives the generic :attr:`spec`.
    spec_fields: ClassVar[tuple[str, ...]] = ()

    #: What the serving layer must attach to a :class:`PredictRequest`
    #: for this family, drawn from ``{"features", "length",
    #: "signature_times"}`` — ``"features"`` is the encoded feature
    #: stream, ``"length"`` the deterministic trace length,
    #: ``"signature_times"`` the caller-measured times on the signature
    #: configurations.  Empty means the family answers purely from
    #: fitted state (the per-program baselines).
    serve_inputs: ClassVar[tuple[str, ...]] = ()

    # -- identity ---------------------------------------------------------
    @property
    def spec(self) -> dict:
        """Constructor hyper-parameters (JSON-serializable).

        Built generically from :attr:`spec_fields` — every adapter stores
        its constructor arguments as same-named attributes.
        """
        if not self.spec_fields:
            raise NotImplementedError(
                f"{type(self).__name__} must define spec_fields"
            )
        return {name: getattr(self, name) for name in self.spec_fields}

    @property
    def metadata(self) -> dict:
        """Fitted-state summary (JSON-serializable); empty before fit."""
        return {}

    @property
    @abc.abstractmethod
    def config_names(self) -> tuple[str, ...]:
        """Microarchitectures this model predicts, in prediction order."""

    @property
    @abc.abstractmethod
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` (or a restore) has produced usable state."""

    # -- estimator --------------------------------------------------------
    @abc.abstractmethod
    def fit(
        self,
        dataset: TraceDataset,
        configs: list[MicroarchConfig] | None = None,
    ) -> "PerformanceModel":
        """Train on ``dataset``; returns ``self`` for chaining."""

    def dataset_requests(self, dataset: TraceDataset) -> list[PredictRequest]:
        """The :class:`PredictRequest` batch equivalent to ``dataset``.

        The default covers every segment; families whose predictions are
        bound to other inputs (a single fitted benchmark, signature
        measurements) override this.
        """
        return [
            PredictRequest(
                benchmark=name,
                features=dataset.features[start:end],
                n_instructions=end - start,
                isa=dataset.isa,
            )
            for name, start, end in dataset.segments
        ]

    def predict(self, dataset: TraceDataset) -> dict[str, np.ndarray]:
        """Per-benchmark predicted total times, aligned with
        :attr:`config_names` (the batched path over the whole dataset)."""
        requests = self.dataset_requests(dataset)
        results = self.predict_batch(requests)
        return {
            request.benchmark: result
            for request, result in zip(requests, results)
        }

    def predict_batch(
        self, requests: Sequence[PredictRequest]
    ) -> list[np.ndarray]:
        """Answer a whole batch of requests at once.

        Returns one ``(len(config_names),)`` prediction array per request,
        in request order.  This is the single predict implementation every
        family provides (``_predict_batch``); the serving layer calls it
        directly so queued requests share batched inference.
        """
        self._require_fitted()
        requests = list(requests)
        results = self._predict_batch(requests)
        if len(results) != len(requests):
            raise PredictionError(
                f"{type(self).__name__} returned {len(results)} results "
                f"for {len(requests)} requests"
            )
        return results

    @abc.abstractmethod
    def _predict_batch(
        self, requests: list[PredictRequest]
    ) -> list[np.ndarray]:
        """Family-specific batched prediction (fitted state guaranteed)."""

    def evaluate(self, dataset: TraceDataset) -> dict[str, ErrorSummary]:
        """Prediction-error summary per benchmark vs the dataset's truth."""
        columns = [dataset.config_names.index(n) for n in self.config_names]
        truths = dataset.total_times()
        return {
            name: error_summary(pred, truths[name][columns])
            for name, pred in self.predict(dataset).items()
        }

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(
                f"{type(self).__name__} has not been fitted"
            )

    # -- persistence ------------------------------------------------------
    @abc.abstractmethod
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every learned array; with ``spec`` + ``metadata`` this fully
        reconstructs the model."""

    @abc.abstractmethod
    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        """Rebuild fitted state from :meth:`state_arrays` output and the
        stored :attr:`metadata`."""
