"""High-level facade: ``repro.api.Session``.

One object wires the whole serving pipeline together — workloads →
features → store-backed models:

>>> from repro.api import Session
>>> session = Session(scale="smoke")
>>> result = session.train()                    # trains or reuses an artifact
>>> session.predict("505.mcf")                  # {config name: predicted ticks}
>>> session.predict_many(["505.mcf", "519.lbm"])  # one model load, one call
>>> session.evaluate(["505.mcf"])               # {benchmark: ErrorSummary}

``train`` consults the :class:`~repro.models.store.ModelStore` first: an
artifact with the same family, spec, training provenance and dataset
fingerprint is loaded instead of retrained, so warm sessions — including
**fresh processes** — skip straight to serving. ``predict`` never
trains; it refuses with a clear error when no artifact exists.
``predict_many`` is the batched serving path: one model load answers
every distinct benchmark, each cached feature stream through its own
no-grad engine pass (:class:`repro.serving.PredictionService` keeps
models, streams and answers hot for HTTP traffic).

``run_pipeline`` executes a declarative :mod:`repro.pipeline` spec (by
name, object or file path) at the session's scale with per-stage
artifact reuse.

The CLI verbs ``repro train`` / ``repro predict`` / ``repro serve`` /
``repro pipeline ...`` / ``repro models ...`` are thin wrappers over
this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cache import dataset_cache_dir, model_store_dir
from repro.core.errors import (
    ErrorSummary,
    PredictionError,
    UnknownBenchmarkError,
)
from repro.experiments.common import ScaleConfig, get_scale, seen_configs
from repro.features.dataset import (
    DEFAULT_CACHE_DIR,
    TraceDataset,
    build_dataset,
)
from repro.features.feature_cache import encoded_features, feature_cache_dir
from repro.frontends import DEFAULT_FRONTEND, get_frontend
from repro.models import (
    ModelStore,
    PerformanceModel,
    PredictRequest,
    StoreError,
    create,
)
from repro.models.registry import get_family
from repro.models.store import training_provenance
from repro.uarch.config import MicroarchConfig
from repro.workloads import TRAIN_BENCHMARKS


@dataclass(frozen=True)
class TrainResult:
    """What :meth:`Session.train` hands back."""

    artifact_id: str
    model: PerformanceModel
    reused: bool  # True when the store satisfied the request
    errors: dict[str, ErrorSummary] = field(default_factory=dict)


class Session:
    """Train, store, load and serve performance models at one scale."""

    def __init__(
        self,
        scale: str | ScaleConfig = "bench",
        cache_dir: str | None = None,
        jobs: int | None = 1,
        store: ModelStore | None = None,
        frontend: str = DEFAULT_FRONTEND,
    ):
        self.scale = get_scale(scale)
        self.cache_dir = cache_dir  # None -> REPRO_CACHE_DIR / .repro_cache
        self.jobs = jobs
        # which trace source benchmark names resolve against; validates
        # eagerly (unknown names raise with suggestions)
        self.frontend = get_frontend(frontend).name
        self.store = store or ModelStore(model_store_dir(cache_dir))
        self._datasets: dict[tuple[str, ...], TraceDataset] = {}
        self._features: dict[str, np.ndarray] = {}

    # -- shared ingredients ----------------------------------------------
    def configs(self) -> list[MicroarchConfig]:
        """The scale's sampled training microarchitectures."""
        return seen_configs(self.scale)

    def dataset(self, benchmarks: tuple[str, ...] | list[str]) -> TraceDataset:
        """Cached (features, per-config targets) over ``benchmarks``."""
        key = tuple(benchmarks)
        ds = self._datasets.get(key)
        if ds is None:
            ds = build_dataset(
                list(benchmarks), self.configs(), self.scale.instructions,
                cache_dir=(
                    dataset_cache_dir(self.cache_dir)
                    if self.cache_dir else DEFAULT_CACHE_DIR
                ),
                jobs=self.jobs,
                isa=self.frontend,
            )
            self._datasets[key] = ds
        return ds

    def _validate_benchmark(self, benchmark: str) -> None:
        known = get_frontend(self.frontend).benchmarks()
        if benchmark not in known:
            raise UnknownBenchmarkError(benchmark, known)

    def default_spec(self, family: str) -> dict:
        """Scale-derived hyper-parameters for a family (perfvec only —
        baseline adapters carry their own defaults)."""
        if family == "perfvec":
            return {
                "arch": self.scale.spec,
                "chunk_len": self.scale.chunk_len,
                "batch_size": self.scale.batch_size,
                "epochs": self.scale.epochs,
                "seed": self.scale.seed,
            }
        return {}

    # -- training ---------------------------------------------------------
    def train(
        self,
        family: str = "perfvec",
        benchmarks: tuple[str, ...] | None = TRAIN_BENCHMARKS,
        reuse: bool = True,
        evaluate: bool = True,
        tag: str | None = None,
        **overrides,
    ) -> TrainResult:
        """Train ``family`` on ``benchmarks`` — or reuse a stored artifact.

        The store is queried by (family, spec, training provenance,
        dataset fingerprint); an exact hit is loaded instead of
        retrained. ``overrides`` feed the family's constructor.
        ``benchmarks=None`` means the session frontend's training split.
        """
        if benchmarks is None or (
            benchmarks is TRAIN_BENCHMARKS
            and self.frontend != DEFAULT_FRONTEND
        ):
            benchmarks = get_frontend(self.frontend).train_benchmarks()
        dataset = self.dataset(benchmarks)
        fingerprint = dataset.fingerprint()
        spec = {**self.default_spec(family), **overrides}
        # materialize the full spec (constructor defaults included) so the
        # store lookup is exact
        spec = create(family, **spec).spec
        train_config = self._train_config(family, benchmarks)
        artifact_id = None
        if reuse:
            artifact_id = self.store.find(
                family=family, dataset_fingerprint=fingerprint, spec=spec,
                train_config=train_config,
            )
        if artifact_id is not None:
            model = self.store.load(artifact_id, expect_fingerprint=fingerprint)
            reused = True
        else:
            with obs.span(
                "session.train", family=family, scale=self.scale.name
            ):
                model = create(family, **spec).fit(
                    dataset, configs=self.configs()
                )
            artifact_id = self.store.put(
                model, dataset_fingerprint=fingerprint,
                train_config=train_config, tag=tag,
            )
            reused = False
        errors = model.evaluate(dataset) if evaluate else {}
        return TrainResult(
            artifact_id=artifact_id, model=model, reused=reused, errors=errors
        )

    def _train_config(
        self, family: str, benchmarks: tuple[str, ...] | list[str]
    ) -> dict:
        return training_provenance(
            self.scale.name, family, benchmarks, isa=self.frontend
        )

    # -- serving ----------------------------------------------------------
    def resolve_artifact(
        self, family: str = "perfvec", artifact: str | None = None
    ) -> str:
        """The artifact id :meth:`model` would serve (without loading it).

        ``artifact`` pins an id; otherwise the newest artifact of
        ``family`` trained at this session's scale is used. There is no
        cross-scale fallback: scales sample *different*
        microarchitectures under the same names, so serving another
        scale's artifact here would silently mislabel every prediction —
        pin ``artifact`` explicitly to do that on purpose.
        """
        if artifact is not None:
            return artifact
        get_family(family)  # fail early on unknown families
        for manifest in self.store.list():
            if manifest["family"] != family:
                continue
            train_config = manifest.get("train_config") or {}
            if (
                train_config.get("scale") == self.scale.name
                and train_config.get("isa", DEFAULT_FRONTEND) == self.frontend
            ):
                return manifest["id"]
        raise StoreError(
            f"no stored {family!r} artifact for scale "
            f"{self.scale.name!r} under {self.store.root}; "
            "run Session.train() (or `repro train`) first"
        )

    def model(
        self, artifact: str | None = None, family: str = "perfvec"
    ) -> PerformanceModel:
        """Load a stored model — never trains (see :meth:`resolve_artifact`)."""
        return self.store.load(self.resolve_artifact(family, artifact))

    def features(self, benchmark: str, memo: bool = True) -> np.ndarray:
        """The benchmark's encoded feature stream at this session's scale.

        Validated against the workload suite, then served from the
        in-memory memo or the content-addressed on-disk feature cache —
        repeated predictions never re-encode (let alone re-trace) a
        benchmark.  The memo is unbounded (right for short-lived
        sessions); callers with their own bounded cache — the serving
        layer's feature LRU — pass ``memo=False`` so evicted streams
        actually free memory.
        """
        self._validate_benchmark(benchmark)
        stream = self._features.get(benchmark)
        if stream is None:
            stream = encoded_features(
                benchmark, self.scale.instructions,
                cache_dir=(
                    feature_cache_dir(self.cache_dir)
                    if self.cache_dir else "auto"
                ),
                isa=self.frontend,
            )
            if memo:
                self._features[benchmark] = stream
        return stream

    def serve_request(
        self,
        model: PerformanceModel,
        benchmark: str,
        features: np.ndarray | None = None,
        signature_times=None,
    ) -> PredictRequest:
        """A :class:`PredictRequest` carrying exactly what ``model`` needs.

        The family's :attr:`~repro.models.base.PerformanceModel.serve_inputs`
        declares its serving inputs: feature streams come from this
        session's cache (or a caller-prefetched ``features`` array — the
        serving layer's LRU), trace lengths from the session's scale, and
        signature-configuration times from the caller (the cross-program
        baseline's measured inputs).  Benchmark names are validated here,
        before any feature work.
        """
        self._validate_benchmark(benchmark)
        needs = model.serve_inputs
        kwargs: dict = {}
        if "features" in needs:
            kwargs["features"] = (
                features if features is not None else self.features(benchmark)
            )
        if "length" in needs:
            kwargs["n_instructions"] = self.scale.instructions
        if "signature_times" in needs:
            if signature_times is None:
                raise PredictionError(
                    f"family {model.family!r} predicts from measured "
                    f"signature-configuration times; pass signature_times "
                    f"for {benchmark!r}"
                )
            kwargs["signature_times"] = np.asarray(
                signature_times, dtype=np.float64
            )
        return PredictRequest(
            benchmark=benchmark, isa=self.frontend, **kwargs
        )

    def predict(
        self,
        benchmark: str,
        config: str | None = None,
        artifact: str | None = None,
        family: str = "perfvec",
        signature_times=None,
    ) -> dict[str, float] | float:
        """Predicted total execution time (0.1 ns ticks) for ``benchmark``.

        Pure serving: a stored model answers from its serving inputs (no
        simulation), for every microarchitecture it knows — or just
        ``config``.  Every family serves: ``perfvec`` from the cached
        feature stream, the trace-walking baselines from the scale's
        deterministic trace, the per-program baselines from fitted
        state, and ``cross_program`` from caller-measured
        ``signature_times``.
        """
        times = self.predict_many(
            [benchmark], artifact=artifact, family=family,
            signature_times=(
                None if signature_times is None
                else {benchmark: signature_times}
            ),
        )[benchmark]
        if config is not None:
            return times[config]
        return times

    def predict_many(
        self,
        benchmarks: tuple[str, ...] | list[str],
        artifact: str | None = None,
        family: str = "perfvec",
        signature_times: dict | None = None,
    ) -> dict[str, dict[str, float]]:
        """Batched serving: one model load, one ``predict_batch`` call.

        Returns ``{benchmark: {config name: predicted ticks}}``; a
        repeated name is answered once.  ``signature_times`` maps
        benchmark name to its measured times on the signature
        configurations (required by ``cross_program`` only).
        """
        model = self.model(artifact, family)
        signature_times = signature_times or {}
        requests = [
            self.serve_request(
                model, name, signature_times=signature_times.get(name)
            )
            for name in dict.fromkeys(benchmarks)
        ]
        with obs.span(
            "session.predict", family=family, benchmarks=len(requests)
        ):
            results = model.predict_batch(requests)
        return {
            request.benchmark: dict(
                zip(model.config_names, result.tolist())
            )
            for request, result in zip(requests, results)
        }

    def evaluate(
        self,
        benchmarks: tuple[str, ...] | list[str],
        artifact: str | None = None,
        family: str = "perfvec",
    ) -> dict[str, ErrorSummary]:
        """Stored-model prediction error vs simulated ground truth."""
        model = self.model(artifact, family)
        return model.evaluate(self.dataset(benchmarks))

    # -- pipelines --------------------------------------------------------
    def run_pipeline(
        self,
        spec,
        save: bool = False,
        force: bool = False,
        results_dir: str | None = None,
        backend="local",
        workers: int = 0,
        backend_options: dict | None = None,
    ):
        """Execute a pipeline spec at this session's scale.

        ``spec`` is a registered spec name, an
        :class:`~repro.pipeline.ExperimentSpec`, or a path to a
        ``.toml``/``.json`` spec file.  Stages reuse their
        content-addressed artifacts (under this session's cache root),
        so repeating a pipeline re-executes only invalidated stages.
        ``backend``/``workers`` select the executor — ``"queue"`` with
        ``workers=N`` runs stages on N queue worker processes (plus any
        external ``repro pipeline worker`` sharing the cache root).
        Returns a :class:`~repro.pipeline.PipelineResult`.
        """
        from repro.pipeline import ExperimentSpec, Runner, SpecError, get_spec

        if isinstance(spec, str):
            spec = get_spec(spec)
        if not isinstance(spec, ExperimentSpec):  # a SweepSpec
            raise SpecError(
                f"spec {spec.name!r} declares a sweep grid; expand it with "
                "repro.pipeline.run_sweep (or `repro pipeline sweep`), or "
                "pass spec.base to run one scenario"
            )
        return Runner(
            spec, scale=self.scale, cache_dir=self.cache_dir,
            results_dir=results_dir, jobs=self.jobs, save=save, force=force,
            backend=backend, workers=workers, backend_options=backend_options,
        ).run()

    # -- inspection -------------------------------------------------------
    def models(self) -> list[dict]:
        """Manifests of every stored artifact, newest first."""
        return self.store.list()


def predicted_times_row(times: dict[str, float]) -> str:
    """One-line rendering of a :meth:`Session.predict` result."""
    return "  ".join(f"{name}={ticks:.4g}" for name, ticks in times.items())


__all__ = ["Session", "TrainResult", "predicted_times_row"]
