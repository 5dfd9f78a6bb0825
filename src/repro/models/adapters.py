"""Thin :class:`~repro.models.base.PerformanceModel` adapters.

One adapter per model family, wrapping the untouched low-level modules:
``perfvec`` wraps :func:`repro.core.training.train_foundation` /
:class:`repro.core.perfvec.PerfVec`; ``ithemal``, ``simnet``,
``program_specific``, ``cross_program`` and ``actboost`` wrap their
:mod:`repro.baselines` counterparts.

Prediction is the shared batched path of the protocol: the base class
turns a dataset into :class:`~repro.models.base.PredictRequest` items and
each adapter implements one ``_predict_batch``; the ``spec`` dict is
likewise generic (``spec_fields`` names the constructor arguments).

Families that consume microarchitecture *parameters* (``simnet``,
``program_specific``, ``cross_program``, ``actboost``) need the
:class:`~repro.uarch.config.MicroarchConfig` objects behind the dataset's
columns at fit time (``configs=``) and snapshot whatever they need from
them, so stored artifacts predict without the objects.  Trace-walking
families (``ithemal``, ``simnet``) regenerate each benchmark's trace
deterministically from the request's trace length, keeping traces out of
the artifact.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.actboost import AdaBoostR2
from repro.baselines.cross_program import CrossProgramPredictor
from repro.baselines.ithemal import IthemalModel, extract_basic_blocks
from repro.baselines.program_specific import ProgramSpecificMLP
from repro.baselines.simnet import SIMNET_FEATURES, SimNetModel, simnet_features
from repro.baselines.trees import RegressionTree
from repro.core.errors import PredictionError
from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable
from repro.core.training import FoundationTrainConfig, train_foundation
from repro.features.dataset import TraceDataset
from repro.ml.layers import MLP
from repro.ml.trainer import TrainHistory
from repro.models.base import PerformanceModel, PredictRequest
from repro.models.registry import register
from repro.frontends import DEFAULT_FRONTEND, get_frontend
from repro.uarch.config import MicroarchConfig, config_from_dict


def _require_configs(
    family: str,
    dataset: TraceDataset,
    configs: list[MicroarchConfig] | None,
) -> list[MicroarchConfig]:
    if configs is None:
        raise ValueError(
            f"the {family!r} family consumes microarchitecture parameters: "
            "pass configs= (the MicroarchConfig list behind the dataset "
            "columns) to fit()"
        )
    names = tuple(c.name for c in configs)
    if names != dataset.config_names:
        raise ValueError(
            "configs must match the dataset's config columns in order: "
            f"{names} vs {dataset.config_names}"
        )
    return configs


def _config_params(configs: list[MicroarchConfig]) -> np.ndarray:
    return np.stack([c.to_feature_vector() for c in configs]).astype(np.float64)


def _resolve_column(dataset: TraceDataset, config_name: str | None) -> int:
    """Target column of a one-uarch family (first column by default)."""
    return dataset.config_names.index(config_name) if config_name else 0


def _prefixed(prefix: str, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {f"{prefix}{k}": v for k, v in arrays.items()}


def _unprefixed(prefix: str, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {
        k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)
    }


class _BaselineAdapter(PerformanceModel):
    """Shared baseline plumbing: fitted state lives in ``_model`` and the
    prediction columns in ``_config_names`` (overridable)."""

    _model = None
    _config_names: tuple[str, ...] = ()

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    @property
    def config_names(self) -> tuple[str, ...]:
        return self._config_names


# ---------------------------------------------------------------------------
# PerfVec
# ---------------------------------------------------------------------------
@register
class PerfVecModel(PerformanceModel):
    """The paper's model: foundation + microarchitecture table."""

    family = "perfvec"
    spec_fields = (
        "arch", "chunk_len", "batch_size", "epochs", "lr", "lr_step",
        "lr_gamma", "seed",
    )
    serve_inputs = ("features",)

    def __init__(self, arch: str = "lstm-2-256", chunk_len: int = 64,
                 batch_size: int = 16, epochs: int = 50, lr: float = 1e-3,
                 lr_step: int = 10, lr_gamma: float = 0.1, seed: int = 0):
        self.arch = arch
        self.chunk_len = chunk_len
        self.batch_size = batch_size
        self.epochs = epochs
        self.lr = lr
        self.lr_step = lr_step
        self.lr_gamma = lr_gamma
        self.seed = seed
        self.perfvec: PerfVec | None = None
        self.history: TrainHistory | None = None

    @property
    def metadata(self) -> dict:
        if self.perfvec is None:
            return {}
        meta: dict = {"config_names": list(self.perfvec.table.config_names)}
        if self.history is not None:
            meta["history"] = {
                "train_losses": self.history.train_losses,
                "val_losses": self.history.val_losses,
                "best_epoch": self.history.best_epoch,
                "best_val_loss": self.history.best_val_loss,
                "seconds": self.history.seconds,
            }
        return meta

    @property
    def config_names(self) -> tuple[str, ...]:
        return self.perfvec.table.config_names if self.perfvec else ()

    @property
    def is_fitted(self) -> bool:
        return self.perfvec is not None

    def fit(self, dataset: TraceDataset,
            configs: list[MicroarchConfig] | None = None) -> "PerfVecModel":
        config = FoundationTrainConfig(
            spec=self.arch, chunk_len=self.chunk_len,
            batch_size=self.batch_size, epochs=self.epochs, lr=self.lr,
            lr_step=self.lr_step, lr_gamma=self.lr_gamma, seed=self.seed,
        )
        self.perfvec, self.history = train_foundation(dataset, config)
        return self

    #: Engine batch size for serving, bigger than training's: a no-grad
    #: pass keeps no gradient history, only each layer's outputs and one
    #: block of input projections (:mod:`repro.ml.recurrent`), so wider
    #: BLAS calls win.
    infer_batch = 256

    def _predict_batch(
        self, requests: list[PredictRequest]
    ) -> list[np.ndarray]:
        # one no-grad engine pass per request (callers collapse repeats
        # first).  Chunk batching stays within a stream on purpose:
        # packing chunks of co-batched requests into shared BLAS calls
        # makes results depend on traffic composition at the ULP level,
        # and serving promises answers bitwise identical to the solo
        # path no matter what else is in the batch.
        return [
            self.perfvec.predict_many_program_times(
                [request.require_features()], chunk_len=self.chunk_len,
                batch_size=self.infer_batch,
            )[0]
            for request in requests
        ]

    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_fitted()
        return self.perfvec.state_dict()

    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        names = tuple(metadata["config_names"])
        foundation = make_foundation(self.arch, seed=self.seed)
        table = MicroarchTable(len(names), foundation.dim, config_names=names)
        model = PerfVec(foundation, table)
        model.load_state_dict(arrays)
        model.eval()
        self.perfvec = model
        history = metadata.get("history")
        self.history = TrainHistory(**history) if history else None


# ---------------------------------------------------------------------------
# Ithemal (basic-block LSTM, per microarchitecture)
# ---------------------------------------------------------------------------
@register
class IthemalAdapter(_BaselineAdapter):
    """Basic-block walker; one model per microarchitecture."""

    family = "ithemal"
    spec_fields = (
        "config_name", "embed_dim", "hidden", "epochs", "batch_size", "lr",
        "seed", "max_block_len", "trace_seed",
    )
    serve_inputs = ("length",)

    def __init__(self, config_name: str | None = None, embed_dim: int = 8,
                 hidden: int = 16, epochs: int = 4, batch_size: int = 64,
                 lr: float = 5e-3, seed: int = 0, max_block_len: int = 16,
                 trace_seed: int | None = None):
        self.config_name = config_name
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.max_block_len = max_block_len
        self.trace_seed = trace_seed
        self._model: IthemalModel | None = None
        self._resolved_config: str | None = None
        self._isa: str = DEFAULT_FRONTEND

    @property
    def metadata(self) -> dict:
        if self._model is None:
            return {}
        return {
            "config_name": self._resolved_config,
            "scale": self._model._scale,
            "isa": self._isa,
        }

    @property
    def config_names(self) -> tuple[str, ...]:
        return (self._resolved_config,) if self._resolved_config else ()

    def _blocks(
        self, name: str, n_instructions: int,
        latencies: np.ndarray | None, isa: str | None = None,
    ):
        trace = get_frontend(isa or self._isa).trace(
            name, n_instructions, seed=self.trace_seed
        )
        if latencies is None:
            # serving: block structure only — sized to the trace the
            # frontend actually produced (imports may be shorter than
            # the requested budget)
            latencies = np.zeros(len(trace))
        return extract_basic_blocks(trace, latencies, self.max_block_len)

    def fit(self, dataset: TraceDataset,
            configs: list[MicroarchConfig] | None = None) -> "IthemalAdapter":
        column = _resolve_column(dataset, self.config_name)
        self._resolved_config = dataset.config_names[column]
        self._isa = dataset.isa
        blocks = []
        for name, start, end in dataset.segments:
            latencies = dataset.targets[start:end, column].astype(np.float64)
            blocks.extend(self._blocks(name, end - start, latencies))
        self._model = IthemalModel(
            embed_dim=self.embed_dim, hidden=self.hidden, seed=self.seed
        ).fit(blocks, epochs=self.epochs, batch_size=self.batch_size,
              lr=self.lr, seed=self.seed)
        return self

    def _predict_batch(
        self, requests: list[PredictRequest]
    ) -> list[np.ndarray]:
        out = []
        for request in requests:
            n = request.require_length()
            # block structure depends only on the trace, not on latencies
            blocks = self._blocks(
                request.benchmark, n, None, isa=request.isa
            )
            out.append(np.array([float(self._model.predict(blocks).sum())]))
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_fitted()
        return self._model.state_dict()

    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        model = IthemalModel(
            embed_dim=self.embed_dim, hidden=self.hidden, seed=self.seed
        )
        model.load_state_dict(arrays)
        model._scale = float(metadata["scale"])
        self._model = model
        self._resolved_config = metadata["config_name"]
        self._isa = metadata.get("isa", DEFAULT_FRONTEND)


# ---------------------------------------------------------------------------
# SimNet (per-instruction MLP over uarch-dependent features)
# ---------------------------------------------------------------------------
@register
class SimNetAdapter(_BaselineAdapter):
    """Per-instruction walker over microarchitecture-dependent features."""

    family = "simnet"
    spec_fields = (
        "config_name", "hidden", "layers", "epochs", "batch_size", "lr",
        "seed", "trace_seed",
    )
    serve_inputs = ("length",)

    def __init__(self, config_name: str | None = None, hidden: int = 16,
                 layers: int = 2, epochs: int = 3, batch_size: int = 512,
                 lr: float = 3e-3, seed: int = 0,
                 trace_seed: int | None = None):
        self.config_name = config_name
        self.hidden = hidden
        self.layers = layers
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.trace_seed = trace_seed
        self._model: SimNetModel | None = None
        self._config: MicroarchConfig | None = None
        self._isa: str = DEFAULT_FRONTEND

    @property
    def metadata(self) -> dict:
        if self._model is None:
            return {}
        return {
            "config": self._config.to_dict(),
            "scale": self._model._scale,
            "isa": self._isa,
        }

    @property
    def config_names(self) -> tuple[str, ...]:
        return (self._config.name,) if self._config else ()

    def fit(self, dataset: TraceDataset,
            configs: list[MicroarchConfig] | None = None) -> "SimNetAdapter":
        configs = _require_configs(self.family, dataset, configs)
        column = _resolve_column(dataset, self.config_name)
        self._config = configs[column]
        self._isa = dataset.isa
        frontend = get_frontend(dataset.isa)
        features, latencies = [], []
        for name, start, end in dataset.segments:
            trace = frontend.trace(name, end - start, seed=self.trace_seed)
            features.append(simnet_features(trace, self._config))
            latencies.append(
                dataset.targets[start:end, column].astype(np.float64)
            )
        self._model = SimNetModel(
            hidden=self.hidden, layers=self.layers, epochs=self.epochs,
            batch_size=self.batch_size, lr=self.lr, seed=self.seed,
        ).fit(np.concatenate(features), np.concatenate(latencies))
        return self

    def _predict_batch(
        self, requests: list[PredictRequest]
    ) -> list[np.ndarray]:
        out = []
        for request in requests:
            trace = get_frontend(request.isa or self._isa).trace(
                request.benchmark, request.require_length(),
                seed=self.trace_seed,
            )
            feats = simnet_features(trace, self._config)
            out.append(np.array([self._model.predict_total_time(feats)]))
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_fitted()
        return self._model._net.state_dict()

    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        model = SimNetModel(
            hidden=self.hidden, layers=self.layers, epochs=self.epochs,
            batch_size=self.batch_size, lr=self.lr, seed=self.seed,
        )
        sizes = [SIMNET_FEATURES] + [self.hidden] * (self.layers - 1) + [1]
        model._net = MLP(sizes, rng=np.random.default_rng(self.seed))
        model._net.load_state_dict(arrays)
        model._scale = float(metadata["scale"])
        self._model = model
        self._config = config_from_dict(metadata["config"])
        self._isa = metadata.get("isa", DEFAULT_FRONTEND)


class _SingleBenchmarkAdapter(_BaselineAdapter):
    """Shared shape of the per-program parameter families.

    These models are fitted to *one* benchmark's times over the sampled
    microarchitectures; a prediction request is only answerable for that
    benchmark, and the answer comes entirely from fitted state.
    """

    _resolved_benchmark: str | None = None

    def dataset_requests(self, dataset: TraceDataset) -> list[PredictRequest]:
        return [PredictRequest(benchmark=self._resolved_benchmark)]

    def _predict_one(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _predict_batch(
        self, requests: list[PredictRequest]
    ) -> list[np.ndarray]:
        out = []
        for request in requests:
            if request.benchmark != self._resolved_benchmark:
                raise PredictionError(
                    f"{type(self).__name__} is fitted to benchmark "
                    f"{self._resolved_benchmark!r}, not {request.benchmark!r}"
                )
            out.append(self._predict_one())
        return out


# ---------------------------------------------------------------------------
# Program-specific MLP (Ipek-style, one model per program)
# ---------------------------------------------------------------------------
@register
class ProgramSpecificAdapter(_SingleBenchmarkAdapter):
    """uarch parameters -> execution time, for one program."""

    family = "program_specific"
    spec_fields = ("benchmark", "hidden", "layers", "epochs", "lr", "seed")

    def __init__(self, benchmark: str | None = None, hidden: int = 32,
                 layers: int = 2, epochs: int = 500, lr: float = 5e-3,
                 seed: int = 0):
        self.benchmark = benchmark
        self.hidden = hidden
        self.layers = layers
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._model: ProgramSpecificMLP | None = None
        self._resolved_benchmark: str | None = None
        self._config_names: tuple[str, ...] = ()
        self._params: np.ndarray | None = None

    @property
    def metadata(self) -> dict:
        if self._model is None:
            return {}
        return {
            "benchmark": self._resolved_benchmark,
            "config_names": list(self._config_names),
            "scale": self._model._scale,
        }

    def fit(self, dataset: TraceDataset,
            configs: list[MicroarchConfig] | None = None,
            ) -> "ProgramSpecificAdapter":
        configs = _require_configs(self.family, dataset, configs)
        bench = self.benchmark or dataset.segments[0][0]
        times = dataset.total_times()[bench]
        self._model = ProgramSpecificMLP(
            hidden=self.hidden, layers=self.layers, epochs=self.epochs,
            lr=self.lr, seed=self.seed,
        ).fit(configs, times)
        self._resolved_benchmark = bench
        self._config_names = dataset.config_names
        self._params = ProgramSpecificMLP.encode(configs)
        return self

    def _predict_one(self) -> np.ndarray:
        return self._model.predict_params(self._params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_fitted()
        arrays = _prefixed("net.", self._model._net.state_dict())
        arrays["config_params"] = self._params
        return arrays

    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        params = arrays["config_params"]
        model = ProgramSpecificMLP(
            hidden=self.hidden, layers=self.layers, epochs=self.epochs,
            lr=self.lr, seed=self.seed,
        )
        sizes = [params.shape[1]] + [self.hidden] * (self.layers - 1) + [1]
        model._net = MLP(sizes, rng=np.random.default_rng(self.seed))
        model._net.load_state_dict(_unprefixed("net.", arrays))
        model._scale = float(metadata["scale"])
        self._model = model
        self._resolved_benchmark = metadata["benchmark"]
        self._config_names = tuple(metadata["config_names"])
        self._params = params


# ---------------------------------------------------------------------------
# Cross-program (Dubach-style transferable linear predictor)
# ---------------------------------------------------------------------------
@register
class CrossProgramAdapter(_BaselineAdapter):
    """Shared ridge model over uarch parameters + program signatures.

    Per the baseline's semantics, prediction for a program uses its
    *measured* times on the few signature configurations — so requests
    carry ``signature_times``, read from the evaluation dataset's
    simulated ground truth (the signature runs are always simulations).
    """

    family = "cross_program"
    spec_fields = ("n_signature", "ridge")
    serve_inputs = ("signature_times",)

    def __init__(self, n_signature: int = 3, ridge: float = 1e-3):
        self.n_signature = n_signature
        self.ridge = ridge
        self._model: CrossProgramPredictor | None = None
        self._config_names: tuple[str, ...] = ()
        self._params: np.ndarray | None = None

    @property
    def metadata(self) -> dict:
        if self._model is None:
            return {}
        return {
            "config_names": list(self._config_names),
            "signature_indices": self._model.signature_indices,
        }

    def fit(self, dataset: TraceDataset,
            configs: list[MicroarchConfig] | None = None,
            ) -> "CrossProgramAdapter":
        configs = _require_configs(self.family, dataset, configs)
        self._model = CrossProgramPredictor(
            n_signature=self.n_signature, ridge=self.ridge
        ).fit(configs, dataset.total_times())
        self._config_names = dataset.config_names
        self._params = _config_params(configs)
        return self

    def dataset_requests(self, dataset: TraceDataset) -> list[PredictRequest]:
        self._require_fitted()
        indices = self._model.signature_indices
        return [
            PredictRequest(benchmark=name, signature_times=times[indices])
            for name, times in dataset.total_times().items()
        ]

    def _predict_batch(
        self, requests: list[PredictRequest]
    ) -> list[np.ndarray]:
        out = []
        for request in requests:
            if request.signature_times is None:
                raise PredictionError(
                    f"request for {request.benchmark!r} carries no "
                    "signature-configuration times"
                )
            out.append(
                self._model.predict_from_params(
                    self._params, request.signature_times
                )
            )
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_fitted()
        return {
            "weights": self._model._weights,
            "config_params": self._params,
        }

    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        self._model = CrossProgramPredictor.from_state(
            arrays["weights"], metadata["signature_indices"], ridge=self.ridge
        )
        self._config_names = tuple(metadata["config_names"])
        self._params = arrays["config_params"]


# ---------------------------------------------------------------------------
# ActBoost (AdaBoost.R2 over regression trees)
# ---------------------------------------------------------------------------
@register
class ActBoostAdapter(_SingleBenchmarkAdapter):
    """Boosted trees: uarch parameters -> execution time, per program."""

    family = "actboost"
    spec_fields = ("benchmark", "n_estimators", "max_depth", "seed")

    def __init__(self, benchmark: str | None = None, n_estimators: int = 20,
                 max_depth: int = 3, seed: int = 0):
        self.benchmark = benchmark
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self._model: AdaBoostR2 | None = None
        self._resolved_benchmark: str | None = None
        self._config_names: tuple[str, ...] = ()
        self._params: np.ndarray | None = None

    @property
    def metadata(self) -> dict:
        if self._model is None:
            return {}
        return {
            "benchmark": self._resolved_benchmark,
            "config_names": list(self._config_names),
            "n_trees": len(self._model.trees),
        }

    def fit(self, dataset: TraceDataset,
            configs: list[MicroarchConfig] | None = None,
            ) -> "ActBoostAdapter":
        configs = _require_configs(self.family, dataset, configs)
        bench = self.benchmark or dataset.segments[0][0]
        params = _config_params(configs)
        self._model = AdaBoostR2(
            n_estimators=self.n_estimators, max_depth=self.max_depth,
            seed=self.seed,
        ).fit(params, dataset.total_times()[bench])
        self._resolved_benchmark = bench
        self._config_names = dataset.config_names
        self._params = params
        return self

    def _predict_one(self) -> np.ndarray:
        return self._model.predict(self._params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        self._require_fitted()
        arrays: dict[str, np.ndarray] = {
            "betas": np.asarray(self._model.betas, dtype=np.float64),
            "config_params": self._params,
        }
        for i, tree in enumerate(self._model.trees):
            arrays.update(_prefixed(f"tree{i}.", tree.to_arrays()))
        return arrays

    def restore(self, arrays: dict[str, np.ndarray], metadata: dict) -> None:
        model = AdaBoostR2(
            n_estimators=self.n_estimators, max_depth=self.max_depth,
            seed=self.seed,
        )
        model.trees = [
            RegressionTree.from_arrays(
                _unprefixed(f"tree{i}.", arrays),
                max_depth=self.max_depth, min_leaf=1,
            )
            for i in range(int(metadata["n_trees"]))
        ]
        model.betas = [float(b) for b in arrays["betas"]]
        self._model = model
        self._resolved_benchmark = metadata["benchmark"]
        self._config_names = tuple(metadata["config_names"])
        self._params = arrays["config_params"]
