"""Shared experiment data layer: scale presets and memoized ingredients.

Scale presets trade fidelity for runtime:

* ``smoke`` — seconds; used by the test suite.
* ``bench`` — tens of seconds per experiment; used by ``benchmarks/``.
* ``paper`` — the documented offline configuration (77 microarchitectures,
  LSTM-2-256); hours on a CPU box.

Simulation results are cached on disk by :mod:`repro.features.dataset`
and datasets are memoized in-process here.  Trained models are not: a
preset declares each foundation as a ``train`` stage, which trains or
reuses it through :meth:`repro.api.Session.train`, and an analysis loads
the artifact its upstream train stage names
(:func:`repro.pipeline.stages.upstream_model`).  Figs. 3-8 therefore
share models exactly as the paper does ("The updated model is used in
the following experiments"), the union plan of a batch (``repro
run-all``) trains each once, and repeat invocations — including fresh
processes — load the stored artifact instead of retraining.

Result containers and rendering live in :mod:`repro.pipeline.report`
(re-exported here for compatibility); experiment *structure* lives in
:mod:`repro.pipeline` specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.errors import (
    ErrorSummary,
    UnknownExperimentError,
    error_summary,
)
from repro.core.perfvec import PerfVec
from repro.features.dataset import TraceDataset, build_dataset
from repro.pipeline.report import (  # noqa: F401 — compat re-exports
    ExperimentResult,
    render_surface,
    render_table,
)
from repro.uarch import sample_configs
from repro.uarch.config import MicroarchConfig


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs that size every experiment."""

    name: str
    instructions: int  # trace length per benchmark
    n_ooo: int  # random OoO configs
    n_inorder: int  # random in-order configs
    include_presets: bool  # add the 7 predefined configs
    spec: str  # foundation architecture
    chunk_len: int  # context window analogue
    batch_size: int
    epochs: int
    ablation_epochs: int  # shorter budget for per-arch sweeps
    dse_instructions: int  # trace length for DSE studies
    seed: int = 0

    @property
    def num_configs(self) -> int:
        return self.n_ooo + self.n_inorder + (7 if self.include_presets else 0)


SCALES: dict[str, ScaleConfig] = {
    "smoke": ScaleConfig(
        name="smoke", instructions=2000, n_ooo=4, n_inorder=2,
        include_presets=False, spec="lstm-1-16", chunk_len=32, batch_size=8,
        epochs=4, ablation_epochs=2, dse_instructions=2000,
    ),
    "bench": ScaleConfig(
        name="bench", instructions=6000, n_ooo=10, n_inorder=3,
        include_presets=False, spec="lstm-2-64", chunk_len=48, batch_size=16,
        epochs=12, ablation_epochs=8, dse_instructions=5000,
    ),
    "paper": ScaleConfig(
        name="paper", instructions=50_000, n_ooo=60, n_inorder=10,
        include_presets=True, spec="lstm-2-256", chunk_len=128, batch_size=16,
        epochs=50, ablation_epochs=20, dse_instructions=50_000,
    ),
}


def get_scale(scale: str | ScaleConfig) -> ScaleConfig:
    if isinstance(scale, ScaleConfig):
        return scale
    if scale not in SCALES:
        raise UnknownExperimentError(scale, SCALES, kind="scale")
    return SCALES[scale]


# ---------------------------------------------------------------------------
# parallelism default
# ---------------------------------------------------------------------------
# Analyses call benchmark_dataset() deep inside their code, so a stage's
# fan-out (StageContext.jobs) travels as a process-wide default that the
# pipeline installs for the stage's duration instead of a parameter
# threaded through every analysis signature.
_DEFAULT_JOBS: int = 1


def set_default_jobs(jobs: int | None) -> int:
    """Set the simulation fan-out used by :func:`benchmark_dataset`.

    ``None``/``0`` resolves to all cores. Returns the previous value so
    callers can restore it (see :func:`repro.pipeline.executors.run_stage`).
    """
    from repro.runtime import resolve_jobs

    global _DEFAULT_JOBS
    previous = _DEFAULT_JOBS
    _DEFAULT_JOBS = resolve_jobs(jobs)
    return previous


def get_default_jobs() -> int:
    """Current simulation fan-out (1 = serial)."""
    return _DEFAULT_JOBS


# ---------------------------------------------------------------------------
# shared data construction (memoized)
# ---------------------------------------------------------------------------
_CONFIG_CACHE: dict[str, list[MicroarchConfig]] = {}
_DATASET_CACHE: dict[tuple, TraceDataset] = {}


def seen_configs(scale: ScaleConfig) -> list[MicroarchConfig]:
    """The scale's sampled training ("seen") microarchitectures."""
    cached = _CONFIG_CACHE.get(scale.name)
    if cached is None:
        cached = sample_configs(
            n_ooo=scale.n_ooo, n_inorder=scale.n_inorder, seed=scale.seed,
            include_presets=scale.include_presets,
        )
        _CONFIG_CACHE[scale.name] = cached
    return cached


def unseen_configs(scale: ScaleConfig, count: int = 10) -> list[MicroarchConfig]:
    """Fresh random microarchitectures never used in training (Fig. 5)."""
    configs = sample_configs(
        n_ooo=max(count - 2, 1), n_inorder=min(2, count - 1),
        seed=scale.seed + 1000, include_presets=False,
    )[:count]
    return [replace(c, name=f"unseen-{i}-{c.name}") for i, c in enumerate(configs)]


def benchmark_dataset(
    scale: ScaleConfig,
    benchmarks: tuple[str, ...],
    configs: list[MicroarchConfig] | None = None,
    instructions: int | None = None,
    isa: str | None = None,
) -> TraceDataset:
    """Cached dataset over ``benchmarks`` x ``configs``.

    ``isa`` selects the trace frontend benchmark names resolve against
    (default: the mini-ASM VM).
    """
    from repro.frontends import DEFAULT_FRONTEND

    configs = configs if configs is not None else seen_configs(scale)
    instructions = instructions or scale.instructions
    isa = isa or DEFAULT_FRONTEND
    key = (scale.name, tuple(benchmarks), tuple(c.name for c in configs),
           instructions, isa)
    ds = _DATASET_CACHE.get(key)
    if ds is None:
        ds = build_dataset(
            list(benchmarks), configs, instructions,
            jobs=get_default_jobs(), isa=isa,
        )
        _DATASET_CACHE[key] = ds
    return ds


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------
def total_time_errors(
    model: PerfVec,
    dataset: TraceDataset,
    chunk_len: int,
    table: np.ndarray | None = None,
) -> dict[str, ErrorSummary]:
    """Per-benchmark total-execution-time error across the dataset's configs.

    ``table`` overrides the model's built-in microarchitecture table (used
    when evaluating on unseen microarchitectures with a learned table).
    """
    from repro.core.predictor import TICK_SCALE

    rows: dict[str, ErrorSummary] = {}
    uses = table if table is not None else model.table.table.data
    for name, start, end in dataset.segments:
        feats = dataset.features[start:end]
        true_total = dataset.targets[start:end].astype(np.float64).sum(axis=0)
        prog_rep = model.program_representation(feats, chunk_len=chunk_len)
        pred_total = (prog_rep @ uses.T.astype(np.float64)) / TICK_SCALE
        rows[name] = error_summary(pred_total, true_total)
    return rows
