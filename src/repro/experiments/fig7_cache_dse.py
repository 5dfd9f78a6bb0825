"""Fig. 7 + Sec. VI-A — L1D/L2 cache-size design space exploration.

Workflow (paper): ① simulate a few programs on 18 sampled configurations of
the 36-point grid, ② train a 2-layer-MLP microarchitecture representation
model on that tuning set with the foundation frozen, ③ predict every
(program, configuration) pair with dot products and pick the design
minimizing ``(1000 + 10*L1kB + L2kB) * time``.

Paper results: PerfVec's pick is optimal for 4/17 programs, top-2 for 11,
top-3 for 15, top-5 for all; on average only 3.6% of designs beat it.  The
predicted objective surface for 508.namd matches gem5's shape but smoother.

The tuning programs and sampled-configuration count are spec parameters,
so a sweep over them is one :class:`~repro.pipeline.SweepSpec` away.
"""

from __future__ import annotations

import numpy as np

from repro.core.dse import CacheDSE
from repro.core.perfvec import PerfVec
from repro.core.predictor import TICK_SCALE
from repro.core.uarch_model import cache_size_params, train_uarch_model
from repro.experiments.common import (
    ScaleConfig,
    benchmark_dataset,
    render_surface,
    trained_model,
)
from repro.experiments.fig4_retrain_lbm import UPDATED_TRAIN
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.uarch.presets import cortex_a7_like
from repro.workloads import ALL_BENCHMARKS

#: Programs simulated to build the DSE tuning set (paper: three programs).
DSE_TUNING_BENCHMARKS: tuple[str, ...] = ("525.x264", "544.nab", "557.xz")
#: Sampled configurations for tuning (paper: 18 of 36).
DSE_TUNING_CONFIGS = 18


def dse_ground_truth(
    cfg: ScaleConfig, dse: CacheDSE, benchmarks: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Exhaustive-simulation times (ticks) per program over the grid."""
    ds = benchmark_dataset(
        cfg, benchmarks, configs=dse.configs, instructions=cfg.dse_instructions
    )
    return ds.total_times()


def perfvec_dse_times(
    cfg: ScaleConfig,
    model: PerfVec,
    dse: CacheDSE,
    benchmarks: tuple[str, ...],
    tuning_benchmarks: tuple[str, ...] = DSE_TUNING_BENCHMARKS,
    tuning_configs: int = DSE_TUNING_CONFIGS,
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """PerfVec-predicted times per program over the grid, plus overhead info."""
    sample_idx = dse.sample_configs(min(tuning_configs, len(dse)), seed=cfg.seed)
    tuning_cfgs = [dse.configs[i] for i in sample_idx]
    tune_ds = benchmark_dataset(
        cfg, tuning_benchmarks, configs=tuning_cfgs,
        instructions=cfg.dse_instructions,
    )
    uarch = train_uarch_model(
        model, tuning_cfgs, tune_ds.features, tune_ds.targets,
        extractor=cache_size_params, chunk_len=cfg.chunk_len, seed=cfg.seed,
    )
    m_all = uarch.representations(dse.configs, cache_size_params)  # (G, d)
    feats_ds = benchmark_dataset(
        cfg, benchmarks, configs=dse.configs, instructions=cfg.dse_instructions
    )
    times: dict[str, np.ndarray] = {}
    for name in benchmarks:
        feats, _ = feats_ds.segment(name)
        rep = model.program_representation(feats, chunk_len=cfg.chunk_len)
        times[name] = (rep @ m_all.T.astype(np.float64)) / TICK_SCALE
    overhead = {
        "tuning_simulations": float(len(tuning_cfgs) * len(tuning_benchmarks)),
        "tuning_instructions": float(
            len(tuning_cfgs) * len(tuning_benchmarks) * cfg.dse_instructions
        ),
    }
    return times, overhead


@analysis("fig7_cache_dse")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    tuning_benchmarks = tuple(
        params.get("tuning_benchmarks", DSE_TUNING_BENCHMARKS)
    )
    tuning_configs = int(params.get("tuning_configs", DSE_TUNING_CONFIGS))
    model, _ = trained_model(cfg, UPDATED_TRAIN)
    dse = CacheDSE(cortex_a7_like())
    benchmarks = tuple(ALL_BENCHMARKS)

    truth = dse_ground_truth(cfg, dse, benchmarks)
    predicted, overhead = perfvec_dse_times(
        cfg, model, dse, benchmarks,
        tuning_benchmarks=tuning_benchmarks, tuning_configs=tuning_configs,
    )

    rows = []
    qualities = []
    for name in benchmarks:
        true_obj = dse.objective_values(truth[name])
        pred_obj = dse.objective_values(predicted[name])
        q = dse.rank_quality(pred_obj, true_obj)
        qualities.append(q)
        l1, l2 = dse.grid[q.chosen_index]
        rows.append(
            [name, f"L1={l1}k L2={l2}k", q.rank, f"{q.frac_better:.1%}"]
        )

    n_total = len(qualities)
    metrics = {
        "optimal_count": float(sum(q.is_optimal for q in qualities)),
        "top2_count": float(sum(q.within_top(2) for q in qualities)),
        "top3_count": float(sum(q.within_top(3) for q in qualities)),
        "top5_count": float(sum(q.within_top(5) for q in qualities)),
        "avg_frac_better": float(np.mean([q.frac_better for q in qualities])),
        "programs": float(n_total),
        **overhead,
    }

    namd = "508.namd"
    l1_labels = [f"{s}k" for s in dse.l1_sizes]
    l2_labels = [f"{s}k" for s in dse.l2_sizes]
    surfaces = [
        render_surface(
            dse.objective_surface(truth[namd]) / 1e6, l1_labels, l2_labels,
            f"{namd} objective surface — simulator ground truth (x1e6):",
        ),
        render_surface(
            dse.objective_surface(predicted[namd]) / 1e6, l1_labels, l2_labels,
            f"{namd} objective surface — PerfVec prediction (x1e6):",
        ),
    ]
    return {
        "headers": ["benchmark", "chosen design", "rank",
                    "frac designs better"],
        "rows": rows,
        "metrics": metrics,
        "notes": surfaces + [
            "paper: optimal for 4/17, top-2 for 11, top-3 for 15, top-5 for "
            "all; avg 3.6% of designs better than PerfVec's pick",
        ],
    }


SPEC = ExperimentSpec(
    name="fig7_cache_dse",
    title="L1D x L2 cache-size DSE (objective rank per program)",
    description="Fig. 7 + Sec. VI-A — cache-size DSE",
    stages=(
        stage("updated_train_data", "dataset", benchmarks="updated-train"),
        stage("foundation", "train", benchmarks="updated-train",
              needs=("updated_train_data",)),
        stage("analyze", "analysis", fn="fig7_cache_dse",
              tuning_benchmarks=list(DSE_TUNING_BENCHMARKS),
              tuning_configs=DSE_TUNING_CONFIGS,
              needs=("foundation",)),
        stage("report", "report",
              title="L1D x L2 cache-size DSE (objective rank per program)",
              needs=("analyze",)),
    ),
)
