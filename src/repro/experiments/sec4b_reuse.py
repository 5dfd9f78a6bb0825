"""Sec. IV-B — instruction representation reuse speedup.

Measures the per-step training cost (median thread CPU time over nine
batches, the two schemes alternating) of the reuse scheme (one
foundation pass serving all k microarchitectures) against the naive
scheme (one pass per microarchitecture).  Paper: reuse cuts one epoch from 26 days to 8
hours — near-constant in k instead of linear.
"""

from __future__ import annotations

from repro.core.training import FoundationTrainConfig, naive_training_step_cost
from repro.experiments.common import benchmark_dataset
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.workloads import TRAIN_BENCHMARKS


@analysis("sec4b_reuse")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    full = benchmark_dataset(cfg, TRAIN_BENCHMARKS)
    k_values = sorted({max(2, full.num_configs // 4), full.num_configs // 2,
                       full.num_configs})
    rows = []
    metrics: dict[str, float] = {}
    tc = FoundationTrainConfig(
        spec=cfg.spec, chunk_len=cfg.chunk_len, batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    for k in k_values:
        ds = full.select_configs(range(k))
        cost = naive_training_step_cost(ds, tc, steps=9)
        rows.append(
            [k, f"{cost['reuse_seconds_per_step'] * 1e3:.1f} ms",
             f"{cost['naive_seconds_per_step'] * 1e3:.1f} ms",
             f"{cost['speedup']:.1f}x"]
        )
        metrics[f"speedup_k{k}"] = cost["speedup"]
    return {
        "headers": ["uarchs (k)", "reuse/step", "naive/step", "speedup"],
        "rows": rows,
        "metrics": metrics,
        "notes": [
            "speedup grows ~linearly with k: reuse amortizes the foundation "
            "pass (paper: 26 days -> 8 hours per epoch at k=77)",
        ],
    }


SPEC = ExperimentSpec(
    name="sec4b_reuse",
    title="Representation reuse vs naive per-uarch training cost",
    description="Sec. IV-B — representation-reuse speedup",
    stages=(
        stage("train_data", "dataset", benchmarks="train"),
        stage("analyze", "analysis", fn="sec4b_reuse", needs=("train_data",)),
        stage("report", "report",
              title="Representation reuse vs naive per-uarch training cost",
              needs=("analyze",)),
    ),
)
