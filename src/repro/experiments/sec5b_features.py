"""Sec. V-B — microarchitecture-independent feature ablation.

Removes the memory (stack distance) and branch (entropy + taken) features
from the input and retrains.  Paper result: average unseen-program error
soars from 5.5% to 17.0% — the features are "essential to capture memory
and branch behaviors".
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.training import FoundationTrainConfig, train_foundation
from repro.experiments.common import benchmark_dataset, total_time_errors
from repro.features.dataset import TraceDataset
from repro.features.encoder import FeatureGroups
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.workloads import TEST_BENCHMARKS, TRAIN_BENCHMARKS


def mask_memory_branch_features(dataset: TraceDataset) -> TraceDataset:
    """Zero the stack-distance and branch-behaviour columns."""
    features = dataset.features.copy()
    features[:, FeatureGroups.memory] = 0.0
    features[:, FeatureGroups.branch] = 0.0
    features[:, FeatureGroups.behaviour.start + 1] = 0.0  # branch-taken bit
    return dataclasses.replace(dataset, features=features)


def _avg_error(errors) -> float:
    return float(np.mean([s.mean for s in errors.values()]))


@analysis("sec5b_features")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    train_ds = benchmark_dataset(cfg, TRAIN_BENCHMARKS)
    test_ds = benchmark_dataset(cfg, tuple(TEST_BENCHMARKS))
    tc = FoundationTrainConfig(
        spec=cfg.spec, chunk_len=cfg.chunk_len, batch_size=cfg.batch_size,
        epochs=cfg.ablation_epochs, seed=cfg.seed,
    )

    full_model, _ = train_foundation(train_ds, tc)
    full_err = _avg_error(total_time_errors(full_model, test_ds, cfg.chunk_len))

    masked_model, _ = train_foundation(mask_memory_branch_features(train_ds), tc)
    masked_err = _avg_error(
        total_time_errors(
            masked_model, mask_memory_branch_features(test_ds), cfg.chunk_len
        )
    )

    return {
        "headers": ["features", "avg_unseen_error"],
        "rows": [
            ["all 51 (Table I)", f"{full_err:.1%}"],
            ["without memory + branch", f"{masked_err:.1%}"],
        ],
        "metrics": {
            "full_features_error": full_err,
            "masked_features_error": masked_err,
            "degradation_factor": masked_err / max(full_err, 1e-9),
        },
        "notes": [
            "paper: 5.5% with all features vs 17.0% without memory/branch"
        ],
    }


SPEC = ExperimentSpec(
    name="sec5b_features",
    title="Memory/branch feature ablation (avg unseen-program error)",
    description="Sec. V-B — feature ablation",
    stages=(
        stage("train_data", "dataset", benchmarks="train"),
        stage("test_data", "dataset", benchmarks="test"),
        stage("analyze", "analysis", fn="sec5b_features",
              needs=("train_data", "test_data")),
        stage("report", "report",
              title="Memory/branch feature ablation "
                    "(avg unseen-program error)",
              needs=("analyze",)),
    ),
)
