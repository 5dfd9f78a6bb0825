"""Fig. 3 — prediction accuracy for seen and unseen programs on seen
microarchitectures.

Paper result: average errors below 8% for the nine seen programs; below
10% for most unseen programs, with ``519.lbm`` as the outlier whose
"instruction combination scenarios" the training set lacks.
"""

from __future__ import annotations

from repro.experiments.common import benchmark_dataset, total_time_errors
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.pipeline.stages import upstream_model
from repro.workloads import ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS


@analysis("fig3_seen_unseen")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    foundation = upstream_model(ctx, inputs, "foundation")
    dataset = benchmark_dataset(cfg, tuple(ALL_BENCHMARKS))
    errors = total_time_errors(foundation.perfvec, dataset, cfg.chunk_len)

    ordered = list(TRAIN_BENCHMARKS) + list(TEST_BENCHMARKS)
    rows = []
    for name in ordered:
        s = errors[name]
        split = "seen" if name in TRAIN_BENCHMARKS else "unseen"
        rows.append(
            [name, split, f"{s.mean:.1%}", f"{s.std:.1%}",
             f"{s.min:.1%}", f"{s.max:.1%}"]
        )
    seen = [errors[n].mean for n in TRAIN_BENCHMARKS]
    unseen = [errors[n].mean for n in TEST_BENCHMARKS]
    worst_unseen = max(TEST_BENCHMARKS, key=lambda n: errors[n].mean)
    return {
        "headers": ["benchmark", "split", "mean", "std", "min", "max"],
        "rows": rows,
        "metrics": {
            "avg_seen_error": sum(seen) / len(seen),
            "avg_unseen_error": sum(unseen) / len(unseen),
            "best_val_loss": foundation.history.best_val_loss,
        },
        "notes": [
            f"worst unseen program: {worst_unseen} "
            f"(paper: 519.lbm is the outlier)",
            "paper: seen avg < 8%, unseen avg < 10% for most programs",
        ],
    }


SPEC = ExperimentSpec(
    name="fig3_seen_unseen",
    title="Prediction error, seen + unseen programs on seen uarchs",
    description="Fig. 3 — seen/unseen programs on seen microarchitectures",
    stages=(
        stage("train_data", "dataset", benchmarks="train"),
        stage("suite_data", "dataset", benchmarks="all"),
        stage("foundation", "train", benchmarks="train", needs=("train_data",)),
        stage("analyze", "analysis", fn="fig3_seen_unseen",
              needs=("foundation", "suite_data")),
        stage("report", "report",
              title="Prediction error, seen + unseen programs on seen uarchs",
              needs=("analyze",)),
    ),
)
