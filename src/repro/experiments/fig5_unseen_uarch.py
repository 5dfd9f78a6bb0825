"""Fig. 5 — generality to unseen microarchitectures.

Workflow (paper Sec. V-A): simulate a few *seen* programs on the target
unseen microarchitectures to obtain a small tuning set; freeze the
pre-trained foundation; learn only the new microarchitecture
representations.  Paper result: 4.2% average error for seen programs and
7.1% for unseen programs — comparable to the seen-uarch case.
"""

from __future__ import annotations

from repro.core.finetune import learn_unseen_uarch_table
from repro.experiments.common import (
    benchmark_dataset,
    total_time_errors,
    trained_model,
    unseen_configs,
)
from repro.experiments.fig4_retrain_lbm import UPDATED_TEST, UPDATED_TRAIN
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.workloads import ALL_BENCHMARKS

#: Seen programs used to build the unseen-uarch tuning dataset.
TUNING_BENCHMARKS: tuple[str, ...] = ("525.x264", "544.nab", "557.xz")

#: Default number of target unseen microarchitectures.
DEFAULT_N_UNSEEN = 10


@analysis("fig5_unseen_uarch")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    n_unseen = int(params.get("n_unseen", DEFAULT_N_UNSEEN))
    model, _ = trained_model(cfg, UPDATED_TRAIN)
    targets = unseen_configs(cfg, n_unseen)

    tuning = benchmark_dataset(cfg, TUNING_BENCHMARKS, configs=targets)
    table = learn_unseen_uarch_table(
        model, tuning.features, tuning.targets,
        config_names=tuning.config_names, chunk_len=cfg.chunk_len,
    )

    dataset = benchmark_dataset(cfg, tuple(ALL_BENCHMARKS), configs=targets)
    errors = total_time_errors(
        model, dataset, cfg.chunk_len, table=table.table.data
    )

    rows = []
    for name in list(UPDATED_TRAIN) + list(UPDATED_TEST):
        split = "seen" if name in UPDATED_TRAIN else "unseen"
        s = errors[name]
        rows.append(
            [name, split, f"{s.mean:.1%}", f"{s.std:.1%}", f"{s.max:.1%}"]
        )
    seen = [errors[n].mean for n in UPDATED_TRAIN]
    unseen = [errors[n].mean for n in UPDATED_TEST]
    return {
        "headers": ["benchmark", "split", "mean", "std", "max"],
        "rows": rows,
        "metrics": {
            "avg_seen_error": sum(seen) / len(seen),
            "avg_unseen_error": sum(unseen) / len(unseen),
            "unseen_uarch_count": float(len(targets)),
        },
        "notes": [
            "foundation frozen; only microarchitecture representations "
            "learned from a small tuning set of seen programs",
            "paper: 4.2% (seen programs) / 7.1% (unseen programs)",
        ],
    }


SPEC = ExperimentSpec(
    name="fig5_unseen_uarch",
    title="Prediction error on unseen microarchitectures",
    description="Fig. 5 — generality to unseen microarchitectures",
    stages=(
        stage("updated_train_data", "dataset", benchmarks="updated-train"),
        stage("foundation", "train", benchmarks="updated-train",
              needs=("updated_train_data",)),
        stage("tuning_data", "dataset", benchmarks=list(TUNING_BENCHMARKS),
              configs="unseen", count=DEFAULT_N_UNSEEN),
        stage("eval_data", "dataset", benchmarks="all",
              configs="unseen", count=DEFAULT_N_UNSEEN),
        stage("analyze", "analysis", fn="fig5_unseen_uarch",
              n_unseen=DEFAULT_N_UNSEEN,
              needs=("foundation", "tuning_data", "eval_data")),
        stage("report", "report",
              title="Prediction error on unseen microarchitectures",
              needs=("analyze",)),
    ),
)
