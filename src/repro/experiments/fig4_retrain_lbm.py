"""Fig. 4 — moving ``519.lbm`` into the training set.

Paper result: lbm's error "effectively reduces close to zero", and the
updated model also improves other seen and unseen programs — the
larger-coverage argument.  The updated split (TRAIN + 519.lbm) is the model
all later experiments use.
"""

from __future__ import annotations

from repro.experiments.common import benchmark_dataset, total_time_errors
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.pipeline.stages import upstream_model
from repro.workloads import ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS

#: The Fig. 4 training split: Table II's training set plus 519.lbm.
UPDATED_TRAIN: tuple[str, ...] = tuple(TRAIN_BENCHMARKS) + ("519.lbm",)
UPDATED_TEST: tuple[str, ...] = tuple(
    n for n in TEST_BENCHMARKS if n != "519.lbm"
)


@analysis("fig4_retrain_lbm")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    dataset = benchmark_dataset(cfg, tuple(ALL_BENCHMARKS))
    before, after = (
        total_time_errors(
            upstream_model(ctx, inputs, need).perfvec, dataset, cfg.chunk_len
        )
        for need in ("foundation_before", "foundation_after")
    )

    ordered = list(UPDATED_TRAIN) + list(UPDATED_TEST)
    rows = []
    for name in ordered:
        split = "seen" if name in UPDATED_TRAIN else "unseen"
        rows.append(
            [name, split, f"{before[name].mean:.1%}", f"{after[name].mean:.1%}",
             f"{after[name].mean - before[name].mean:+.1%}"]
        )
    lbm_before = before["519.lbm"].mean
    lbm_after = after["519.lbm"].mean
    others = [n for n in ALL_BENCHMARKS if n != "519.lbm"]
    avg_before = sum(before[n].mean for n in others) / len(others)
    avg_after = sum(after[n].mean for n in others) / len(others)
    return {
        "headers": ["benchmark", "split", "err_before", "err_after", "delta"],
        "rows": rows,
        "metrics": {
            "lbm_error_before": lbm_before,
            "lbm_error_after": lbm_after,
            "others_avg_before": avg_before,
            "others_avg_after": avg_after,
        },
        "notes": [
            "paper: lbm error drops close to zero once seen; other programs "
            "also improve (larger datasets -> better coverage)",
        ],
    }


SPEC = ExperimentSpec(
    name="fig4_retrain_lbm",
    title="Accuracy after moving 519.lbm into training",
    description="Fig. 4 — moving 519.lbm into the training split",
    stages=(
        # declared like Fig. 3's train-split foundation and the updated
        # one of Figs. 5, 7, 8 and Table IV, so a union plan trains each
        # once (a stage key hashes its upstream stages' names)
        stage("train_data", "dataset", benchmarks="train"),
        stage("foundation_before", "train", benchmarks="train",
              needs=("train_data",)),
        stage("updated_train_data", "dataset", benchmarks="updated-train"),
        stage("foundation_after", "train", benchmarks="updated-train",
              needs=("updated_train_data",)),
        stage("suite_data", "dataset", benchmarks="all"),
        stage("analyze", "analysis", fn="fig4_retrain_lbm",
              needs=("foundation_before", "foundation_after",
                     "suite_data")),
        stage("report", "report",
              title="Accuracy after moving 519.lbm into training",
              needs=("analyze",)),
    ),
)
