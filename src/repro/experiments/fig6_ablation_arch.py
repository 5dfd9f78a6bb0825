"""Fig. 6 — foundation-architecture ablation.

Sweeps the paper's model families (linear, MLP, GRU, biLSTM, Transformer,
LSTM at several depths and widths) and reports the average unseen-program
error per architecture.  Paper result: the linear model is worst,
Transformer second-worst, and LSTM-2-256 is sufficient — deeper/wider
LSTMs bring little.

Widths scale with the experiment preset (the paper's 256 becomes the
scale's base dimension) so the sweep stays CPU-tractable.  The per-arch
trainings happen inside the analysis stage (the width grid depends on
the runtime scale), but every one of them lands in the ModelStore, so a
partially interrupted sweep resumes from the architectures it finished.
"""

from __future__ import annotations

from repro.core.foundation import parse_spec
from repro.experiments.common import (
    benchmark_dataset,
    total_time_errors,
    trained_model,
)
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.workloads import TEST_BENCHMARKS, TRAIN_BENCHMARKS


def sweep_specs(base_dim: int) -> list[str]:
    """The Fig. 6 sweep, scaled to ``base_dim`` (paper: 256)."""
    half, double = max(base_dim // 2, 4), base_dim * 2
    return [
        f"linear-1-{base_dim}",
        f"mlp-2-{base_dim}",
        f"gru-2-{base_dim}",
        f"bilstm-2-{base_dim}",
        f"transformer-2-{base_dim}",
        f"lstm-1-{base_dim}",
        f"lstm-2-{base_dim}",
        f"lstm-3-{base_dim}",
        f"lstm-2-{half}",
        f"lstm-2-{double}",
    ]


@analysis("fig6_ablation_arch")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    # the sweep trains ~10 models; halve the width to keep it tractable
    base_dim = max(parse_spec(cfg.spec).dim // 2, 8)
    dataset = benchmark_dataset(cfg, tuple(TEST_BENCHMARKS))
    rows = []
    errors_by_spec: dict[str, float] = {}
    for spec in sweep_specs(base_dim):
        model, history = trained_model(
            cfg, TRAIN_BENCHMARKS, spec=spec, epochs=cfg.ablation_epochs
        )
        errs = total_time_errors(model, dataset, cfg.chunk_len)
        avg = sum(s.mean for s in errs.values()) / len(errs)
        errors_by_spec[spec] = avg
        rows.append(
            [spec, model.foundation.num_parameters(), f"{avg:.1%}",
             f"{history.best_val_loss:.4g}"]
        )
    best = min(errors_by_spec, key=errors_by_spec.get)
    return {
        "headers": ["architecture", "params", "avg_unseen_error", "val_loss"],
        "rows": rows,
        "metrics": {
            "linear_error": errors_by_spec[f"linear-1-{base_dim}"],
            "default_lstm_error": errors_by_spec[f"lstm-2-{base_dim}"],
            "best_is_default_family": float(best.startswith(("lstm", "gru"))),
        },
        "notes": [
            f"best architecture at this scale: {best}",
            "paper: linear worst, transformer second worst, LSTM-2-256 "
            "sufficient; deeper/wider LSTMs bring negligible gains",
        ],
    }


SPEC = ExperimentSpec(
    name="fig6_ablation_arch",
    title="Foundation architecture ablation (avg unseen-program error)",
    description="Fig. 6 — foundation-architecture ablation",
    stages=(
        stage("train_data", "dataset", benchmarks="train"),
        stage("test_data", "dataset", benchmarks="test"),
        stage("analyze", "analysis", fn="fig6_ablation_arch",
              needs=("train_data", "test_data")),
        stage("report", "report",
              title="Foundation architecture ablation "
                    "(avg unseen-program error)",
              needs=("analyze",)),
    ),
)
