"""Table III — comparison of ML-based modeling and simulation approaches.

The qualitative columns (input, target, generality) restate the paper's
analysis for our implementations; the prediction-speed column is *measured*
on this substrate: instructions/second for trace-walking approaches and
per-program prediction latency for representation-based ones.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.ithemal import IthemalModel, extract_basic_blocks
from repro.baselines.simnet import SimNetModel, simnet_features
from repro.experiments.common import benchmark_dataset, trained_model
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.sim import simulate
from repro.uarch.presets import cortex_a7_like
from repro.workloads import TRAIN_BENCHMARKS, get_trace


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@analysis("table3_comparison")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    n = cfg.instructions
    trace = get_trace("557.xz", n)
    a7 = cortex_a7_like()
    res = simulate(trace, a7)
    lat = res.incremental_latencies

    # --- Ithemal: basic-block walker -----------------------------------
    blocks = extract_basic_blocks(trace, lat)
    ithemal = IthemalModel(embed_dim=8, hidden=16).fit(blocks, epochs=4)
    t_ithemal = _time(lambda: ithemal.predict(blocks))
    ithemal_ips = n / t_ithemal

    # --- SimNet: per-instruction walker (features are uarch-dependent) --
    feats_dep = simnet_features(trace, a7)
    simnet = SimNetModel(hidden=16, epochs=3).fit(feats_dep, lat.astype(np.float64))
    t_simnet = _time(lambda: simnet.predict_total_time(feats_dep))
    t_simnet_full = t_simnet + _time(lambda: simnet_features(trace, a7))
    simnet_ips = n / t_simnet_full

    # --- PerfVec: representation dot product -----------------------------
    model, _ = trained_model(cfg, TRAIN_BENCHMARKS)
    ds = benchmark_dataset(cfg, ("557.xz",))
    feats = ds.features
    t_rep = _time(lambda: model.program_representation(feats, cfg.chunk_len))
    prog_rep = model.program_representation(feats, cfg.chunk_len)
    t_predict = _time(
        lambda: model.predict_total_time(prog_rep, config_index=0), repeats=10
    )

    rows = [
        ["Ithemal/GRANITE", "textual instruction trace", "basic block",
         "minutes", f"{ithemal_ips:,.0f} IPS", "yes", "no"],
        ["Perf. embedding", "flow graph + perf counters", "loop nest",
         "days", "(not impl: uarch-dependent counters)", "yes", "no"],
        ["Program-specific", "uarch parameters", "program",
         "days-weeks", "< 1 ms", "no", "no"],
        ["Transferable", "uarch params + signature", "program",
         "hours-days", "< 1 ms", "partial", "no"],
        ["SimNet", "uarch-dependent instr trace", "program",
         "hours-days", f"{simnet_ips:,.0f} IPS", "yes", "no"],
        ["PerfVec", "uarch-independent instr trace", "program",
         "hours", f"{t_predict * 1e6:.0f} us/program", "yes", "yes"],
    ]
    return {
        "headers": ["approach", "input", "target", "train overhead",
                    "prediction speed", "program-general", "uarch-general"],
        "rows": rows,
        "metrics": {
            "ithemal_ips": ithemal_ips,
            "simnet_ips": simnet_ips,
            "perfvec_rep_generation_ips": n / t_rep,
            "perfvec_predict_seconds": t_predict,
        },
        "notes": [
            "PerfVec prediction with a pre-computed program representation "
            "is a dot product: independent of program size",
            "SimNet speed includes re-extracting uarch-dependent features, "
            "which must be redone for every target microarchitecture",
        ],
    }


SPEC = ExperimentSpec(
    name="table3_comparison",
    title="Comparison of modeling approaches (speeds measured here)",
    description="Table III — approach comparison + measured speeds",
    stages=(
        stage("xz_data", "dataset", benchmarks=["557.xz"]),
        stage("train_data", "dataset", benchmarks="train"),
        stage("foundation", "train", benchmarks="train",
              needs=("train_data",)),
        stage("analyze", "analysis", fn="table3_comparison",
              needs=("xz_data", "foundation")),
        stage("report", "report",
              title="Comparison of modeling approaches "
                    "(speeds measured here)",
              needs=("analyze",)),
    ),
)
