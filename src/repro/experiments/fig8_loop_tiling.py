"""Fig. 8 — loop-tiling analysis of matrix multiply.

The paper compares gem5 and PerfVec execution times of a tiled MM across
tile sizes on the Cortex-A7 model: sharp improvement up to tile 8 (vector
width there; cache-reuse here), degradation once a tile's working set
exceeds L1D, and agreement between simulator and model on the optimal
region.  "This analysis incurs negligible inference overhead and no
training overhead because the pre-trained foundation model is used" — here
the A7's representation is obtained with one small least-squares fit
(foundation frozen).

The matrix size and tile sweep are spec parameters
(``analyze.matrix_n`` / ``analyze.tiles``), so alternative tilings are a
spec override or a :class:`~repro.pipeline.SweepSpec` axis, not new code.
"""

from __future__ import annotations

import numpy as np

from repro.core.finetune import learn_unseen_uarch_table
from repro.core.predictor import TICK_SCALE
from repro.experiments.common import benchmark_dataset, trained_model
from repro.experiments.fig4_retrain_lbm import UPDATED_TRAIN
from repro.features import encode_trace
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.sim import simulate
from repro.uarch.presets import cortex_a7_like
from repro.vm import run_program
from repro.workloads.kernels.linear_algebra import matmul

#: Matrix size and tile sweep; 48^2 matrices (54 kB working set) overflow
#: the A7's 32 kB L1D, so tiling has something to win.
MATRIX_N = 48
TILES: tuple[int, ...] = (1, 2, 4, 8, 16, 48)


@analysis("fig8_loop_tiling")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    matrix_n = int(params.get("matrix_n", MATRIX_N))
    tiles = tuple(int(t) for t in params.get("tiles", TILES))
    a7 = cortex_a7_like()
    model, _ = trained_model(cfg, UPDATED_TRAIN)
    budget = max(cfg.dse_instructions, 4000)

    # learn the A7's representation once, from seen-program tuning data
    tune = benchmark_dataset(cfg, ("525.x264", "557.xz"), configs=[a7],
                             instructions=budget)
    table = learn_unseen_uarch_table(
        model, tune.features, tune.targets, chunk_len=cfg.chunk_len
    )
    a7_rep = table.table.data[0]

    rows = []
    sim_times = []
    pv_times = []
    for tile in tiles:
        program = matmul(n=matrix_n, tile=tile, reps=10_000)
        trace = run_program(program, max_instructions=budget)
        sim_ticks = float(
            simulate(trace, a7).incremental_latencies.astype(np.float64).sum()
        )
        feats = encode_trace(trace)
        rep = model.program_representation(feats, chunk_len=cfg.chunk_len)
        pv_ticks = float(rep @ a7_rep.astype(np.float64)) / TICK_SCALE
        sim_times.append(sim_ticks)
        pv_times.append(pv_ticks)
        rows.append(
            [tile, f"{sim_ticks / 1e4:.1f} us", f"{pv_ticks / 1e4:.1f} us",
             f"{abs(pv_ticks - sim_ticks) / sim_ticks:.1%}"]
        )

    sim_best = tiles[int(np.argmin(sim_times))]
    pv_best = tiles[int(np.argmin(pv_times))]
    corr = float(np.corrcoef(sim_times, pv_times)[0, 1])
    return {
        "title": f"MM loop tiling ({matrix_n}x{matrix_n}) on Cortex-A7-like",
        "headers": ["tile", "simulator time", "perfvec time", "error"],
        "rows": rows,
        "metrics": {
            "sim_best_tile": float(sim_best),
            "perfvec_best_tile": float(pv_best),
            "time_correlation": corr,
        },
        "notes": [
            "times cover an equal instruction budget per tile, so they "
            "compare per-instruction efficiency (cache reuse) across tiles",
            "paper: optimum at tile 16 in gem5; PerfVec ranks 16/32 "
            "equally best; surfaces agree in shape",
        ],
    }


SPEC = ExperimentSpec(
    name="fig8_loop_tiling",
    title=f"MM loop tiling ({MATRIX_N}x{MATRIX_N}) on Cortex-A7-like",
    description="Fig. 8 — matrix-multiply loop tiling",
    stages=(
        stage("updated_train_data", "dataset", benchmarks="updated-train"),
        stage("foundation", "train", benchmarks="updated-train",
              needs=("updated_train_data",)),
        stage("analyze", "analysis", fn="fig8_loop_tiling",
              matrix_n=MATRIX_N, tiles=list(TILES),
              needs=("foundation",)),
        stage("report", "report", needs=("analyze",)),
    ),
)
