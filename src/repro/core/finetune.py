"""Unseen-microarchitecture representation learning (paper Sec. V-A).

"Unseen microarchitecture representations are learned ... with an important
difference that the instruction representation model is initialized to be
the pre-trained foundation model and frozen during training.  Only the
microarchitecture representation table is updated."

With the foundation frozen, instruction representations can be computed
*once*; and because the predictor is bias-free linear with an MSE loss, the
optimal table rows are exactly the least-squares solution — a property the
linear-predictor design choice buys for free.  The closed form replaces the
paper's gradient descent on the table: it reaches the optimum that descent
only approaches.
"""

from __future__ import annotations

import numpy as np

from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable, TICK_SCALE


def fit_table_least_squares(
    reps: np.ndarray, targets: np.ndarray, ridge: float = 1e-6
) -> np.ndarray:
    """Closed-form optimal table: argmin_M ||reps @ M.T - targets||^2.

    ``reps``: (N, d) instruction representations; ``targets``: (N, k)
    incremental latencies in 0.1 ns ticks.  Returns (k, d) rows in the
    model's scaled latency space (ready to install in a
    :class:`MicroarchTable`).  A small ridge term keeps the normal
    equations well-posed when representations are collinear.
    """
    if reps.ndim != 2 or targets.ndim != 2 or len(reps) != len(targets):
        raise ValueError("reps (N,d) and targets (N,k) must align")
    scaled = targets.astype(np.float64) * TICK_SCALE
    a = reps.astype(np.float64)
    gram = a.T @ a + ridge * np.eye(a.shape[1])
    solution = np.linalg.solve(gram, a.T @ scaled)  # (d, k)
    return solution.T.astype(np.float32)


def learn_unseen_uarch_table(
    model: PerfVec,
    tuning_features: np.ndarray,
    tuning_targets: np.ndarray,
    config_names: tuple[str, ...] | None = None,
    chunk_len: int = 64,
) -> MicroarchTable:
    """Learn representations of new microarchitectures with a frozen foundation.

    ``tuning_features``/``tuning_targets`` come from simulating a few *seen*
    programs on the unseen microarchitectures (the paper's small tuning
    dataset); the foundation is only used for inference, and the table
    rows are :func:`fit_table_least_squares` over its representations.
    """
    reps = model.instruction_representations(tuning_features, chunk_len=chunk_len)
    table = MicroarchTable(
        tuning_targets.shape[1], model.foundation.dim, config_names=config_names
    )
    table.table.data = fit_table_least_squares(reps, tuning_targets)
    return table
