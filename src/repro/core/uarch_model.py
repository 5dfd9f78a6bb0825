"""Parametric microarchitecture representation model (paper Sec. VI-A).

For design-space exploration the learnable table is replaced by "a
microarchitecture representation model that generates representations from
input parameters, so that it can generalize to unseen microarchitectures".
The paper uses a 2-layer MLP whose inputs are the L1/L2 cache sizes; this
implementation accepts any parameter-vector extractor so the same class
serves full-config encodings too.

Training keeps the foundation frozen (representations are computed once and
cached), so each step is a small MLP regression — which is why the paper's
DSE trains in hours, not days.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.perfvec import PerfVec
from repro.core.predictor import TICK_SCALE
from repro.ml.autograd import Tensor, mse_loss
from repro.ml.layers import MLP, Module
from repro.ml.optim import Adam
from repro.uarch.config import MicroarchConfig


def cache_size_params(config: MicroarchConfig) -> np.ndarray:
    """The Fig. 7 DSE knobs: log2 of L1D and L2 capacity, normalized."""
    return np.array(
        [np.log2(config.l1d.size_kb) / 14.0, np.log2(config.l2.size_kb) / 14.0],
        dtype=np.float32,
    )


class UarchModel(Module):
    """MLP: microarchitecture parameters -> d-dim representation."""

    def __init__(self, param_size: int, dim: int, hidden: int = 32,
                 layers: int = 2, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        sizes = [param_size] + [hidden] * (layers - 1) + [dim]
        self.net = MLP(sizes, rng=rng)
        self.param_size = param_size
        self.dim = dim

    def forward(self, params: Tensor) -> Tensor:
        return self.net(params)

    def representations(self, configs: Sequence[MicroarchConfig],
                        extractor: Callable[[MicroarchConfig], np.ndarray]
                        ) -> np.ndarray:
        """Representations of arbitrary configs (inference)."""
        params = np.stack([extractor(c) for c in configs])
        return self.forward(Tensor(params)).data


def train_uarch_model(
    model: PerfVec,
    configs: Sequence[MicroarchConfig],
    tuning_features: np.ndarray,
    tuning_targets: np.ndarray,
    extractor: Callable[[MicroarchConfig], np.ndarray] = cache_size_params,
    hidden: int = 32,
    layers: int = 2,
    epochs: int = 400,
    lr: float = 5e-3,
    chunk_len: int = 64,
    seed: int = 0,
    verbose: bool = False,
) -> UarchModel:
    """Train a :class:`UarchModel` against a frozen foundation.

    ``tuning_targets[:, j]`` are incremental latencies (ticks) of the tuning
    trace on ``configs[j]``.  Representations are cached once; each epoch is
    one full-batch Adam step over ``||reps @ uarch(params).T - y||^2``.
    """
    if tuning_targets.shape[1] != len(configs):
        raise ValueError("target columns must match configs")
    reps = model.instruction_representations(tuning_features, chunk_len=chunk_len)
    params = np.stack([extractor(c) for c in configs]).astype(np.float32)
    uarch = UarchModel(
        params.shape[1], model.foundation.dim, hidden=hidden, layers=layers,
        rng=np.random.default_rng(seed),
    )
    optimizer = Adam(uarch.parameters(), lr=lr)
    reps_t = Tensor(reps)
    params_t = Tensor(params)
    scaled = tuning_targets * TICK_SCALE
    for epoch in range(epochs):
        optimizer.zero_grad()
        m = uarch(params_t)  # (k, d)
        preds = reps_t @ m.transpose()
        loss = mse_loss(preds, scaled)
        loss.backward()
        optimizer.step()
        if verbose and epoch % 50 == 0:
            print(f"uarch-model epoch {epoch}: loss={loss.item():.5f}")
    return uarch
