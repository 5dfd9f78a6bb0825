"""SimNet-style ML simulation (Li et al., SIGMETRICS'22 [37]).

SimNet predicts each instruction's latency from *microarchitecture-
dependent* features — "such as cache hit/miss, making it not generalizable
across microarchitectures" — and walks the whole trace instruction by
instruction.  The feature extractor therefore runs the target config's
cache hierarchy and branch predictor over the trace (the paper's analogous
step is a simplified gem5 run to gather SimNet's input traces), and a new
model must be trained per microarchitecture.
"""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor, mse_loss
from repro.ml.layers import MLP
from repro.ml.optim import Adam
from repro.sim.branch import BranchUnit
from repro.sim.cache import CacheHierarchy
from repro.uarch.config import MicroarchConfig
from repro.vm.trace import OP_CLASS, OP_IS_COND, Trace

#: op-class one-hot (15) + data hit level one-hot (4) + ifetch hit level
#: one-hot (4) + branch mispredict flag (1)
SIMNET_FEATURES = 24


def simnet_features(trace: Trace, config: MicroarchConfig) -> np.ndarray:
    """Microarchitecture-dependent per-instruction features.

    Runs the target's caches and branch predictor over the trace in program
    order — the step that must be *redone for every microarchitecture*
    (unlike PerfVec's reusable microarchitecture-independent features).
    """
    n = len(trace)
    feats = np.zeros((n, SIMNET_FEATURES), dtype=np.float32)
    opclass = OP_CLASS[trace.opid]
    feats[np.arange(n), opclass] = 1.0

    hierarchy = CacheHierarchy(config)
    branch_unit = BranchUnit(config.branch)
    line_shift = config.l1d.line_bytes.bit_length() - 1
    pcs = trace.pc.tolist()
    addrs = trace.mem_addr.tolist()
    takens = trace.branch_taken.tolist()
    targets = trace.branch_target.tolist()
    is_cond = OP_IS_COND[trace.opid].tolist()
    is_mem = trace.is_mem.tolist()
    cur_line = -1
    for i in range(n):
        line = pcs[i] >> line_shift
        if line != cur_line:
            _, lvl = hierarchy.access_ifetch(pcs[i], 0)
            feats[i, 19 + lvl] = 1.0
            cur_line = line
        else:
            feats[i, 19 + 1] = 1.0  # same line: L1-hit equivalent
        if is_mem[i]:
            _, lvl = hierarchy.access_data(addrs[i], 0)
            feats[i, 15 + lvl] = 1.0
        if is_cond[i]:
            if branch_unit.resolve_conditional(pcs[i], targets[i], takens[i] == 1):
                feats[i, 23] = 1.0
    return feats


class SimNetModel:
    """Per-microarchitecture MLP: dependent features -> instruction latency."""

    def __init__(self, hidden: int = 32, layers: int = 2, epochs: int = 30,
                 batch_size: int = 512, lr: float = 3e-3, seed: int = 0):
        self.hidden = hidden
        self.layers = layers
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self._net: MLP | None = None
        self._scale = 1.0

    def fit(self, features: np.ndarray, latencies: np.ndarray) -> "SimNetModel":
        if len(features) != len(latencies):
            raise ValueError("features/latencies mismatch")
        sizes = [features.shape[1]] + [self.hidden] * (self.layers - 1) + [1]
        self._net = MLP(sizes, rng=np.random.default_rng(self.seed))
        self._scale = float(np.mean(latencies)) or 1.0
        y = (latencies / self._scale).astype(np.float32)[:, None]
        optimizer = Adam(self._net.parameters(), lr=self.lr)
        rng = np.random.default_rng(self.seed + 1)
        n = len(features)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                optimizer.zero_grad()
                loss = mse_loss(self._net(Tensor(features[idx])), y[idx])
                loss.backward()
                optimizer.step()
        return self

    def predict_latencies(self, features: np.ndarray) -> np.ndarray:
        if self._net is None:
            raise RuntimeError("model not fitted")
        return self._net(Tensor(features)).data[:, 0].astype(np.float64) * self._scale

    def predict_total_time(self, features: np.ndarray) -> float:
        """Program time = walk every instruction and sum (SimNet's mode)."""
        return float(self.predict_latencies(features).sum())
