"""The combined PerfVec model.

``PerfVec = foundation (instruction representations) + microarchitecture
table + bias-free linear predictor``.  The compositional property (Sec.
III-B) gives the two inference modes:

* *per-instruction*: ``t_i^j = R_i · M_j`` — detailed analysis;
* *per-program*: ``T^j = (Σ_i R_i) · M_j`` — a program representation is
  the **sum** of its instruction representations, computed once and reused
  for every microarchitecture.

Inference runs on the batched no-grad engine (:mod:`repro.ml.inference`):
feature streams — any number of them at once — are cut into contiguous
chunks, chunks from *all* streams are packed into dense batches, and the
foundation's ``infer`` runs each batch through the same fused recurrent
step loop as training, with no autograd node recorded.  Such a pass
keeps each layer's outputs and the running state, not the gate history
backward would read, and :meth:`PerfVec.program_representations` sums
each batch's representations in float64 without a float64 copy of them.
"The representations of all instructions can be generated in parallel"
(Sec. III-B) — here parallelism is the batch dimension of one BLAS call,
shared across every queued request.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.foundation import Foundation
from repro.core.predictor import MicroarchTable, TICK_SCALE
from repro.ml.autograd import Tensor
from repro.ml.inference import iter_chunk_batches
from repro.ml.layers import Module


class PerfVec(Module):
    """Foundation + microarchitecture table."""

    def __init__(self, foundation: Foundation, table: MicroarchTable):
        super().__init__()
        if foundation.dim != table.dim:
            raise ValueError("foundation and table dimensionality differ")
        self.foundation = foundation
        self.table = table

    # -- training-time forward -------------------------------------------
    def forward(self, x: Tensor, state=None):
        """(B, T, F) -> (scaled latency predictions (B, T, k), reps, state)."""
        reps, new_state = self.foundation(x, state)
        preds = self.table(reps)
        return preds, reps, new_state

    def infer(self, x: np.ndarray, state=None):
        """No-grad :meth:`forward` on raw ndarrays: (preds, reps, state)."""
        reps, new_state = self.foundation.infer(x, state)
        preds = reps @ self.table.table.data.T
        return preds, reps, new_state

    # -- inference ----------------------------------------------------------
    def instruction_representations(
        self, features: np.ndarray, chunk_len: int = 64, batch_size: int = 64
    ) -> np.ndarray:
        """Representations R_i for a feature stream ``[N, F]`` (inference).

        The stream is cut into contiguous chunks (fresh state per chunk,
        mirroring training); chunks are batched through the foundation's
        no-grad forward for throughput, and the ragged tail rides as a
        final short chunk.
        """
        features = np.asarray(features, dtype=np.float32)
        self.eval()
        reps_out = np.empty(
            (len(features), self.foundation.dim), dtype=np.float32
        )
        for places, batch in iter_chunk_batches(
            [features], chunk_len, batch_size
        ):
            reps, _ = self.foundation.infer(batch)
            for row, (_s, start, length) in enumerate(places):
                reps_out[start : start + length] = reps[row]
        return reps_out

    def program_representations(
        self,
        streams: Sequence[np.ndarray],
        chunk_len: int = 64,
        batch_size: int = 64,
    ) -> np.ndarray:
        """Program representations ``(len(streams), d)`` in one engine pass.

        Chunks from every stream share inference batches, so a queue of
        serving requests costs one fused forward per batch rather than one
        per request.  Per-chunk representation sums are accumulated in
        float64 without materializing per-instruction representations, so
        arbitrarily long streams pass through bounded memory.
        """
        streams = [np.asarray(s, dtype=np.float32) for s in streams]
        self.eval()
        out = np.zeros((len(streams), self.foundation.dim), dtype=np.float64)
        for places, batch in iter_chunk_batches(streams, chunk_len, batch_size):
            reps, _ = self.foundation.infer(batch)
            sums = reps.sum(axis=1, dtype=np.float64)
            for row, (s, _start, _length) in enumerate(places):
                out[s] += sums[row]
        return out

    def program_representation(
        self, features: np.ndarray, chunk_len: int = 64, batch_size: int = 64
    ) -> np.ndarray:
        """Program representation: the sum of instruction representations."""
        return self.program_representations(
            [features], chunk_len, batch_size
        )[0]

    # -- prediction ----------------------------------------------------------
    def predict_latencies(
        self, features: np.ndarray, chunk_len: int = 64, batch_size: int = 64
    ) -> np.ndarray:
        """Per-instruction incremental latencies (0.1 ns ticks), all configs."""
        reps = self.instruction_representations(features, chunk_len, batch_size)
        return (reps @ self.table.table.data.T) / TICK_SCALE

    def predict_total_time(
        self, program_rep: np.ndarray, uarch_rep: np.ndarray | None = None,
        config_index: int | None = None,
    ) -> float:
        """Total execution time (0.1 ns ticks) from representations.

        Exactly one of ``uarch_rep`` / ``config_index`` selects the target
        microarchitecture.
        """
        if (uarch_rep is None) == (config_index is None):
            raise ValueError("pass exactly one of uarch_rep / config_index")
        if uarch_rep is None:
            uarch_rep = self.table.vector(config_index)
        return float(program_rep @ uarch_rep.astype(np.float64)) / TICK_SCALE

    def predict_program_times(
        self, features: np.ndarray, chunk_len: int = 64, batch_size: int = 64
    ) -> np.ndarray:
        """Total time (ticks) on every sampled microarchitecture at once."""
        return self.predict_many_program_times(
            [features], chunk_len, batch_size
        )[0]

    def predict_many_program_times(
        self,
        streams: Sequence[np.ndarray],
        chunk_len: int = 64,
        batch_size: int = 64,
    ) -> np.ndarray:
        """Batched serving: total times ``(len(streams), k)`` for a whole
        queue of feature streams through one engine pass."""
        reps = self.program_representations(streams, chunk_len, batch_size)
        return (reps @ self.table.table.data.T.astype(np.float64)) / TICK_SCALE
