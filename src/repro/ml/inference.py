"""Batched no-grad inference kernels (the serving-side forward pass).

Training runs each recurrent layer as one autograd node that keeps every
timestep's gate activations and states for its backward pass.  Serving
needs none of that, so this module re-implements the forward pass of the
recurrent layers as fused NumPy kernels over raw ndarrays:

* the input-to-gate projection of *every* timestep is computed in one
  ``(B*T, F) @ (F, 4H)`` BLAS call before the time loop starts;
* the time loop performs exactly one recurrent matmul per step, writing
  hidden states into a preallocated ``(B, T, H)`` output buffer;
* gate nonlinearities reuse the autograd engine's numerically-stable
  formulations, so inference outputs match the training-mode forward to
  float32 precision (the parity suite asserts ≤ 1e-6).

:func:`iter_chunk_batches` is the multi-sequence batcher underneath
:meth:`repro.core.perfvec.PerfVec.program_representations` and the serving
layer: it slices any number of feature streams into fixed-length chunks and
groups them — across requests — into dense batches, so one BLAS call per
timestep serves every queued request at once.

Layer modules expose this path as ``Module.infer`` (see
:mod:`repro.ml.layers`); modules without a hand-fused kernel fall back to
running ``forward`` under :func:`repro.ml.autograd.no_grad`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# the one shared formulation of the gate math (autograd, these reference
# kernels and the repro.jit code generator all import it from there)
from repro.ml.activations import stable_sigmoid

__all__ = [
    "stable_sigmoid",
    "lstm_infer",
    "gru_infer",
    "iter_chunk_batches",
]


def _jit_kernel(kind: str, cell, batch: int, time: int):
    """The compiled kernel for one cell dispatch — or None (reference).

    The signature is read off the live call: the cell's layer dims plus
    the chunk's batch and sequence length.  :mod:`repro.jit` owns every
    policy question (enabled? cached? compilable?); a None answer keeps
    the numpy reference path below as the always-on fallback.
    """
    from repro import jit

    return jit.kernel_for(
        kind,
        input_size=cell.xw.weight.data.shape[0],
        hidden_size=cell.hidden_size,
        batch=batch,
        time=time,
    )


def _as_f32(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float32)


def _lstm_cell_infer(
    cell, x: np.ndarray, h0: np.ndarray, c0: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run one LSTM cell over ``x (B, T, F)``, writing hiddens into ``out``.

    The input projection for all T steps is hoisted into a single matmul;
    the loop body is one ``(B, H) @ (H, 4H)`` matmul plus element-wise gate
    math on preallocated scratch buffers.
    """
    batch, time, feat = x.shape
    H = cell.hidden_size
    wx = cell.xw.weight.data
    bx = cell.xw.bias.data
    wh = cell.hw.weight.data
    gates = x.reshape(batch * time, feat) @ wx
    gates += bx
    gates = gates.reshape(batch, time, 4 * H)
    h = _as_f32(h0)
    c = np.array(c0, dtype=np.float32, copy=True)  # mutated in place below
    z = np.empty((batch, 4 * H), dtype=np.float32)
    tmp = np.empty((batch, H), dtype=np.float32)
    for t in range(time):
        np.matmul(h, wh, out=z)
        z += gates[:, t]
        i = stable_sigmoid(z[:, 0:H])
        f = stable_sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = stable_sigmoid(z[:, 3 * H : 4 * H])
        np.multiply(f, c, out=c)
        np.multiply(i, g, out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        h = np.multiply(o, tmp, out=out[:, t])
    return h, c


def lstm_infer(
    lstm, x: np.ndarray, state=None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Inference forward of :class:`repro.ml.recurrent.LSTM` on ndarrays.

    Mirrors ``LSTM.forward`` (multi-layer, optionally bidirectional; the
    reverse direction always starts from zero state within the chunk) and
    returns ``(outputs (B, T, D), final state per layer)``.
    """
    x = _as_f32(x)
    if x.ndim != 3:
        raise ValueError("LSTM expects (batch, time, features)")
    batch, time = x.shape[0], x.shape[1]
    H = lstm.hidden_size
    if state is None:
        state = lstm.initial_state(batch)
    final_state: list[tuple[np.ndarray, np.ndarray]] = []
    inputs = x
    for layer in range(lstm.num_layers):
        h0, c0 = state[layer]
        cell = lstm.cells[layer]
        out = np.empty((batch, time, H), dtype=np.float32)
        kernel = _jit_kernel("lstm", cell, batch, time)
        if kernel is not None:
            h, c = kernel(
                cell.xw.weight.data, cell.xw.bias.data, cell.hw.weight.data,
                inputs, h0, c0, out,
            )
        else:
            h, c = _lstm_cell_infer(cell, inputs, h0, c0, out)
        final_state.append((h.copy(), c.copy()))
        if lstm.bidirectional:
            rev_cell = lstm.cells_rev[layer]
            zeros = np.zeros((batch, H), dtype=np.float32)
            rev = np.empty_like(out)
            kernel = _jit_kernel("lstm", rev_cell, batch, time)
            if kernel is not None:
                kernel(
                    rev_cell.xw.weight.data, rev_cell.xw.bias.data,
                    rev_cell.hw.weight.data, inputs[:, ::-1], zeros, zeros,
                    rev,
                )
            else:
                _lstm_cell_infer(rev_cell, inputs[:, ::-1], zeros, zeros, rev)
            inputs = np.concatenate([out, rev[:, ::-1]], axis=-1)
        else:
            inputs = out
    return inputs, final_state


def _gru_cell_infer(
    cell, x: np.ndarray, h0: np.ndarray, out: np.ndarray
) -> np.ndarray:
    batch, time, feat = x.shape
    H = cell.hidden_size
    wx = cell.xw.weight.data
    bx = cell.xw.bias.data
    wh = cell.hw.weight.data
    gates = x.reshape(batch * time, feat) @ wx
    gates += bx
    gates = gates.reshape(batch, time, 3 * H)
    h = _as_f32(h0)
    hz = np.empty((batch, 3 * H), dtype=np.float32)
    for t in range(time):
        np.matmul(h, wh, out=hz)
        xz = gates[:, t]
        r = stable_sigmoid(xz[:, 0:H] + hz[:, 0:H])
        z = stable_sigmoid(xz[:, H : 2 * H] + hz[:, H : 2 * H])
        n = np.tanh(xz[:, 2 * H : 3 * H] + r * hz[:, 2 * H : 3 * H])
        np.multiply(1.0 - z, n, out=out[:, t])
        out[:, t] += z * h
        h = out[:, t]
    return h


def gru_infer(gru, x: np.ndarray, state=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Inference forward of :class:`repro.ml.recurrent.GRU` on ndarrays."""
    x = _as_f32(x)
    if x.ndim != 3:
        raise ValueError("GRU expects (batch, time, features)")
    batch, time = x.shape[0], x.shape[1]
    if state is None:
        state = gru.initial_state(batch)
    final_state: list[np.ndarray] = []
    inputs = x
    for layer in range(gru.num_layers):
        cell = gru.cells[layer]
        out = np.empty((batch, time, gru.hidden_size), dtype=np.float32)
        kernel = _jit_kernel("gru", cell, batch, time)
        if kernel is not None:
            h = kernel(
                cell.xw.weight.data, cell.xw.bias.data, cell.hw.weight.data,
                inputs, state[layer], out,
            )
        else:
            h = _gru_cell_infer(cell, inputs, state[layer], out)
        final_state.append(h.copy())
        inputs = out
    return inputs, final_state


#: One batched engine work item: rows ``start : start + length`` of stream
#: ``stream`` occupy one row of the batch.
Placement = tuple[int, int, int]


def iter_chunk_batches(
    streams: Sequence[np.ndarray],
    chunk_len: int,
    batch_size: int,
) -> Iterator[tuple[list[Placement], np.ndarray]]:
    """Slice feature streams into dense ``(b, L, F)`` inference batches.

    Every stream is cut into contiguous ``chunk_len``-row chunks (fresh
    recurrent state per chunk, mirroring training).  Full chunks from *all*
    streams batch together, ``batch_size`` at a time; ragged tails batch
    with tails of equal length.  Yields ``(placements, batch)`` where
    ``placements[i] = (stream index, start row, length)`` locates batch row
    ``i`` in its source stream.  Together the yielded placements cover every
    row of every stream exactly once.
    """
    if chunk_len < 1:
        raise ValueError("chunk_len must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not streams:
        return
    feat = streams[0].shape[1]
    full: list[tuple[int, int]] = []
    tails: dict[int, list[tuple[int, int]]] = {}
    for s, stream in enumerate(streams):
        n = len(stream)
        if n == 0:
            raise ValueError(f"empty feature stream (index {s})")
        n_full = n // chunk_len
        full.extend((s, i * chunk_len) for i in range(n_full))
        rem = n - n_full * chunk_len
        if rem:
            tails.setdefault(rem, []).append((s, n_full * chunk_len))
    groups = [(chunk_len, full)] + sorted(tails.items())
    for length, places in groups:
        for i in range(0, len(places), batch_size):
            group = places[i : i + batch_size]
            batch = np.empty((len(group), length, feat), dtype=np.float32)
            for row, (s, start) in enumerate(group):
                batch[row] = streams[s][start : start + length]
            yield [(s, start, length) for s, start in group], batch
