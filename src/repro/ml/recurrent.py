"""Recurrent layers: LSTM (uni/bi-directional, multi-layer) and GRU.

Training runs each recurrent layer over a whole ``(B, T)`` chunk as one
autograd node (:func:`lstm_layer`, :func:`gru_layer`), so a training
step's graph does not grow with the chunk length:

* the forward pass computes the input projection of every timestep in one
  time-major ``(T·B, F) @ (F, G·H)`` GEMM, then runs the recurrence with
  one ``(B, H) @ (H, G·H)`` matmul per step, writing gate activations and
  states into preallocated ``(T, B, ·)`` buffers.  It performs the cell's
  element operations in the cell's order, so it matches an unrolled
  :meth:`LSTMCell.forward` / :meth:`GRUCell.forward`, which stay as the
  per-step reference the tests compare against;
* the backward pass computes the loop-invariant gate derivatives for all
  timesteps at once and keeps only the ``dh``/``dc`` recurrence and one
  ``(B, G·H) @ (G·H, H)`` matmul per step in the reversed loop; the weight,
  bias and input gradients are one GEMM or reduction each over ``T·B``
  rows.

Layers accept and return explicit hidden state, enabling the truncated-BPTT
streaming that PerfVec training uses (each contiguous trace chunk continues
from the detached final state of the previous chunk — the causal analogue
of the paper's c-instruction context window).

Training, validation and serving (``Module.infer``) share one step loop
with two storage policies.  A pass that records a node keeps the history
backward reads: every step's gates, cell state and ``tanh`` of it.  A
pass that records none (under :func:`~repro.ml.autograd.no_grad`) keeps
only the running ``(B, H)`` state, the ``(T, B, H)`` outputs and the
input projection of one block of :data:`INFER_BLOCK` timesteps, computed
by the same GEMM over fewer rows, so both passes give bit-identical
outputs.
"""

from __future__ import annotations

import numpy as np

from repro.ml.activations import sigmoid_scratch, stable_sigmoid_
from repro.ml.autograd import Tensor, concat, grad_enabled
from repro.ml.layers import Linear, Module

#: Timesteps whose input projection a pass that records no node computes
#: at once (a recorded pass projects the whole chunk).
INFER_BLOCK = 8


class LSTMCell(Module):
    """Fused LSTM cell: gates = x@Wx + h@Wh + b, order [i, f, g, o]."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.xw = Linear(input_size, 4 * hidden_size, bias=True, rng=rng)
        self.hw = Linear(hidden_size, 4 * hidden_size, bias=False, rng=rng)
        # forget-gate bias init to 1: standard trick for gradient flow
        self.xw.bias.data[hidden_size : 2 * hidden_size] = 1.0

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        H = self.hidden_size
        z = self.xw(x) + self.hw(h)
        i = z[:, 0:H].sigmoid()
        f = z[:, H : 2 * H].sigmoid()
        g = z[:, 2 * H : 3 * H].tanh()
        o = z[:, 3 * H : 4 * H].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class GRUCell(Module):
    """Fused GRU cell: gates [r, z] plus candidate n."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.xw = Linear(input_size, 3 * hidden_size, bias=True, rng=rng)
        self.hw = Linear(hidden_size, 3 * hidden_size, bias=False, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        H = self.hidden_size
        xz = self.xw(x)
        hz = self.hw(h)
        r = (xz[:, 0:H] + hz[:, 0:H]).sigmoid()
        z = (xz[:, H : 2 * H] + hz[:, H : 2 * H]).sigmoid()
        n = (xz[:, 2 * H : 3 * H] + r * hz[:, 2 * H : 3 * H]).tanh()
        return (1.0 - z) * n + z * h


def _records(x: Tensor, cell) -> bool:
    """Whether the layer's result will be an autograd node (the test
    :meth:`Tensor._result` applies)."""
    params = (x, cell.xw.weight, cell.xw.bias, cell.hw.weight)
    return grad_enabled() and any(p.requires_grad for p in params)


def _blocks(time: int, record: bool) -> list[tuple[int, int]]:
    """The ``[t0, t1)`` timestep ranges projected by one GEMM each.

    A recorded pass keeps every step for backward: one block.  Otherwise
    blocks are :data:`INFER_BLOCK` steps, and a shorter remainder joins
    the block before it: at batch 1 a one-step block is a one-row GEMM,
    which OpenBLAS routes to GEMV, and GEMV rounds differently.
    """
    if record or time <= INFER_BLOCK:
        return [(0, time)]
    bounds = list(range(0, time - INFER_BLOCK + 1, INFER_BLOCK)) + [time]
    return list(zip(bounds[:-1], bounds[1:]))


def _slots(record: bool, steps: int, shape: tuple[int, ...],
           dtype) -> np.ndarray:
    """A per-step buffer: ``steps`` rows when backward will read them,
    else one row that every step overwrites.  Row ``t % len(buffer)``
    is step ``t``'s under both policies."""
    return np.empty((steps if record else 1, *shape), dtype)


def _input_gates(cell, x: Tensor, t0: int, t1: int,
                 dtype) -> tuple[np.ndarray, np.ndarray]:
    """Time-major inputs ``(n·B, F)`` of steps ``t0 : t1`` and their
    ``x@Wx + b`` as ``(n, B, G·H)``, from one GEMM."""
    batch, _, feat = x.shape
    steps = t1 - t0
    xs = np.ascontiguousarray(x.data[:, t0:t1].transpose(1, 0, 2), dtype=dtype)
    xs = xs.reshape(steps * batch, feat)
    gates = (xs @ cell.xw.weight.data).reshape(steps, batch, -1)
    gates += cell.xw.bias.data
    return xs, gates


def _layer_grads(cell, x: Tensor, xs: np.ndarray, hs: np.ndarray,
                 dgx: np.ndarray, dhz: np.ndarray) -> None:
    """Accumulate one layer's parameter and input gradients.

    ``dgx``/``dhz`` are the ``(T·B, G·H)`` gradients of the input-side and
    recurrent-side gate pre-activations; each gradient below is one GEMM
    or reduction over all ``T·B`` rows.
    """
    wx, bx, wh = cell.xw.weight, cell.xw.bias, cell.hw.weight
    if wx.requires_grad:
        wx._accumulate(xs.T @ dgx)
    if bx.requires_grad:
        bx._accumulate(dgx.sum(axis=0))
    if wh.requires_grad:
        wh._accumulate(hs[:-1].reshape(len(dhz), -1).T @ dhz)
    if x.requires_grad:
        batch, time, feat = x.shape
        dx = (dgx @ wx.data.T).reshape(time, batch, feat)
        x._accumulate(dx.transpose(1, 0, 2))


def lstm_layer(cell: LSTMCell, x: Tensor, h0: np.ndarray, c0: np.ndarray
               ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One LSTM layer over a ``(B, T, F)`` chunk as a single autograd node.

    ``h0``/``c0`` are the ``(B, H)`` state arrays entering the chunk
    (detached: truncated BPTT stops at chunk boundaries).  Returns the
    outputs ``(B, T, H)`` and the final ``(h, c)`` as detached arrays.
    """
    wx, bx, wh = cell.xw.weight, cell.xw.bias, cell.hw.weight
    batch, time, _ = x.shape
    H = cell.hidden_size
    dtype = np.result_type(x.data, wx.data, bx.data, wh.data, h0, c0)
    record = _records(x, cell)
    hs = np.empty((time + 1, batch, H), dtype)  # hs[t] is the state entering step t
    # cs[t % len(cs)] is the cell state entering step t, tanh_cs[t % ...]
    # its tanh after step t
    cs = _slots(record, time + 1, (batch, H), dtype)
    tanh_cs = _slots(record, time, (batch, H), dtype)
    hs[0], cs[0] = h0, c0
    hz = np.empty((batch, 4 * H), dtype)
    tmp = np.empty((batch, H), dtype)
    e, mask = sigmoid_scratch((batch, 4 * H), dtype)
    for t0, t1 in _blocks(time, record):
        # gates[t - t0]: pre-activations of step t, then its activations
        # [i, f, g, o]; a recorded pass has one block, so these cover
        # every step for backward
        xs, gates = _input_gates(cell, x, t0, t1, dtype)
        for t in range(t0, t1):
            z = gates[t - t0]
            c_in, c_out = cs[t % len(cs)], cs[(t + 1) % len(cs)]
            tanh_c = tanh_cs[t % len(tanh_cs)]
            np.matmul(hs[t], wh.data, out=hz)
            z += hz
            i, f, g, o = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
            np.tanh(g, out=tmp)
            stable_sigmoid_(z, e, mask)  # i, f and o; g is put back below
            g[...] = tmp
            np.multiply(f, c_in, out=c_out)
            np.multiply(i, g, out=tmp)
            c_out += tmp
            np.tanh(c_out, out=tanh_c)
            np.multiply(o, tanh_c, out=hs[t + 1])

    def backward(grad: np.ndarray) -> None:
        dout = grad.transpose(1, 0, 2)
        g4 = gates.reshape(time, batch, 4, H)
        i, f, g, o = (g4[:, :, k] for k in range(4))
        # loop-invariant factors for all steps; the loop then only forms
        # dc_t += dh_t * dc_dh, dz[i, f, g] = dc_t * a[:3], dz[o] = dh_t * a[3]
        a = np.empty_like(g4)
        np.multiply(g, i * (1.0 - i), out=a[:, :, 0])
        np.multiply(cs[:-1], f * (1.0 - f), out=a[:, :, 1])
        np.multiply(i, 1.0 - g * g, out=a[:, :, 2])
        np.multiply(tanh_cs, o * (1.0 - o), out=a[:, :, 3])
        dc_dh = o * (1.0 - tanh_cs * tanh_cs)
        dz = np.empty_like(g4)
        dh = np.zeros((batch, H), dtype)  # carries dz[t + 1] @ Wh^T
        dc = np.zeros((batch, H), dtype)  # carries dc[t + 1] * f[t + 1]
        wh_t = wh.data.T
        for t in range(time - 1, -1, -1):
            dh += dout[t]
            dc += dh * dc_dh[t]
            np.multiply(dc[:, None, :], a[t, :, :3], out=dz[t, :, :3])
            np.multiply(dh, a[t, :, 3], out=dz[t, :, 3])
            dc *= f[t]
            np.matmul(dz[t].reshape(batch, 4 * H), wh_t, out=dh)
        dz = dz.reshape(time * batch, 4 * H)
        _layer_grads(cell, x, xs, hs, dz, dz)

    out = Tensor._result(hs[1:].transpose(1, 0, 2), (x, wx, bx, wh), backward)
    return out, hs[time].copy(), cs[-1].copy()


def gru_layer(cell: GRUCell, x: Tensor, h0: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """One GRU layer over a ``(B, T, F)`` chunk as a single autograd node.

    ``h0`` is the detached ``(B, H)`` state array entering the chunk.
    Returns the outputs ``(B, T, H)`` and the final ``h`` as a detached
    array.
    """
    wx, bx, wh = cell.xw.weight, cell.xw.bias, cell.hw.weight
    batch, time, _ = x.shape
    H = cell.hidden_size
    dtype = np.result_type(x.data, wx.data, bx.data, wh.data, h0)
    record = _records(x, cell)
    # hzs[t % len(hzs)]: step t's recurrent-side pre-activations h @ Wh
    hzs = _slots(record, time, (batch, 3 * H), dtype)
    hs = np.empty((time + 1, batch, H), dtype)  # hs[t] is the state entering step t
    hs[0] = h0
    tmp = np.empty((batch, H), dtype)
    e, mask = sigmoid_scratch((batch, 2 * H), dtype)
    for t0, t1 in _blocks(time, record):
        # gates[t - t0]: input-side pre-activations of step t, then
        # [r, z, n]; a recorded pass has one block covering every step
        xs, gates = _input_gates(cell, x, t0, t1, dtype)
        for t in range(t0, t1):
            xz, hz = gates[t - t0], hzs[t % len(hzs)]
            np.matmul(hs[t], wh.data, out=hz)
            rz = xz[:, : 2 * H]
            rz += hz[:, : 2 * H]
            stable_sigmoid_(rz, e, mask)
            r, z, n = xz[:, :H], xz[:, H : 2 * H], xz[:, 2 * H :]
            np.multiply(r, hz[:, 2 * H :], out=tmp)
            n += tmp
            np.tanh(n, out=n)
            # h_t = (1 - z) * n + z * h_{t-1}
            np.subtract(1.0, z, out=tmp)
            np.multiply(tmp, n, out=hs[t + 1])
            np.multiply(z, hs[t], out=tmp)
            hs[t + 1] += tmp

    def backward(grad: np.ndarray) -> None:
        dout = grad.transpose(1, 0, 2)
        g3 = gates.reshape(time, batch, 3, H)
        r, z, n = (g3[:, :, k] for k in range(3))
        # loop-invariant factors for all steps; the loop then only forms
        # the recurrent-side gradient dh_t * a_h (n's share scaled by r),
        # and the input side dh_t * a follows after it
        a = np.empty_like(g3)
        np.multiply(1.0 - z, 1.0 - n * n, out=a[:, :, 2])
        np.multiply(a[:, :, 2] * hzs[:, :, 2 * H :], r * (1.0 - r),
                    out=a[:, :, 0])
        np.multiply(hs[:-1] - n, z * (1.0 - z), out=a[:, :, 1])
        a_h = a.copy()
        a_h[:, :, 2] *= r
        dhz = np.empty_like(g3)
        dhs = np.empty((time, batch, H), dtype)
        dh = np.zeros((batch, H), dtype)  # carries what step t + 1 sends h_t
        direct = np.empty((batch, H), dtype)
        wh_t = wh.data.T
        for t in range(time - 1, -1, -1):
            dh += dout[t]
            dhs[t] = dh
            np.multiply(dh[:, None, :], a_h[t], out=dhz[t])
            np.multiply(dh, z[t], out=direct)
            np.matmul(dhz[t].reshape(batch, 3 * H), wh_t, out=dh)
            dh += direct
        dgx = dhs[:, :, None, :] * a
        _layer_grads(cell, x, xs, hs, dgx.reshape(time * batch, 3 * H),
                     dhz.reshape(time * batch, 3 * H))

    out = Tensor._result(hs[1:].transpose(1, 0, 2), (x, wx, bx, wh), backward)
    return out, hs[time].copy()


class LSTM(Module):
    """Multi-layer (optionally bidirectional) LSTM over (B, T, F) input."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 bidirectional: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.bidirectional = bidirectional
        dirs = 2 if bidirectional else 1
        self.cells = []
        self.cells_rev = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size * dirs
            self.cells.append(LSTMCell(in_size, hidden_size, rng=rng))
            if bidirectional:
                self.cells_rev.append(LSTMCell(in_size, hidden_size, rng=rng))

    @property
    def output_size(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)

    def initial_state(self, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Zero (h, c) per layer for the forward direction."""
        H = self.hidden_size
        return [
            (np.zeros((batch, H), dtype=np.float32),
             np.zeros((batch, H), dtype=np.float32))
            for _ in range(self.num_layers)
        ]

    def forward(
        self, x: Tensor, state: list[tuple[np.ndarray, np.ndarray]] | None = None
    ) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
        """Returns (outputs (B, T, D), final detached state per layer)."""
        if x.ndim != 3:
            raise ValueError("LSTM expects (batch, time, features)")
        batch = x.shape[0]
        if state is None:
            state = self.initial_state(batch)
        final_state: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in range(self.num_layers):
            h0, c0 = state[layer]
            out, h, c = lstm_layer(self.cells[layer], x, h0, c0)
            final_state.append((h, c))
            if self.bidirectional:
                # reverse direction always starts from zero within the chunk
                zeros = np.zeros((batch, self.hidden_size), dtype=np.float32)
                rev, _, _ = lstm_layer(
                    self.cells_rev[layer], x[:, ::-1], zeros, zeros
                )
                out = concat([out, rev[:, ::-1]], axis=-1)
            x = out
        return x, final_state


class GRU(Module):
    """Multi-layer unidirectional GRU over (B, T, F) input."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            self.cells.append(GRUCell(in_size, hidden_size, rng=rng))

    @property
    def output_size(self) -> int:
        return self.hidden_size

    def initial_state(self, batch: int) -> list[np.ndarray]:
        H = self.hidden_size
        return [np.zeros((batch, H), dtype=np.float32) for _ in range(self.num_layers)]

    def forward(
        self, x: Tensor, state: list[np.ndarray] | None = None
    ) -> tuple[Tensor, list[np.ndarray]]:
        if x.ndim != 3:
            raise ValueError("GRU expects (batch, time, features)")
        if state is None:
            state = self.initial_state(x.shape[0])
        final_state: list[np.ndarray] = []
        for layer, cell in enumerate(self.cells):
            x, h = gru_layer(cell, x, state[layer])
            final_state.append(h)
        return x, final_state
