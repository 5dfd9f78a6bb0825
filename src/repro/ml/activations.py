"""Shared gate math: the single source of truth for activation kernels.

Two consumers need *identical* numerics for the recurrent gate
nonlinearities:

* the autograd engine (:meth:`repro.ml.autograd.Tensor.sigmoid`) — the
  per-step cell reference;
* the fused recurrent ops in :mod:`repro.ml.recurrent` — training and
  no-grad inference alike, via the in-place :func:`stable_sigmoid_`.

Keeping every formulation here means a numerical change lands in both
paths at once (and the parity suites pin them to each other).
:func:`stable_sigmoid_` performs exactly the same element-wise
operations as the allocating :func:`stable_sigmoid` — ``where(x >= 0,
1/(1+e), e/(1+e))`` with ``e = exp(-|x|)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid_scratch",
    "stable_sigmoid",
    "stable_sigmoid_",
]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid matching ``Tensor.sigmoid`` exactly.

    Piecewise formulation that never exponentiates a positive argument:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` otherwise, with
    ``e = exp(-|x|)``.
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out.astype(x.dtype, copy=False)


def sigmoid_scratch(
    shape: tuple[int, ...], dtype=np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """Preallocated ``(e, mask)`` scratch for :func:`stable_sigmoid_`."""
    return np.empty(shape, dtype=dtype), np.empty(shape, dtype=bool)


def stable_sigmoid_(
    x: np.ndarray, e: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """In-place :func:`stable_sigmoid` over ``x`` using caller scratch.

    ``e`` (same shape/dtype as ``x``) and ``mask`` (same shape, bool)
    are scratch buffers so repeated calls — one per timestep of a
    recurrent layer — allocate nothing.  Element-for-element the same
    operations as :func:`stable_sigmoid`: the numerator is 1 where
    ``x >= 0`` and ``e`` elsewhere, then one division by ``1 + e``.
    """
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)  # e = exp(-|x|)
    np.greater_equal(x, 0.0, out=mask)
    # numerator: as 0 <= e <= 1, max(e, mask) is 1 where x >= 0 and e
    # elsewhere (the same values a masked copy of 1.0 gives, at less cost)
    np.maximum(e, mask, out=x)
    e += 1.0  # denominator: 1 + e
    x /= e
    return x

