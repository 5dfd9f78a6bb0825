"""Finite-difference gradient checks for the autodiff tests."""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor


def numeric_gradient(fn, tensor: Tensor, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data, dtype=np.float64)
    flat = tensor.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn().data)
        flat[i] = original - eps
        minus = float(fn().data)
        flat[i] = original
        out[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(fn, tensors: list[Tensor], atol: float = 2e-2,
                    rtol: float = 2e-2) -> None:
    """Assert autodiff gradients of scalar ``fn()`` match finite differences.

    ``fn`` must rebuild the graph each call from the given leaf tensors.
    Uses float64 copies of the leaves to keep finite differences meaningful.
    """
    for t in tensors:
        t.data = t.data.astype(np.float64)
    for t in tensors:
        t.zero_grad()
    loss = fn()
    loss.backward()
    for idx, t in enumerate(tensors):
        expected = numeric_gradient(fn, t)
        actual = t.grad
        assert actual is not None, f"tensor {idx} received no gradient"
        np.testing.assert_allclose(
            actual, expected, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch on tensor {idx}",
        )
