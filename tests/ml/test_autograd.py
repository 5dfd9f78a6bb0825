"""Autodiff engine tests: per-op gradient checks and graph semantics."""

import threading

import numpy as np
import pytest

from repro.ml.autograd import (
    Tensor,
    concat,
    grad_enabled,
    mse_loss,
    no_grad,
    stack,
)

from gradcheck import check_gradients


def leaf(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(scale=scale, size=shape).astype(np.float64),
                  requires_grad=True)


def test_add_mul_grads():
    a, b = leaf((3, 4), 1), leaf((3, 4), 2)
    check_gradients(lambda: ((a + b) * a).sum(), [a, b])


def test_broadcast_add_grads():
    a, b = leaf((3, 4), 1), leaf((4,), 2)
    check_gradients(lambda: (a + b).sum(), [a, b])


def test_broadcast_mul_row_and_scalar():
    a, b = leaf((2, 5), 3), leaf((1, 5), 4)
    check_gradients(lambda: (a * b * 2.0).sum(), [a, b])


def test_sub_div_grads():
    a, b = leaf((3, 3), 5), leaf((3, 3), 6)
    b.data = np.abs(b.data) + 1.0
    check_gradients(lambda: (a / b - b).sum(), [a, b])


def test_pow_grads():
    a = leaf((4,), 7)
    a.data = np.abs(a.data) + 0.5
    check_gradients(lambda: (a ** 3).sum(), [a])


def test_matmul_grads():
    a, b = leaf((3, 4), 8), leaf((4, 2), 9)
    check_gradients(lambda: (a @ b).sum(), [a, b])


def test_batched_matmul_grads():
    a, b = leaf((2, 3, 4), 10, 0.5), leaf((2, 4, 2), 11, 0.5)
    check_gradients(lambda: (a @ b).sum(), [a, b])


def test_matmul_broadcast_weights():
    a, b = leaf((2, 3, 4), 12, 0.5), leaf((4, 2), 13, 0.5)
    check_gradients(lambda: (a @ b).sum(), [a, b])


@pytest.mark.parametrize("op", ["tanh", "sigmoid", "relu", "exp"])
def test_unary_grads(op):
    a = leaf((3, 4), 14, 0.8)
    if op == "relu":
        a.data += 0.05  # keep away from the kink
    check_gradients(lambda: getattr(a, op)().sum(), [a])


def test_log_sqrt_grads():
    a = leaf((5,), 15)
    a.data = np.abs(a.data) + 0.5
    check_gradients(lambda: (a.log() + a.sqrt()).sum(), [a])


def test_softmax_grads():
    a = leaf((3, 5), 16)
    w = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
    check_gradients(lambda: (a.softmax(axis=-1) * w).sum(), [a])


def test_sum_axis_keepdims_grads():
    a = leaf((3, 4), 17)
    check_gradients(lambda: (a.sum(axis=1, keepdims=True) * a).sum(), [a])


def test_mean_grads():
    a = leaf((4, 3), 18)
    check_gradients(lambda: a.mean(), [a])
    check_gradients(lambda: a.mean(axis=0).sum(), [a])


def test_reshape_transpose_grads():
    a = leaf((2, 6), 19)
    check_gradients(lambda: (a.reshape(3, 4).transpose() ** 2).sum(), [a])


def test_getitem_grads():
    a = leaf((4, 5), 20)
    check_gradients(lambda: (a[1:3, ::2] ** 2).sum(), [a])
    # repeated rows (embedding lookups) accumulate; a reversed slice (the
    # bi-LSTM's time reversal) sends each gradient back to its source index
    check_gradients(lambda: (a[[0, 2, 0]] ** 2).sum(), [a])
    check_gradients(lambda: (a[:, ::-1] * a).sum(), [a])


def test_concat_stack_grads():
    a, b = leaf((2, 3), 21), leaf((2, 2), 22)
    check_gradients(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])
    c, d = leaf((2, 3), 23), leaf((2, 3), 24)
    check_gradients(lambda: (stack([c, d], axis=1) ** 2).sum(), [c, d])


def test_diamond_graph_accumulates():
    """y = a*a + a must give dy/da = 2a + 1 (gradient accumulation)."""
    a = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    y = (a * a + a).sum()
    y.backward()
    np.testing.assert_allclose(a.grad, 2 * a.data + 1)


def test_reused_subexpression():
    a = Tensor(np.array([1.5]), requires_grad=True)
    b = a * 2.0
    y = (b * b + b).sum()  # y = 4a^2 + 2a -> dy/da = 8a + 2
    y.backward()
    np.testing.assert_allclose(a.grad, 8 * a.data + 2)


def test_no_grad_builds_no_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (a * 2).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_no_grad_is_per_thread():
    """Two threads' overlapping no_grad blocks: neither reaches the other
    thread, and grad mode is on again once both have exited."""
    first_inside, second_inside, first_done = (
        threading.Event() for _ in range(3)
    )
    seen = {}

    def first():
        with no_grad():
            first_inside.set()
            second_inside.wait(10)
        first_done.set()

    def second():
        first_inside.wait(10)
        seen["during_first"] = grad_enabled()
        with no_grad():
            second_inside.set()
            first_done.wait(10)  # first exits while second is inside
        seen["after"] = grad_enabled()

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert seen == {"during_first": True, "after": True}
    assert grad_enabled()
    assert Tensor(np.ones(3), requires_grad=True).requires_grad


def test_backward_on_non_scalar_with_seed():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    y = a * 3.0
    y.backward(np.full((2, 2), 2.0))
    np.testing.assert_allclose(a.grad, np.full((2, 2), 6.0))


def test_mse_loss_value_and_grad():
    pred = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    target = np.array([1.0, 1.0, 1.0])
    loss = mse_loss(pred, target)
    assert loss.item() == pytest.approx((0 + 1 + 4) / 3)
    loss.backward()
    np.testing.assert_allclose(pred.grad, 2 * (pred.data - target) / 3)


def test_grad_not_tracked_for_plain_tensors():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3), requires_grad=True)
    y = (a * b).sum()
    y.backward()
    assert a.grad is None
    assert b.grad is not None


def test_cannot_nest_tensor():
    with pytest.raises(TypeError):
        Tensor(Tensor(np.ones(2)))


def test_detach_cuts_graph():
    a = Tensor(np.ones(2), requires_grad=True)
    y = (a * 2).detach()
    z = (y * 3).sum()
    z.backward()
    assert a.grad is None
