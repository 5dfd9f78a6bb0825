"""Layer tests: shapes, semantics and gradient checks."""

import numpy as np
import pytest

from repro.ml.autograd import Tensor
from repro.ml.layers import MLP, Dropout, LayerNorm, Linear, Module, Sequential

from gradcheck import check_gradients


def rng():
    return np.random.default_rng(7)


def test_linear_shapes_and_bias():
    lin = Linear(4, 3, rng=rng())
    out = lin(Tensor(np.ones((5, 4), dtype=np.float32)))
    assert out.shape == (5, 3)
    nob = Linear(4, 3, bias=False, rng=rng())
    assert nob.bias is None
    assert nob.num_parameters() == 12
    assert lin.num_parameters() == 15


def test_linear_gradcheck():
    lin = Linear(3, 2, rng=rng())
    x = Tensor(rng().normal(size=(4, 3)), requires_grad=True)
    params = list(lin.parameters())
    check_gradients(lambda: (lin(x) ** 2).sum(), params + [x])


def test_mlp_depth_and_forward():
    mlp = MLP([5, 8, 8, 2], rng=rng())
    out = mlp(Tensor(np.ones((3, 5), dtype=np.float32)))
    assert out.shape == (3, 2)
    # 3 linear layers
    assert len([m for m in mlp.net.modules if isinstance(m, Linear)]) == 3


def test_mlp_requires_two_sizes():
    with pytest.raises(ValueError):
        MLP([4])


def test_layernorm_normalizes():
    ln = LayerNorm(6)
    x = Tensor(rng().normal(loc=5.0, scale=3.0, size=(4, 6)).astype(np.float32))
    out = ln(x).numpy()
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)


def test_layernorm_gradcheck():
    ln = LayerNorm(4)
    x = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
    check_gradients(lambda: (ln(x) ** 2).sum(), [x, ln.gamma, ln.beta])


def test_dropout_train_vs_eval():
    d = Dropout(0.5, rng=rng())
    x = Tensor(np.ones((100, 100), dtype=np.float32))
    d.train()
    y = d(x).numpy()
    zero_frac = (y == 0).mean()
    assert 0.4 < zero_frac < 0.6
    # surviving entries are scaled up
    assert np.allclose(y[y > 0], 2.0)
    d.eval()
    np.testing.assert_array_equal(d(x).numpy(), x.numpy())


def test_dropout_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_state_dict_roundtrip():
    mlp = MLP([3, 4, 2], rng=rng())
    state = mlp.state_dict()
    other = MLP([3, 4, 2], rng=np.random.default_rng(99))
    x = Tensor(np.ones((2, 3), dtype=np.float32))
    assert not np.allclose(mlp(x).numpy(), other(x).numpy())
    other.load_state_dict(state)
    np.testing.assert_allclose(mlp(x).numpy(), other(x).numpy())


def test_state_dict_rejects_mismatch():
    a = MLP([3, 4, 2])
    b = MLP([3, 5, 2])
    with pytest.raises((KeyError, ValueError)):
        b.load_state_dict(a.state_dict())


def test_named_parameters_nested_lists():
    class Holder(Module):
        def __init__(self):
            super().__init__()
            self.items = [Linear(2, 2), Linear(2, 2)]

        def forward(self, x):
            return self.items[1](self.items[0](x))

    h = Holder()
    names = [n for n, _ in h.named_parameters()]
    assert "items.0.weight" in names and "items.1.bias" in names
    assert h.num_parameters() == 2 * (4 + 2)


def test_train_eval_propagates():
    seq = Sequential(Linear(2, 2), Dropout(0.3))
    seq.eval()
    assert not seq.modules[1].training
    seq.train()
    assert seq.modules[1].training
