"""Transformer encoder tests."""

import numpy as np
import pytest

from repro.ml.attention import (
    MultiHeadAttention,
    TransformerEncoder,
    sinusoidal_positions,
)
from repro.ml.autograd import Tensor

from gradcheck import check_gradients


def rng():
    return np.random.default_rng(11)


def test_positions_shape_and_range():
    enc = sinusoidal_positions(16, 8)
    assert enc.shape == (16, 8)
    assert np.all(np.abs(enc) <= 1.0)
    enc_odd = sinusoidal_positions(10, 7)
    assert enc_odd.shape == (10, 7)


def test_mha_shape():
    mha = MultiHeadAttention(dim=8, num_heads=2, rng=rng())
    x = Tensor(rng().normal(size=(2, 5, 8)).astype(np.float32))
    assert mha(x).shape == (2, 5, 8)


def test_mha_dim_divisibility():
    with pytest.raises(ValueError):
        MultiHeadAttention(dim=7, num_heads=2)


def test_causal_masking():
    """Output at position t must not see positions > t."""
    mha = MultiHeadAttention(dim=8, num_heads=2, rng=rng(), causal=True)
    x = rng().normal(size=(1, 6, 8)).astype(np.float32)
    out1 = mha(Tensor(x)).numpy()
    x2 = x.copy()
    x2[:, 4:] += 5.0
    out2 = mha(Tensor(x2)).numpy()
    np.testing.assert_allclose(out1[:, :4], out2[:, :4], atol=1e-5)
    assert not np.allclose(out1[:, 4:], out2[:, 4:])


def test_non_causal_sees_everything():
    mha = MultiHeadAttention(dim=8, num_heads=2, rng=rng(), causal=False)
    x = rng().normal(size=(1, 6, 8)).astype(np.float32)
    out1 = mha(Tensor(x)).numpy()
    x2 = x.copy()
    x2[:, 5] += 5.0
    out2 = mha(Tensor(x2)).numpy()
    assert not np.allclose(out1[:, 0], out2[:, 0])


def test_encoder_interface_matches_lstm():
    enc = TransformerEncoder(input_size=5, dim=8, num_layers=2, num_heads=2,
                             rng=rng())
    x = Tensor(rng().normal(size=(3, 7, 5)).astype(np.float32))
    out, state = enc(x, enc.initial_state(3))
    assert out.shape == (3, 7, 8)
    assert state is None
    assert enc.output_size == 8


def test_encoder_causality_end_to_end():
    enc = TransformerEncoder(input_size=4, dim=8, num_layers=1, num_heads=2,
                             rng=rng())
    x = rng().normal(size=(1, 6, 4)).astype(np.float32)
    out1, _ = enc(Tensor(x))
    x2 = x.copy()
    x2[:, 5] += 3.0
    out2, _ = enc(Tensor(x2))
    np.testing.assert_allclose(out1.numpy()[:, :5], out2.numpy()[:, :5], atol=1e-4)


def test_encoder_extends_positions_on_demand():
    enc = TransformerEncoder(input_size=3, dim=4, num_layers=1, num_heads=2,
                             max_len=4, rng=rng())
    x = Tensor(rng().normal(size=(1, 9, 3)).astype(np.float32))
    out, _ = enc(x)
    assert out.shape == (1, 9, 4)


def test_mha_gradcheck():
    mha = MultiHeadAttention(dim=4, num_heads=2, rng=rng())
    x = Tensor(rng().normal(size=(1, 3, 4)), requires_grad=True)
    check_gradients(lambda: (mha(x) ** 2).sum(), [x])
