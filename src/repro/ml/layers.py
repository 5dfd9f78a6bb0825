"""Neural-network layers on top of the autodiff engine."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.ml.autograd import Tensor, no_grad


def _unwrap(value):
    """Tensor(s) -> ndarray(s), preserving tuple/list structure."""
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, (tuple, list)):
        return type(value)(_unwrap(v) for v in value)
    return value


class Module:
    """Base class: parameter discovery, train/eval mode, state dicts."""

    def __init__(self) -> None:
        self.training = True

    # -- parameter / submodule discovery --------------------------------
    def parameters(self) -> Iterator[Tensor]:
        seen: set[int] = set()
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for k, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{k}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{k}", item

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes ------------------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- state ------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={missing}, extra={extra}")
        for name, p in own.items():
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {p.data.shape}"
                )
            if value is state[name] and not value.flags.writeable:
                # read-only state (an mmap'd artifact) is aliased, not
                # copied: N serving workers share one physical copy of
                # the weights, and numpy blocks in-place mutation
                p.data = value
            else:
                p.data = value.copy()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- inference ---------------------------------------------------------
    def infer(self, *args, **kwargs):
        """Inference-mode forward on raw ndarrays: no autograd graph.

        The generic path wraps ndarray arguments in float32 Tensors (the
        engine's dtype), runs :meth:`forward` under ``no_grad()`` in eval
        mode and unwraps the result.  No node is recorded, so the LSTM/GRU
        ops of :mod:`repro.ml.recurrent` run their forward pass only and
        keep no history for backward.
        Element-wise layers (Linear, MLP, ReLU, ...) override this with
        the same NumPy expression on raw arrays.
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            with no_grad():
                out = self.forward(
                    *[
                        Tensor(np.asarray(a, dtype=np.float32))
                        if isinstance(a, np.ndarray) else a
                        for a in args
                    ],
                    **kwargs,
                )
        finally:
            if was_training:
                self.train()
        return _unwrap(out)


def _init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    """Affine map ``y = x W + b`` (bias optional).

    PerfVec's performance predictor is a :class:`Linear` with ``bias=False``
    — the compositionality proof of Sec. III-B requires a bias-free linear
    predictor.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _init_uniform(rng, (in_features, out_features), in_features),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features, dtype=np.float32), requires_grad=True)
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


class Sequential(Module):
    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module.infer(x)
        return x


class MLP(Module):
    """Multilayer perceptron with ReLU activations between layers."""

    def __init__(self, sizes: list[int], rng: np.random.Generator | None = None,
                 bias: bool = True):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng(0)
        layers: list[Module] = []
        for a, b in zip(sizes[:-1], sizes[1:]):
            layers.append(Linear(a, b, bias=bias, rng=rng))
            layers.append(ReLU())
        layers.pop()  # no activation after the output layer
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.net.infer(x)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + self.eps) ** -0.5
        return centered * inv * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * Tensor(mask)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x  # inference is always eval-mode: dropout is the identity
