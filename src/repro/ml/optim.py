"""Optimizers and learning-rate schedules.

The paper's recipe (Sec. IV-D): Adam, initial learning rate 0.001, decayed
10x every 10 epochs, MSE loss, best-on-validation model selection.
"""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor


class Optimizer:
    def __init__(self, parameters, lr: float):
        self.parameters: list[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, parameters, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self._t
        correction2 = 1.0 - b2 ** self._t
        scale = self.lr * np.sqrt(correction2) / correction1
        for p, m, v in zip(self.parameters, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= scale * m / (np.sqrt(v) + self.eps)


class StepLR:
    """Decay the optimizer's learning rate by ``gamma`` every ``step_size``
    epochs (the paper uses step_size=10, gamma=0.1)."""

    def __init__(self, optimizer: Optimizer, step_size: int = 10, gamma: float = 0.1):
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the learning rate."""
        self.epoch += 1
        self.optimizer.lr = self.base_lr * self.gamma ** (self.epoch // self.step_size)
