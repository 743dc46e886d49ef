"""Adam optimizer with bias correction."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ShapeError, require_instances, require_reals

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Holds first/second moment buffers aligned with a parameter list.

    A parameter whose grad is None is treated as having a zero gradient,
    so untouched parameters decay their momentum but a fresh optimizer
    leaves them unchanged.
    """

    def __init__(self, params, lr: float = 0.001):
        require_reals(("lr", lr))
        if not 0 < lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        require_instances(ConfigError, ("params", params, (list, tuple)))
        require_instances(ConfigError, *(("each param", p, Tensor) for p in params))
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1**t
        c2 = 1.0 - BETA2**t
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
