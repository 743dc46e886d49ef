"""Adam optimizer with bias correction. ``train`` is its one caller, so it
checks nothing: ``TrainConfig`` has checked the learning rate, and each of
the model's parameters holds a gradient of its own shape whenever ``step``
runs, because every training step's loss reaches them all, head or not.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Holds first/second moment buffers aligned with a parameter list."""

    def __init__(self, params, lr: float = 0.001):
        self.params = params
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
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
