"""AdamW and the linear-warmup learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamW:
    b1, b2, eps = 0.9, 0.99, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 2e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def warmup_lr(step: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear ramp to `peak_lr` over `warmup_steps`, constant afterwards."""
    if warmup_steps <= 0:
        return peak_lr
    return peak_lr * min(1.0, (step + 1) / warmup_steps)
