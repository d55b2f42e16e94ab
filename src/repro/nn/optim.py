"""The SGD optimizer.

SGD with momentum and weight decay covers everything the paper trains (it
uses Caffe's standard solver).  Frozen parameters are skipped entirely, which
is both correct for CONV-i locking and the source of the locked-layer
training speedup measured in Fig. 6.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent with classical momentum.

    Parameters
    ----------
    params:
        Parameters to update (frozen ones are filtered per-step, so freezing
        after construction works).
    lr:
        Learning rate.
    momentum:
        Classical momentum coefficient in [0, 1).
    weight_decay:
        L2 penalty added to the gradient.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p, vel in zip(self.params, self._velocity):
            if p.frozen:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            vel *= self.momentum
            vel -= self.lr * grad
            p.data += vel

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
