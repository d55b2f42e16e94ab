"""Parameter container used by every trainable layer.

The framework keeps things deliberately simple: a :class:`Parameter` is a
numpy array plus its gradient accumulator and a ``frozen`` flag.  Freezing is
a first-class concept because the paper's transfer-learning strategy (lock
the first *n* convolutional layers, Fig. 6) and its FPGA weight-sharing
architecture both hinge on which weights are fixed.
"""

from __future__ import annotations

import numpy as np

from repro.nn.config import default_dtype

__all__ = ["Parameter"]


class Parameter:
    """A trainable tensor with a gradient buffer.

    Parameters
    ----------
    data:
        Initial value.  Stored in the framework default dtype (``float32``
        unless changed via :func:`repro.nn.config.set_default_dtype`).
    name:
        Human-readable identifier used in network summaries and when copying
        weights between networks during transfer learning.
    """

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.asarray(data, dtype=default_dtype())
        self.grad = np.zeros_like(self.data)  # repro-lint: ignore[RPR007] Parameter owns the buffer it allocates
        self.name = name
        self.frozen = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient accumulator in place."""
        self.grad[...] = 0.0  # repro-lint: ignore[RPR007] zero_grad is one of the two sanctioned write points

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the gradient buffer unless the parameter is frozen.

        Frozen parameters skip accumulation entirely — this is what makes
        locked-layer fine-tuning cheaper (the paper reports a 1.7X training
        speedup from sharing conv1-conv3), and the optimizer never touches
        them either.
        """
        if self.frozen:
            return
        self.grad += grad  # repro-lint: ignore[RPR007] accumulate() is the sanctioned write point the rule funnels everyone into

    def copy_from(self, other: "Parameter") -> None:
        """Copy another parameter's values (transfer-learning surgery)."""
        if other.data.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch copying {other.name} {other.data.shape} "
                f"into {self.name} {self.data.shape}"
            )
        self.data[...] = other.data
