"""Layer protocol shared by every module in the framework.

Layers are stateful objects with an explicit ``forward`` / ``backward`` pair.
The design mirrors Caffe (the training framework used by the paper) rather
than autograd frameworks: each layer caches what it needs during the forward
pass and consumes it during backward.  That keeps the substrate small,
auditable, and fast enough for IoT-scale experiments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["Layer", "Shape"]

Shape = tuple[int, ...]


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward`, :meth:`backward`, and
    :meth:`output_shape`.  Layers with weights expose them through
    :attr:`parameters`.
    """

    #: set by Sequential when the layer is registered, e.g. ``"conv1"``
    name: str = ""

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def parameters(self) -> Sequence[Parameter]:
        """Trainable parameters (empty for stateless layers)."""
        return ()

    def output_shape(self, input_shape: Shape) -> Shape:
        """Shape of the output for a single sample (no batch dimension)."""
        raise NotImplementedError

    @property
    def frozen(self) -> bool:
        """True when every parameter of the layer is frozen."""
        params = self.parameters
        return bool(params) and all(p.frozen for p in params)

    def freeze(self) -> None:
        """Lock all parameters (paper: 'CONV-i locking')."""
        for p in self.parameters:
            p.frozen = True

    def unfreeze(self) -> None:
        for p in self.parameters:
            p.frozen = False

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters)
