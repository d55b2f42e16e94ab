"""Sequential network container with transfer-learning surgery hooks.

Beyond forward/backward, the container supports the operations the paper's
framework needs constantly: naming and addressing layers ("conv1"..."conv5",
"fc6"...), freezing prefixes of convolutional layers (CONV-i locking, Fig. 6),
copying the first *n* layers' weights from a donor network (Fig. 4 transfer),
and exchanging weights as state dicts so cloud and node can share models.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.nn import prefix_memo
from repro.nn.base import Layer, Shape
from repro.nn.conv import Conv2D
from repro.nn.tensor import Parameter

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers.

    Parameters
    ----------
    layers:
        Layers in execution order.  Each layer must carry a unique ``name``;
        names are the handles used for weight copying and freezing.
    input_shape:
        Per-sample input shape (C, H, W) used for shape validation and
        summaries.
    """

    def __init__(self, layers: Iterable[Layer], input_shape: Shape) -> None:
        self.layers: list[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate layer names: {dupes}")
        # Validate that shapes chain together; fail at build time, not epoch 3.
        shape = self.input_shape
        self._shapes: list[Shape] = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)
        # The first layer's input gradient has no consumer; let convs skip
        # the expensive col2im scatter there.
        if self.layers and isinstance(self.layers[0], Conv2D):
            self.layers[0].skip_input_grad = True
        self._reuse_depths: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @contextmanager
    def reusing_prefix(self, depths: Sequence[int]) -> Iterator[None]:
        """Inference forwards inside the block resume from, and feed,
        :mod:`repro.nn.prefix_memo` at the prefix lengths ``depths``: for
        passes whose images recur (dataset-order sweeps), not minibatches."""
        before, self._reuse_depths = self._reuse_depths, tuple(depths)
        try:
            yield
        finally:
            self._reuse_depths = before

    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Training: every layer on the whole batch, caches kept for
        :meth:`backward`.  Inference: :func:`repro.nn.prefix_memo.infer`,
        which runs the conv trunk per block of images and the FC layers on
        the whole batch."""
        if not training:
            return prefix_memo.infer(self.layers, self._reuse_depths, x)
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=True)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (no caches)."""
        return self.forward(x, training=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def output_shape(self) -> Shape:
        return self._shapes[-1]

    def shape_at(self, index: int) -> Shape:
        """Input shape seen by layer ``index`` (the layer count gives the
        output shape)."""
        return self._shapes[index]

    @property
    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters]

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __getitem__(self, name: str) -> Layer:
        return self.layers[self._index_of(name)]

    def _index_of(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(f"no layer named {name!r}")

    # ------------------------------------------------------------------
    # Training-state management
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def freeze_layers(self, names: Sequence[str]) -> None:
        """Freeze the named layers (paper: lock conv1..convi)."""
        for name in names:
            self[name].freeze()

    def unfreeze_all(self) -> None:
        for layer in self.layers:
            layer.unfreeze()

    # ------------------------------------------------------------------
    # Weight exchange (cloud <-> node model deployment)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """All weights keyed by parameter name."""
        return {p.name: p.data.copy() for p in self.parameters}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters:
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            if state[p.name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {p.name}: "
                    f"{state[p.name].shape} vs {p.data.shape}"
                )
            p.data[...] = state[p.name]

    def copy_layer_weights(self, donor: "Sequential", names: Sequence[str]) -> None:
        """Copy the named layers' parameters from ``donor``.

        This is the transfer-learning primitive of Fig. 4: copy the first
        ``n`` layers of the unsupervised network into the inference network.
        Layers are matched by name and must agree in parameter shapes.
        """
        for name in names:
            src = donor[name]
            dst = self[name]
            src_params = src.parameters
            dst_params = dst.parameters
            if len(src_params) != len(dst_params):
                raise ValueError(
                    f"layer {name!r}: donor has {len(src_params)} params, "
                    f"target has {len(dst_params)}"
                )
            for sp, dp in zip(src_params, dst_params):
                dp.copy_from(sp)
