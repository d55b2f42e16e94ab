"""Network surgery: weight transfer, layer locking, re-initialization.

Implements the paper's transfer-learning mechanics (Fig. 4 and the CONV-i
experiment of Fig. 6):

* copy the first *n* conv layers from the unsupervised trunk into the
  inference network,
* lock (freeze) those layers so fine-tuning never touches them, and
* randomly re-initialize the layers above the lock point ("all subsequent
  layers are randomly initialized and retrained").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.iot_models import CONV_LAYER_NAMES
from repro.nn import Conv2D, Linear, Sequential
from repro.nn.init import he_normal

__all__ = ["FreezePlan", "transfer_conv_weights", "reinitialize_above"]


@dataclass(frozen=True)
class FreezePlan:
    """CONV-i locking strategy.

    ``shared_depth`` is the *i* in the paper's CONV-i notation: conv1
    through conv_i are locked; everything above is trainable.  CONV-0 means
    nothing is locked (full fine-tuning); CONV-5 trains only the FCN head.
    The paper's sweet spot is CONV-3.
    """

    shared_depth: int

    def __post_init__(self) -> None:
        if not 0 <= self.shared_depth <= len(CONV_LAYER_NAMES):
            raise ValueError(
                f"shared_depth must be in [0, {len(CONV_LAYER_NAMES)}], "
                f"got {self.shared_depth}"
            )

    @property
    def frozen_conv_names(self) -> tuple[str, ...]:
        return CONV_LAYER_NAMES[: self.shared_depth]

    def apply(self, net: Sequential) -> None:
        """Freeze the locked conv layers; unfreeze everything else."""
        net.unfreeze_all()
        net.freeze_layers(self.frozen_conv_names)


def transfer_conv_weights(
    donor: Sequential, target: Sequential, depth: int
) -> list[str]:
    """Copy conv1..conv_depth weights from donor into target.

    Returns the copied layer names.  Conv weights are spatial-size
    independent, so the donor may be the 16x16-tile jigsaw trunk and the
    target the 48x48 inference network.
    """
    if not 0 <= depth <= len(CONV_LAYER_NAMES):
        raise ValueError(
            f"depth must be in [0, {len(CONV_LAYER_NAMES)}], got {depth}"
        )
    names = list(CONV_LAYER_NAMES[:depth])
    target.copy_layer_weights(donor, names)
    return names


def reinitialize_above(
    net: Sequential, depth: int, rng: np.random.Generator
) -> list[str]:
    """Re-initialize every conv layer above ``depth`` and all FCN layers.

    This reproduces the Fig. 6 protocol: keep conv1..conv_depth, randomly
    re-init and retrain the rest.  Returns the re-initialized layer names.
    """
    keep = set(CONV_LAYER_NAMES[:depth])
    touched = []
    for layer in net:
        if isinstance(layer, Conv2D) and layer.name not in keep:
            fan_in = layer.in_channels * layer.kernel**2
            layer.weight.data[...] = he_normal(
                layer.weight.shape, fan_in, rng
            ).astype(layer.weight.data.dtype)
            layer.bias.data[...] = 0.0
            touched.append(layer.name)
        elif isinstance(layer, Linear):
            layer.weight.data[...] = he_normal(
                layer.weight.shape, layer.in_features, rng
            ).astype(layer.weight.data.dtype)
            layer.bias.data[...] = 0.0
            touched.append(layer.name)
    return touched
