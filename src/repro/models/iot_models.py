"""Trainable IoT-scale networks for the learning experiments.

The paper trains full AlexNet/VGG on ImageNet-scale data with a Titan X;
offline and on CPU we reproduce the *learning dynamics* (transfer,
incremental updates, layer locking) with width-scaled 5-conv-layer networks
on 48x48 synthetic images.  Crucially the architecture keeps the paper's
structure: five named conv layers (``conv1``..``conv5``) so the CONV-i
locking sweep of Fig. 6 applies verbatim, and a 3-layer FCN head
(``fc6``/``fc7``/``fc8``).

Because convolution weights are independent of spatial input size, the same
``conv1``..``conv5`` weights serve both the full-image inference network and
the per-tile jigsaw trunk — exactly the weight sharing the paper exploits.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
)

__all__ = [
    "CONV_LAYER_NAMES",
    "conv_trunk_layers",
    "build_classifier",
    "build_jigsaw_trunk",
    "trunk_feature_size",
]

#: the five conv layers every model in this repo shares, in order
CONV_LAYER_NAMES = ("conv1", "conv2", "conv3", "conv4", "conv5")

#: sides of a classifier's square input image and of one jigsaw tile (3x3)
INPUT_SIZE, TILE_SIZE = 48, 16

#: base channel widths for the five conv layers at width multiplier 1.0
_BASE_WIDTHS = (16, 32, 48, 48, 32)


def _widths(width: float) -> tuple[int, ...]:
    if width <= 0:
        raise ValueError(f"width multiplier must be positive, got {width}")
    return tuple(max(4, int(round(w * width))) for w in _BASE_WIDTHS)


def conv_trunk_layers(
    rng: np.random.Generator, *, width: float = 1.0, input_size: int = 48
) -> list:
    """The shared 5-conv trunk (conv1..conv5 with ReLU and pooling).

    ``input_size`` only affects how many pooling stages fit; the conv
    weights themselves are shape-compatible across input sizes, which is
    what makes trunk weights transferable between the 48x48 inference
    network and the 16x16 jigsaw-tile trunk.
    """
    w1, w2, w3, w4, w5 = _widths(width)
    layers = [
        Conv2D(3, w1, 5, pad=2, rng=rng, name="conv1"),
        ReLU(name="relu1"),
        MaxPool2D(2, name="pool1"),
        Conv2D(w1, w2, 3, pad=1, rng=rng, name="conv2"),
        ReLU(name="relu2"),
        MaxPool2D(2, name="pool2"),
        Conv2D(w2, w3, 3, pad=1, rng=rng, name="conv3"),
        ReLU(name="relu3"),
        Conv2D(w3, w4, 3, pad=1, rng=rng, name="conv4"),
        ReLU(name="relu4"),
        Conv2D(w4, w5, 3, pad=1, rng=rng, name="conv5"),
        ReLU(name="relu5"),
    ]
    if input_size >= 32:
        layers.append(MaxPool2D(2, name="pool5"))
    return layers


def trunk_feature_size(*, width: float = 1.0, input_size: int = 48) -> int:
    """Flattened feature size produced by the trunk for a given input size."""
    spatial = input_size // 4  # two fixed pooling stages
    if input_size >= 32:
        spatial //= 2  # pool5
    return _widths(width)[-1] * spatial * spatial


def build_classifier(
    num_classes: int,
    rng: np.random.Generator,
    *,
    width: float = 1.0,
    hidden: int = 128,
) -> Sequential:
    """Inference network: shared trunk + FCN head (fc6/fc7/fc8)."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    feat = trunk_feature_size(width=width, input_size=INPUT_SIZE)
    layers = conv_trunk_layers(rng, width=width, input_size=INPUT_SIZE)
    layers.append(Flatten(name="flatten"))
    layers.append(Linear(feat, hidden, rng=rng, name="fc6"))
    layers.append(ReLU(name="relu6"))
    layers.append(Linear(hidden, hidden, rng=rng, name="fc7"))
    layers.append(ReLU(name="relu7"))
    layers.append(Linear(hidden, num_classes, rng=rng, name="fc8"))
    return Sequential(layers, input_shape=(3, INPUT_SIZE, INPUT_SIZE))


def build_jigsaw_trunk(rng: np.random.Generator) -> Sequential:
    """Per-tile trunk for the unsupervised context network.

    Output is the flattened conv5 feature vector of one tile; the context
    network concatenates 9 of these before its permutation-prediction head.
    """
    layers = conv_trunk_layers(rng, input_size=TILE_SIZE)
    layers.append(Flatten(name="flatten"))
    return Sequential(layers, input_shape=(3, TILE_SIZE, TILE_SIZE))
