"""From-scratch numpy deep-learning framework.

This is the training/inference substrate for the In-situ AI reproduction —
the role Caffe plays in the paper.  It holds exactly the layers the paper's
CNN is built from (``Conv2D``, ``ReLU``, ``MaxPool2D``, ``Flatten``,
``Linear``), the fused softmax-cross-entropy loss and SGD with
momentum.  NCHW layout throughout; explicit forward/backward with per-layer
caches; first-class support for layer freezing and weight transfer (the
operations the paper's framework relies on).
"""

from repro.nn.activations import ReLU, softmax
from repro.nn.base import Layer
from repro.nn.config import default_dtype, dtype_scope, set_default_dtype
from repro.nn.conv import Conv2D
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.linear import Linear
from repro.nn.loss import CrossEntropyLoss, accuracy
from repro.nn.network import Sequential
from repro.nn.optim import SGD
from repro.nn.pooling import MaxPool2D
from repro.nn.reshape import Flatten
from repro.nn.tensor import Parameter

__all__ = [
    "Conv2D",
    "CrossEntropyLoss",
    "Flatten",
    "Layer",
    "Linear",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "accuracy",
    "col2im",
    "conv_output_size",
    "default_dtype",
    "dtype_scope",
    "im2col",
    "set_default_dtype",
    "softmax",
]
