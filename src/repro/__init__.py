"""In-situ AI: autonomous and incremental deep learning for IoT systems.

A full reproduction of Song et al., HPCA 2018, built from scratch in
Python: a numpy deep-learning framework, unsupervised jigsaw pre-training,
transfer/incremental learning, autonomous data diagnosis, analytical
GPU/FPGA hardware models with the two-level weight-shared (WSS)
architecture, and the end-to-end four-system evaluation.

Subpackages
-----------
``repro.nn``
    From-scratch deep-learning framework (Caffe's role in the paper).
``repro.models``
    IoT-scale trainable networks and full-size layer-shape specs.
``repro.data``
    Procedural image generator, in-situ drift model, incremental streams.
``repro.selfsup``
    Jigsaw permutations, tiling, the shared-trunk context network.
``repro.transfer``
    Weight transfer, CONV-i locking, fine-tuning, incremental updates.
``repro.diagnosis``
    Autonomous data diagnosis (jigsaw / confidence / oracle / random).
``repro.hw``
    TX1 / VX690T / Titan-X analytical models, NWS/WS/WSS architectures,
    the WSS-NWS pipeline, interference and energy models.
``repro.comm``
    Network links and data-movement accounting.
``repro.core``
    The In-situ AI framework: node, cloud, mode planners, and the
    four-system end-to-end simulation.
``repro.lint``
    Static determinism & performance contract checker (stdlib ast).
"""

from repro import (
    comm,
    core,
    data,
    diagnosis,
    hw,
    models,
    nn,
    reports,
    selfsup,
    transfer,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "comm",
    "core",
    "data",
    "diagnosis",
    "hw",
    "models",
    "nn",
    "reports",
    "selfsup",
    "transfer",
]
