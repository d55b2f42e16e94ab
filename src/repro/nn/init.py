"""He-normal weight initialization for the ReLU networks.

The initializer takes an explicit :class:`numpy.random.Generator` so every
experiment in the repo is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal"]


def he_normal(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He et al. initialization, the right default for ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
