"""Reference (pre-optimization) implementations of the data hot paths.

Verbatim copies of the original per-image ``ImageGenerator`` rendering code
and the per-image ``DriftModel.apply_batch`` loop, kept as ground truth for

* the property tests in ``tests/data``, which assert
  :mod:`repro.data.images` / :mod:`repro.data.drift` match these
  **bit-exactly** for the same seeds, and
* ``benchmarks/bench_hotpath.py``, which reports optimized-vs-reference
  speedups without checking out the old revision.

Do not optimize this module — its whole value is staying slow and obviously
correct.
"""

from __future__ import annotations

import numpy as np

from repro.data.drift import DriftModel
from repro.data.images import ShapeParams

__all__ = ["ReferenceImageGenerator", "drift_batch_reference"]


class ReferenceImageGenerator:
    """The original loop-based generator: one image at a time, per-channel
    compose, background texture recomputed per call, six uniform draws per
    parameter sample.  Mirrors ``ImageGenerator``'s constructor contract."""

    def __init__(
        self,
        image_size: int = 48,
        num_classes: int = 10,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.image_size = image_size
        self.num_classes = num_classes
        self.rng = rng if rng is not None else np.random.default_rng(0)
        grid = np.arange(image_size, dtype=np.float64)
        self._yy, self._xx = np.meshgrid(grid, grid, indexing="ij")

    def sample_params(self) -> ShapeParams:
        size = self.image_size
        rng = self.rng
        hue = rng.uniform(0.45, 1.0, size=3)
        hue = hue / hue.max()
        return ShapeParams(
            center_y=rng.uniform(0.38, 0.62) * size,
            center_x=rng.uniform(0.38, 0.62) * size,
            scale=rng.uniform(0.24, 0.34) * size,
            angle=rng.uniform(-0.35, 0.35),
            fg_color=tuple(hue),
            bg_level=rng.uniform(0.12, 0.3),
        )

    def generate(
        self, class_id: int, params: ShapeParams | None = None
    ) -> np.ndarray:
        if not 0 <= class_id < self.num_classes:
            raise ValueError(
                f"class_id {class_id} out of range [0, {self.num_classes})"
            )
        p = params if params is not None else self.sample_params()
        mask = self._shape_mask(class_id, p)
        background = self._background(p)
        img = np.empty((3, self.image_size, self.image_size))
        for ch in range(3):
            img[ch] = background * (1.0 - mask) + p.fg_color[ch] * mask
        img += self.rng.normal(0.0, 0.015, size=img.shape)
        return np.clip(img, 0.0, 1.0)

    def batch(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels)
        out = np.empty((len(labels), 3, self.image_size, self.image_size))
        for i, label in enumerate(labels):
            out[i] = self.generate(int(label))
        return out

    def _background(self, p: ShapeParams) -> np.ndarray:
        size = self.image_size
        grad = (self._yy + self._xx) / (2.0 * size)
        texture = 0.04 * np.sin(self._yy * 0.9) * np.cos(self._xx * 0.7)
        return p.bg_level + 0.15 * grad + texture

    def _rotated_coords(self, p: ShapeParams) -> tuple[np.ndarray, np.ndarray]:
        dy = self._yy - p.center_y
        dx = self._xx - p.center_x
        cos_a, sin_a = np.cos(p.angle), np.sin(p.angle)
        return cos_a * dy + sin_a * dx, -sin_a * dy + cos_a * dx

    def _shape_mask(self, class_id: int, p: ShapeParams) -> np.ndarray:
        ry, rx = self._rotated_coords(p)
        s = p.scale
        if class_id == 0:  # disk
            d = np.sqrt(ry**2 + rx**2)
            raw = s - d
        elif class_id == 1:  # ring
            d = np.sqrt(ry**2 + rx**2)
            raw = (s - d) * (d - 0.55 * s)
        elif class_id == 2:  # square
            raw = s * 0.85 - np.maximum(np.abs(ry), np.abs(rx))
        elif class_id == 3:  # triangle (upward)
            raw = np.minimum.reduce(
                [ry + 0.6 * s, 0.9 * s - ry - 1.2 * np.abs(rx)]
            )
        elif class_id == 4:  # plus / cross
            arm = 0.3 * s
            raw = np.maximum(
                np.minimum(arm - np.abs(ry), s - np.abs(rx)),
                np.minimum(arm - np.abs(rx), s - np.abs(ry)),
            )
        elif class_id == 5:  # horizontal stripes in a disk
            d = np.sqrt(ry**2 + rx**2)
            stripes = np.sin(ry * (np.pi / (0.22 * s)))
            raw = np.minimum(s - d, stripes * s * 0.5)
        elif class_id == 6:  # vertical stripes in a disk
            d = np.sqrt(ry**2 + rx**2)
            stripes = np.sin(rx * (np.pi / (0.22 * s)))
            raw = np.minimum(s - d, stripes * s * 0.5)
        elif class_id == 7:  # checkerboard in a square
            box = s * 0.9 - np.maximum(np.abs(ry), np.abs(rx))
            checker = np.sin(ry * (np.pi / (0.3 * s))) * np.sin(
                rx * (np.pi / (0.3 * s))
            )
            raw = np.minimum(box, checker * s * 0.5)
        elif class_id == 8:  # diamond
            raw = s - (np.abs(ry) + np.abs(rx))
        else:  # class_id == 9: diagonal cross (X)
            arm = 0.25 * s
            d1 = np.abs(ry - rx) / np.sqrt(2.0)
            d2 = np.abs(ry + rx) / np.sqrt(2.0)
            reach = np.sqrt(ry**2 + rx**2)
            raw = np.maximum(
                np.minimum(arm - d1, s - reach),
                np.minimum(arm - d2, s - reach),
            )
        return np.clip(raw, -1.0, 1.0) * 0.5 + 0.5


def drift_batch_reference(
    drift: DriftModel, images: np.ndarray
) -> np.ndarray:
    """The original ``apply_batch``: a per-image loop over ``apply``."""
    if images.ndim != 4:
        raise ValueError(f"expected (B, 3, H, W), got {images.shape}")
    return np.stack([drift.apply(img) for img in images])
