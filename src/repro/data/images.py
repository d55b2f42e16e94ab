"""Procedural class-conditional image generator.

Stands in for ImageNet / Snapshot Serengeti.  Each class is a parametric
shape family drawn onto a textured background; per-sample nuisance
parameters (position, scale, hue, background) give enough intra-class
variation that classification is learnable but not trivial.  The *in-situ*
degradations (poor illumination, occlusion, random pose, close-up crops —
Fig. 2 of the paper) are applied separately by :mod:`repro.data.drift` so
"ideal" and "in-situ" conditions draw from the same underlying classes.

Images are float64 CHW arrays in [0, 1].  :meth:`ImageGenerator.batch`
is the per-image :meth:`~ImageGenerator.generate` loop, so a batch
consumes ``self.rng`` exactly as that many single renders would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.profile import profiled

__all__ = ["NUM_SHAPE_CLASSES", "ShapeParams", "ImageGenerator"]

NUM_SHAPE_CLASSES = 10


@dataclass(frozen=True)
class ShapeParams:
    """Per-sample nuisance parameters for one generated image."""

    center_y: float
    center_x: float
    scale: float
    angle: float
    fg_color: tuple[float, float, float]
    bg_level: float


class ImageGenerator:
    """Draws one of :data:`NUM_SHAPE_CLASSES` shape classes.

    Parameters
    ----------
    image_size:
        Square image side in pixels.  48 keeps CPU training fast while
        leaving room for a 3x3 jigsaw grid of 16x16 tiles.
    num_classes:
        How many of the shape classes to use (2..10).
    rng:
        Source of all randomness; pass a seeded generator for reproducible
        datasets.
    """

    def __init__(
        self,
        image_size: int = 48,
        num_classes: int = NUM_SHAPE_CLASSES,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if image_size < 12:
            raise ValueError("image_size must be >= 12")
        if not 2 <= num_classes <= NUM_SHAPE_CLASSES:
            raise ValueError(
                f"num_classes must be in [2, {NUM_SHAPE_CLASSES}]"
            )
        self.image_size = image_size
        self.num_classes = num_classes
        self.rng = rng if rng is not None else np.random.default_rng(0)
        grid = np.arange(image_size, dtype=np.float64)  # repro-lint: ignore[RPR004] f64 pixel grid is the render contract (bit-pins trig terms)
        self._yy, self._xx = np.meshgrid(grid, grid, indexing="ij")
        # Fixed background terms, precomputed once; bitwise identical to
        # evaluating them per image (they depend only on the pixel grid).
        self._bg_grad15 = 0.15 * ((self._yy + self._xx) / (2.0 * image_size))
        self._bg_texture = 0.04 * np.sin(self._yy * 0.9) * np.cos(
            self._xx * 0.7
        )

    # ------------------------------------------------------------------
    def sample_params(self) -> ShapeParams:
        """Draw nuisance parameters for one image.

        One ``random(8)`` call replaces the historical six ``uniform``
        calls; the scalings below reproduce ``Generator.uniform``'s
        ``low + (high - low) * x`` exactly, so the values and the stream
        position are bit-identical to the original implementation.
        """
        size = self.image_size
        d = self.rng.random(8)
        hue = 0.45 + (1.0 - 0.45) * d[:3]
        hue = hue / hue.max()
        return ShapeParams(
            center_y=(0.38 + (0.62 - 0.38) * d[3]) * size,
            center_x=(0.38 + (0.62 - 0.38) * d[4]) * size,
            scale=(0.24 + (0.34 - 0.24) * d[5]) * size,
            angle=-0.35 + (0.35 - (-0.35)) * d[6],
            fg_color=tuple(hue),
            bg_level=0.12 + (0.3 - 0.12) * d[7],
        )

    def _params_rng(self, p: ShapeParams) -> np.random.Generator:
        """RNG derived purely from the parameter values.

        Used for the sensor-noise term when explicit params are passed to
        :meth:`generate`, so re-rendering the same params gives the same
        pixels without consuming (or depending on) ``self.rng``'s stream.
        """
        fields = np.array(
            [
                p.center_y,
                p.center_x,
                p.scale,
                p.angle,
                *p.fg_color,
                p.bg_level,
            ],
            dtype=np.float64,  # repro-lint: ignore[RPR004] f64 bit patterns of the params are the SeedSequence entropy; narrowing changes derived streams
        )
        # SeedSequence entropy must be non-negative ints < 2**64; drop the
        # low bit of each float's pattern to stay in range.
        entropy = (fields.view(np.uint64) >> np.uint64(1)).tolist()
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def generate(
        self, class_id: int, params: ShapeParams | None = None
    ) -> np.ndarray:
        """Render one image of the given class, shape (3, S, S) in [0, 1].

        With explicit ``params`` the render is a pure function of
        ``(class_id, params)``: the sensor noise comes from a
        params-derived stream and ``self.rng`` is left untouched.
        """
        if not 0 <= class_id < self.num_classes:
            raise ValueError(
                f"class_id {class_id} out of range [0, {self.num_classes})"
            )
        if params is None:
            p = self.sample_params()
            noise_rng = self.rng
        else:
            p = params
            noise_rng = self._params_rng(params)
        mask = self._shape_mask(class_id, p)
        background = self._background(p)
        img = np.empty((3, self.image_size, self.image_size))
        for ch in range(3):
            img[ch] = background * (1.0 - mask) + p.fg_color[ch] * mask
        img += noise_rng.normal(0.0, 0.015, size=img.shape)
        return np.clip(img, 0.0, 1.0)

    @profiled("images.batch")
    def batch(self, labels: np.ndarray) -> np.ndarray:
        """Render one image per label: the :meth:`generate` loop, stacked
        into a ``(B, 3, S, S)`` float64 array."""
        labels = np.asarray(labels)
        bad = (labels < 0) | (labels >= self.num_classes)
        if labels.size and bad.any():
            offender = int(labels[bad][0])
            raise ValueError(
                f"class_id {offender} out of range [0, {self.num_classes})"
            )
        size = self.image_size
        out = np.empty((len(labels), 3, size, size))
        for i, label in enumerate(labels):
            out[i] = self.generate(int(label))
        return out

    # ------------------------------------------------------------------
    def _background(self, p: ShapeParams) -> np.ndarray:
        """Soft gradient background with mild texture."""
        return p.bg_level + self._bg_grad15 + self._bg_texture

    def _rotated_coords(self, p: ShapeParams) -> tuple[np.ndarray, np.ndarray]:
        dy = self._yy - p.center_y
        dx = self._xx - p.center_x
        cos_a, sin_a = np.cos(p.angle), np.sin(p.angle)
        return cos_a * dy + sin_a * dx, -sin_a * dy + cos_a * dx

    def _shape_mask(self, class_id: int, p: ShapeParams) -> np.ndarray:
        """Binary-ish (anti-aliased) mask of the shape."""
        ry, rx = self._rotated_coords(p)
        raw = self._mask_raw(class_id, ry, rx, p.scale)
        # Smooth edge over ~1px for anti-aliasing.
        return np.clip(raw, -1.0, 1.0) * 0.5 + 0.5

    @staticmethod
    def _mask_raw(class_id: int, ry, rx, s):
        """Signed shape field over the rotated ``(S, S)`` pixel grids
        ``ry``/``rx`` at scale ``s``."""
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
        return raw
