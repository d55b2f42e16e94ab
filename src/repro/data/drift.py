"""In-situ environment drift model.

Section II of the paper motivates everything with the gap between the ideal
training distribution and real camera-trap conditions (Fig. 2): animals too
close to the camera (extreme crops), random poses, poor illumination, and
weather artifacts.  :class:`DriftModel` reproduces those degradations as
parameterized image transforms whose magnitude scales with a single
``severity`` knob, so experiments can dial the distribution shift and watch
static-model accuracy collapse (Table I).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

__all__ = [
    "low_illumination",
    "occlude",
    "random_pose",
    "close_up",
    "sensor_noise",
    "motion_blur",
    "DriftModel",
]


def _check_chw(image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got shape {image.shape}")


def low_illumination(image: np.ndarray, factor: float) -> np.ndarray:
    """Dim the image and compress contrast (night / heavy overcast).

    ``factor`` in (0, 1]; 1 leaves the image unchanged.
    """
    _check_chw(image)
    if not 0.0 < factor <= 1.0:
        raise ValueError("illumination factor must be in (0, 1]")
    dimmed = image * factor
    # Gamma lift mimics sensor gain at night: crushes contrast, adds haze.
    return np.clip(dimmed**1.2 + 0.02, 0.0, 1.0)


def occlude(
    image: np.ndarray, frac: float, rng: np.random.Generator
) -> np.ndarray:
    """Cover a random rectangle (vegetation / object blocking the lens)."""
    _check_chw(image)
    if not 0.0 <= frac < 1.0:
        raise ValueError("occlusion frac must be in [0, 1)")
    if frac == 0.0:
        return image.copy()
    _, height, width = image.shape
    occ_h = max(1, int(height * np.sqrt(frac)))
    occ_w = max(1, int(width * np.sqrt(frac)))
    top = int(rng.integers(0, height - occ_h + 1))
    left = int(rng.integers(0, width - occ_w + 1))
    out = image.copy()
    out[:, top : top + occ_h, left : left + occ_w] = rng.uniform(0.05, 0.2)
    return out


def random_pose(image: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate the scene (animal captured in a random pose)."""
    _check_chw(image)
    rotated = ndimage.rotate(
        image, angle_deg, axes=(1, 2), reshape=False, order=1, mode="nearest"
    )
    return np.clip(rotated, 0.0, 1.0)


def close_up(image: np.ndarray, zoom: float) -> np.ndarray:
    """Crop-and-enlarge the center (animal too close to the camera).

    ``zoom >= 1``; 1 is identity.
    """
    _check_chw(image)
    if zoom < 1.0:
        raise ValueError("zoom must be >= 1")
    if zoom == 1.0:
        return image.copy()
    _, height, width = image.shape
    crop_h = max(4, int(round(height / zoom)))
    crop_w = max(4, int(round(width / zoom)))
    top = (height - crop_h) // 2
    left = (width - crop_w) // 2
    crop = image[:, top : top + crop_h, left : left + crop_w]
    zoomed = ndimage.zoom(
        crop, (1, height / crop_h, width / crop_w), order=1, mode="nearest"
    )
    return np.clip(zoomed[:, :height, :width], 0.0, 1.0)


def sensor_noise(
    image: np.ndarray, std: float, rng: np.random.Generator
) -> np.ndarray:
    """Additive Gaussian sensor noise (high ISO at night)."""
    _check_chw(image)
    if std < 0:
        raise ValueError("noise std must be >= 0")
    return np.clip(image + rng.normal(0.0, std, size=image.shape), 0.0, 1.0)


def motion_blur(image: np.ndarray, extent: float) -> np.ndarray:
    """Horizontal smear (moving animal / wind-shaken camera)."""
    _check_chw(image)
    if extent < 0:
        raise ValueError("blur extent must be >= 0")
    if extent == 0:
        return image.copy()
    size = max(1, int(round(extent)))
    return ndimage.uniform_filter1d(image, size=size * 2 + 1, axis=2, mode="nearest")


class DriftModel:
    """Random composition of in-situ degradations at a given severity.

    Parameters
    ----------
    severity:
        0 disables all drift (ideal data); 1 is the harshest environment.
    rng:
        All transform randomness flows through this generator.
    """

    def __init__(
        self, severity: float, *, rng: np.random.Generator | None = None
    ) -> None:
        if not 0.0 <= severity <= 1.0:
            raise ValueError("severity must be in [0, 1]")
        self.severity = severity
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Apply a random subset of degradations scaled by severity."""
        _check_chw(image)
        if self.severity == 0.0:
            return image.copy()
        rng = self.rng
        sev = self.severity
        out = image
        if rng.random() < 0.6 * sev + 0.2:
            out = low_illumination(out, factor=1.0 - 0.75 * sev * rng.random())
        if rng.random() < 0.5 * sev:
            out = occlude(out, frac=0.25 * sev * rng.random(), rng=rng)
        if rng.random() < 0.5 * sev:
            out = random_pose(out, angle_deg=float(rng.uniform(-90, 90)) * sev)
        if rng.random() < 0.35 * sev:
            out = close_up(out, zoom=1.0 + 1.5 * sev * rng.random())
        if rng.random() < 0.3 * sev:
            out = motion_blur(out, extent=2.0 * sev)
        out = sensor_noise(out, std=0.08 * sev, rng=rng)
        return out

    def apply_batch(self, images: np.ndarray) -> np.ndarray:
        """Apply the drift pipeline to a batch: the per-image :meth:`apply`
        loop, stacked (float64, as :func:`sensor_noise` promotes)."""
        if images.ndim != 4 or images.shape[1] != 3:
            raise ValueError(f"expected (B, 3, H, W), got {images.shape}")
        if self.severity == 0.0 or images.shape[0] == 0:
            return images.copy()
        return np.stack([self.apply(image) for image in images])
