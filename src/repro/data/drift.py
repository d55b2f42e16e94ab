"""In-situ environment drift model.

Section II of the paper motivates everything with the gap between the ideal
training distribution and real camera-trap conditions (Fig. 2): animals too
close to the camera (extreme crops), random poses, poor illumination, and
weather artifacts.  :class:`DriftModel` reproduces those degradations as
parameterized image transforms whose magnitude scales with a single
``severity`` knob, so experiments can dial the distribution shift and watch
static-model accuracy collapse (Table I).

Pose, close-up and blur are written on numpy alone, bit-identical to the
``ndimage.rotate`` / ``ndimage.zoom`` (order 1) and
``ndimage.uniform_filter1d`` calls they replaced, all with
``mode="nearest"``: the same cephes degree-trig, coordinate sums,
interpolation weights and summation orders.
"""

from __future__ import annotations

import math

import numpy as np

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


# cephes ``sindg`` / ``cosdg`` (where ndimage.rotate takes its sine and
# cosine): reduce to an octant, then one of two polynomials.
_SINCOF = (
    1.58962301572218447952e-10,
    -2.50507477628503540135e-8,
    2.75573136213856773549e-6,
    -1.98412698295895384658e-4,
    8.33333333332211858862e-3,
    -1.66666666666666307295e-1,
)
_COSCOF = (
    1.13678171382044553091e-11,
    -2.08758833757683644217e-9,
    2.75573155429816611547e-7,
    -2.48015872936186303776e-5,
    1.38888888888806666760e-3,
    -4.16666666666666348141e-2,
    4.99999999999999999798e-1,
)
_PI180 = 1.74532925199432957692e-2  # pi / 180


def _polynomial(z: float, use_cos: bool) -> float:
    zz = z * z
    coef = _COSCOF if use_cos else _SINCOF
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * zz + c
    return 1.0 - zz * ans if use_cos else z + z * (zz * ans)


def _cos_sin_deg(x: float) -> tuple[float, float]:
    """``(cosdg(x), sindg(x))`` as cephes computes them."""
    a = abs(x)
    if a > 1.0e14:
        return 0.0, 0.0
    y = math.floor(a / 45.0)
    y += y & 1  # map zeros to the origin
    j, z, reflected = y & 3, (a - y * 45.0) * _PI180, bool(y & 4)
    cos = _polynomial(z, j not in (1, 2))
    sin = _polynomial(z, j in (1, 2))
    return (
        -cos if (j > 1) != reflected else cos,
        -sin if (x < 0) != reflected else sin,
    )


def _sample(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Order-1 spline value of every channel at the broadcast float
    coordinates ``(rows, cols)``, as ``ndimage`` computes it with
    ``mode="nearest"``: taps ``floor(c)`` and ``floor(c) + 1`` clamped into
    the image (the coordinate never is), weights ``w0 = 1 - (c - floor(c))``
    and ``w1 = 1 - w0``, and ``sum(v * wy * wx)`` over the taps row-major."""
    _, height, width = image.shape
    axes = []
    for coord, size in ((rows, height), (cols, width)):
        base = np.floor(coord)
        w0 = 1.0 - (coord - base)
        first = base.astype(np.intp)
        axes.append(
            (
                (first.clip(0, size - 1), w0),
                ((first + 1).clip(0, size - 1), 1.0 - w0),
            )
        )
    flat = image.reshape(len(image), -1)
    out = 0.0  # ndimage's sum starts at 0.0 too; the first += allocates
    for y, wy in axes[0]:
        for x, wx in axes[1]:
            tap = flat.take(y * width + x, axis=1)
            tap *= wy
            tap *= wx
            out += tap
    return out


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
    _, height, width = image.shape
    c, s = _cos_sin_deg(angle_deg)
    rot = np.array([[c, s], [-s, c]])
    center = (np.array([height, width]) - 1) / 2
    off_y, off_x = center - rot @ center  # ndimage.rotate's own expression
    y = np.arange(height)[:, None]
    x = np.arange(width)
    rotated = _sample(image, (off_y + c * y) + s * x, (off_x - s * y) + c * x)
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
    # ndimage.zoom's grid: output j samples j * (n_in - 1) / (n_out - 1).
    rows = np.arange(height)[:, None] * ((crop_h - 1) / (height - 1))
    cols = np.arange(width) * ((crop_w - 1) / (width - 1))
    return np.clip(_sample(crop, rows, cols), 0.0, 1.0)


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
    half = max(1, int(round(extent)))
    size = 2 * half + 1
    width = image.shape[2]
    # ndimage.uniform_filter1d: edge-padded rows, the first window summed in
    # order, then a running sum (accumulate is sequential), divided last.
    padded = image.take(np.arange(-half, width + half).clip(0, width - 1), axis=2)
    run = np.empty(image.shape)
    run[..., 0] = padded[..., 0]
    for k in range(1, size):
        run[..., 0] += padded[..., k]
    np.subtract(padded[..., size:], padded[..., : width - 1], out=run[..., 1:])
    np.add.accumulate(run, axis=2, out=run)
    run /= size
    return run


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
