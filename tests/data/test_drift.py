"""In-situ drift transform tests."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.data import (
    DriftModel,
    close_up,
    low_illumination,
    motion_blur,
    occlude,
    random_pose,
    sensor_noise,
)
from repro.data.drift import _cos_sin_deg


@pytest.fixture
def image(generator):
    return generator.generate(0)


class TestTransforms:
    def test_illumination_darkens(self, image):
        dark = low_illumination(image, 0.3)
        assert dark.mean() < image.mean()
        assert dark.min() >= 0.0

    def test_illumination_bounds(self, image):
        with pytest.raises(ValueError):
            low_illumination(image, 0.0)
        with pytest.raises(ValueError):
            low_illumination(image, 1.5)

    def test_occlusion_covers_area(self, image, rng):
        out = occlude(image, 0.25, rng)
        changed = np.any(out != image, axis=0).mean()
        assert 0.15 < changed < 0.4

    def test_occlusion_zero_identity(self, image, rng):
        assert np.array_equal(occlude(image, 0.0, rng), image)

    def test_pose_preserves_range(self, image):
        out = random_pose(image, 45.0)
        assert out.shape == image.shape
        assert 0.0 <= out.min() and out.max() <= 1.0

    def test_pose_zero_near_identity(self, image):
        assert np.allclose(random_pose(image, 0.0), image, atol=1e-6)

    def test_close_up_zooms(self, image):
        out = close_up(image, 2.0)
        assert out.shape == image.shape
        # Center crop enlarged: corners of the original disappear.
        assert not np.allclose(out, image)

    def test_close_up_identity(self, image):
        assert np.array_equal(close_up(image, 1.0), image)

    def test_noise_changes_pixels(self, image, rng):
        out = sensor_noise(image, 0.1, rng)
        assert not np.array_equal(out, image)
        assert 0.0 <= out.min() and out.max() <= 1.0

    def test_blur_smooths(self, image):
        out = motion_blur(image, 3.0)
        # Blur reduces horizontal gradient energy.
        grad_orig = np.abs(np.diff(image, axis=2)).mean()
        grad_blur = np.abs(np.diff(out, axis=2)).mean()
        assert grad_blur < grad_orig

    def test_non_chw_rejected(self, rng):
        with pytest.raises(ValueError):
            low_illumination(rng.random((48, 48)), 0.5)


class TestDriftModel:
    def test_zero_severity_is_identity(self, image):
        model = DriftModel(0.0)
        assert np.array_equal(model.apply(image), image)

    def test_severity_bounds(self):
        with pytest.raises(ValueError):
            DriftModel(1.5)
        with pytest.raises(ValueError):
            DriftModel(-0.1)

    def test_higher_severity_larger_shift(self, generator, rng):
        """Average pixel distortion grows with severity."""
        images = generator.batch(np.zeros(20, dtype=int))
        mild = DriftModel(0.2, rng=np.random.default_rng(1)).apply_batch(images)
        harsh = DriftModel(0.9, rng=np.random.default_rng(1)).apply_batch(images)
        mild_shift = np.abs(mild - images).mean()
        harsh_shift = np.abs(harsh - images).mean()
        assert harsh_shift > mild_shift

    def test_batch_shape(self, generator, rng):
        images = generator.batch(np.zeros(4, dtype=int))
        out = DriftModel(0.5, rng=rng).apply_batch(images)
        assert out.shape == images.shape

    def test_batch_requires_4d(self, image, rng):
        with pytest.raises(ValueError):
            DriftModel(0.5, rng=rng).apply_batch(image)


class TestScipyParity:
    """The numpy ports are bit-identical to the ``scipy.ndimage`` calls
    they replaced (scipy is a dev-only dependency)."""

    @pytest.fixture(autouse=True)
    def scipy_modules(self):
        self.ndimage = pytest.importorskip("scipy.ndimage")
        self.special = pytest.importorskip("scipy.special")

    def test_degree_trig(self):
        rng = np.random.default_rng(0)
        angles = np.concatenate(
            [
                [0.0, -0.0, 45.0, -45.0, 90.0, -90.0, 1e15, -1e15],
                360.0 * np.arange(-8, 9),
                np.arange(-1080.0, 1080.5, 0.5),
                rng.uniform(-400.0, 400.0, 100_000),
                rng.uniform(-1e9, 1e9, 2_000),
            ]
        )
        cos, sin = np.array([_cos_sin_deg(float(a)) for a in angles]).T
        assert np.array_equal(sin, self.special.sindg(angles))
        assert np.array_equal(cos, self.special.cosdg(angles))

    @pytest.mark.parametrize("shape", [(3, 48, 48), (3, 17, 29)])
    def test_random_pose(self, shape):
        rng = np.random.default_rng(1)
        angles = [0.0, 45.0, -90.0, 180.0, 360.0]
        angles += list(rng.uniform(-90.0, 90.0, 40))
        for angle in angles:
            image = rng.random(shape)
            ref = self.ndimage.rotate(
                image, angle, axes=(1, 2), reshape=False, order=1, mode="nearest"
            )
            assert np.array_equal(random_pose(image, angle), np.clip(ref, 0, 1))

    @pytest.mark.parametrize("shape", [(3, 48, 48), (3, 7, 9)])
    def test_close_up(self, shape):
        rng = np.random.default_rng(2)
        _, height, width = shape
        for zoom in [1.001, 1.5, 2.0, 2.5, *rng.uniform(1.0, 2.5, 30)]:
            image = rng.random(shape)
            # The pre-port formula, 4-pixel crop floor included.
            crop_h = max(4, int(round(height / zoom)))
            crop_w = max(4, int(round(width / zoom)))
            top, left = (height - crop_h) // 2, (width - crop_w) // 2
            crop = image[:, top : top + crop_h, left : left + crop_w]
            ref = self.ndimage.zoom(
                crop, (1, height / crop_h, width / crop_w), order=1, mode="nearest"
            )
            expected = np.clip(ref[:, :height, :width], 0, 1)
            assert np.array_equal(close_up(image, zoom), expected)

    @pytest.mark.parametrize("width", [1, 2, 4, 29, 48])
    @pytest.mark.parametrize("extent", [1.0, 2.0])
    def test_motion_blur(self, width, extent):
        image = np.random.default_rng(3).random((3, 11, width))
        size = 2 * int(extent) + 1
        ref = self.ndimage.uniform_filter1d(image, size=size, axis=2, mode="nearest")
        assert np.array_equal(motion_blur(image, extent), ref)


def test_runtime_imports_neither_scipy_nor_lint():
    code = (
        "import sys, repro, repro.fleet.simulation, repro.scenario.cli; "
        "print(sorted(m for m in ('scipy', 'repro.lint') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
