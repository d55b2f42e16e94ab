"""im2col / col2im: shapes, known values, and adjoint round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import conv_output_size
from tests_helpers_im2col import col2im_fresh, im2col_fresh


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(227, 11, 4, 0) == 55
        assert conv_output_size(27, 5, 1, 2) == 27
        assert conv_output_size(13, 3, 1, 1) == 13

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col_fresh(x, kernel=3, stride=1, pad=1)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(2, 4, 5, 5))
        cols = im2col_fresh(x, kernel=1)
        assert np.array_equal(
            cols, x.transpose(0, 2, 3, 1).reshape(-1, 4)
        )

    def test_known_values_2x2(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col_fresh(x, kernel=2, stride=2)
        # Top-left window is [[0, 1], [4, 5]].
        assert cols[0].tolist() == [0, 1, 4, 5]
        # Bottom-right window is [[10, 11], [14, 15]].
        assert cols[-1].tolist() == [10, 11, 14, 15]

    def test_padding_zeros_on_border(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col_fresh(x, kernel=3, stride=1, pad=1)
        # Corner output sees 4 real pixels and 5 padded zeros.
        assert cols[0].sum() == 4

    def test_matches_direct_convolution(self, rng):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(5, 3, 3, 3))
        cols = im2col_fresh(x, kernel=3, stride=2, pad=1)
        out = (cols @ w.reshape(5, -1).T).reshape(2, 4, 4, 5).transpose(0, 3, 1, 2)
        # Direct (slow) convolution as the reference.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((2, 5, 4, 4))
        for b in range(2):
            for m in range(5):
                for r in range(4):
                    for c in range(4):
                        patch = padded[b, :, 2 * r : 2 * r + 3, 2 * c : 2 * c + 3]
                        ref[b, m, r, c] = (patch * w[m]).sum()
        assert np.allclose(out, ref)


class TestCol2im:
    def test_adjoint_identity_nonoverlapping(self, rng):
        """With stride=kernel (no overlap), col2im(im2col(x)) == x."""
        x = rng.normal(size=(2, 3, 8, 8))
        cols = im2col_fresh(x, kernel=2, stride=2)
        back = col2im_fresh(cols, x.shape, kernel=2, stride=2)
        assert np.allclose(back, x)

    def test_overlap_counts(self):
        """Overlapping windows sum: interior pixels get kernel^2 hits."""
        x = np.ones((1, 1, 6, 6))
        cols = im2col_fresh(x, kernel=3, stride=1, pad=1)
        back = col2im_fresh(cols, x.shape, kernel=3, stride=1, pad=1)
        assert back[0, 0, 3, 3] == 9.0  # interior
        assert back[0, 0, 0, 0] == 4.0  # corner loses padded taps

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 4),
        size=st.integers(4, 10),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
    )
    def test_adjoint_property(self, batch, channels, size, kernel, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.

        This is exactly the property conv backward relies on.
        """
        if size + 2 * pad < kernel:
            return
        rng = np.random.default_rng(batch * 1000 + size)
        x = rng.normal(size=(batch, channels, size, size))
        cols = im2col_fresh(x, kernel, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im_fresh(y, x.shape, kernel, stride, pad)).sum())
        assert np.isclose(lhs, rhs, rtol=1e-9)
