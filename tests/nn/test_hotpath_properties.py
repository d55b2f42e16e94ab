"""Property tests pinning the rewritten im2col/col2im to the reference.

The hot-path rewrite (stride-trick gather, reusable buffers) must be pure
data movement: *bit-exact* against the pre-optimization implementations
kept in :mod:`repro.nn.reference`, across the whole kernel/stride/pad
grid, for both float32 and float64, and it must preserve the adjoint
identity the conv backward pass relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2D, col2im, im2col, workspace
from repro.nn.reference import col2im_reference, im2col_reference

GEOMETRY = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(1, 4),  # channels
    st.integers(4, 12),  # size
    st.integers(1, 5),  # kernel (spans both gather strategies)
    st.integers(1, 3),  # stride
    st.integers(0, 2),  # pad
).filter(lambda g: g[2] + 2 * g[5] >= g[3])


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(geometry=GEOMETRY, dtype=st.sampled_from([np.float32, np.float64]))
    def test_im2col_exact(self, geometry, dtype):
        batch, channels, size, kernel, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = rng.normal(size=(batch, channels, size, size)).astype(dtype)
        got = im2col(x, kernel, stride, pad)
        want = im2col_reference(x, kernel, stride, pad)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(geometry=GEOMETRY, dtype=st.sampled_from([np.float32, np.float64]))
    def test_col2im_exact(self, geometry, dtype):
        batch, channels, size, kernel, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        shape = (batch, channels, size, size)
        cols_shape = im2col(np.zeros(shape, dtype), kernel, stride, pad).shape
        cols = rng.normal(size=cols_shape).astype(dtype)
        got = col2im(cols, shape, kernel, stride, pad)
        want = col2im_reference(cols, shape, kernel, stride, pad)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(geometry=GEOMETRY)
    def test_adjoint_identity(self, geometry):
        """<im2col(x), y> == <x, col2im(y)> for the rewritten pair."""
        batch, channels, size, kernel, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = rng.normal(size=(batch, channels, size, size))
        cols = im2col(x, kernel, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel, stride, pad)).sum())
        assert np.isclose(lhs, rhs, rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        geometries=st.lists(GEOMETRY, min_size=2, max_size=4),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_exact_through_workspace_buffers(self, geometries, dtype):
        """Successive geometries carve ``out=`` / ``padded_out=`` (and the
        internal pad / gather / scratch temporaries) from the same
        workspace bytes, dirty with whatever the previous — possibly
        larger, possibly other-dtype — geometry left there."""
        for geometry in geometries:
            batch, channels, size, kernel, stride, pad = geometry
            rng = np.random.default_rng(hash(geometry) % 2**32)
            shape = (batch, channels, size, size)
            x = rng.normal(size=shape).astype(dtype)
            want = im2col_reference(x, kernel, stride, pad)
            out = workspace.take("cols_infer", want.shape, dtype)
            got = im2col(x, kernel, stride, pad, out=out)
            assert got is out
            assert np.array_equal(got, want)

            cols = rng.normal(size=want.shape).astype(dtype)
            padded = workspace.take(
                "col2im_padded",
                (batch, channels, size + 2 * pad, size + 2 * pad),
                dtype,
            )
            got = col2im(cols, shape, kernel, stride, pad, padded_out=padded)
            assert np.shares_memory(got, padded)
            assert np.array_equal(
                got, col2im_reference(cols, shape, kernel, stride, pad)
            )

    def test_reused_buffers_exact(self):
        """Pooled out=/scratch= buffers change nothing numerically."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        cols_ref = im2col_reference(x, 3, 2, 1)
        out = np.empty_like(cols_ref)
        assert np.array_equal(im2col(x, 3, 2, 1, out=out), cols_ref)

        grad = rng.normal(size=cols_ref.shape).astype(np.float32)
        want = col2im_reference(grad, x.shape, 3, 2, 1)
        scratch = np.empty((2, 3, 3, 3, 5, 5), dtype=np.float32)
        padded = np.empty((2, 3, 11, 11), dtype=np.float32)
        got = col2im(grad, x.shape, 3, 2, 1, scratch=scratch, padded_out=padded)
        assert np.array_equal(got, want)


class TestNoFloat64Promotion:
    """float32 activations must stay float32 through forward AND backward."""

    @pytest.mark.parametrize("groups", [1, 2])
    def test_conv_fwd_bwd_dtype(self, groups):
        layer = Conv2D(
            4, 6, 3, stride=1, pad=1, groups=groups,
            rng=np.random.default_rng(0),
        )
        x = np.random.default_rng(1).normal(size=(2, 4, 8, 8))
        x = x.astype(np.float32)
        out = layer.forward(x, training=True)
        assert out.dtype == np.float32
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.dtype == np.float32
        assert layer.weight.grad.dtype == np.float32
        assert layer.bias.grad.dtype == np.float32
