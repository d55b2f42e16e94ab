"""Property tests pinning the rewritten im2col/col2im to the reference.

The hot path (channel-major padded copy, per-tap gather into the paper's Dm
layout, reusable buffers) must be pure data movement: *bit-exact* against
the pre-optimization implementations kept in :mod:`repro.nn.reference`,
across the whole kernel/stride/pad grid, for both float32 and float64, and
it must preserve the adjoint identity the conv backward pass relies on.
:class:`TestConvMatchesReferenceFormulation` extends that through the three
GEMMs of :class:`~repro.nn.conv.Conv2D`, which see the column matrix through
a transpose view, and ``test_blocked_conv_forward_matches_whole_batch_gemm``
through its forward's blocks of images.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2D, col2im, conv, im2col, workspace
from repro.nn.reference import col2im_reference, im2col_reference
from tests_helpers_im2col import col2im_fresh, im2col_fresh

GEOMETRY = st.tuples(
    st.integers(1, 3),  # batch
    st.integers(1, 4),  # channels
    st.integers(4, 12),  # size
    st.integers(1, 5),  # kernel
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
        got = im2col_fresh(x, kernel, stride, pad)
        want = im2col_reference(x, kernel, stride, pad)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        # The bytes sit in the paper's Dm layout; callers see the transpose.
        assert got.T.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(geometry=GEOMETRY, dtype=st.sampled_from([np.float32, np.float64]))
    def test_col2im_exact(self, geometry, dtype):
        batch, channels, size, kernel, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        shape = (batch, channels, size, size)
        cols_shape = im2col_fresh(np.zeros(shape, dtype), kernel, stride, pad).shape
        cols = rng.normal(size=cols_shape).astype(dtype)
        want = col2im_reference(cols, shape, kernel, stride, pad)
        # The Dm-layout view Conv2D passes is read in place.
        got = col2im_fresh(cols, shape, kernel, stride, pad)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(geometry=GEOMETRY)
    def test_adjoint_identity(self, geometry):
        """<im2col(x), y> == <x, col2im(y)> for the rewritten pair."""
        batch, channels, size, kernel, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = rng.normal(size=(batch, channels, size, size))
        cols = im2col_fresh(x, kernel, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im_fresh(y, x.shape, kernel, stride, pad)).sum())
        assert np.isclose(lhs, rhs, rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        geometries=st.lists(GEOMETRY, min_size=2, max_size=4),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_exact_through_workspace_buffers(self, geometries, dtype):
        """Successive geometries carve ``out=`` / ``padded_out=`` (and the
        internal pad / scratch temporaries) from the same workspace bytes,
        dirty with whatever the previous — possibly larger, possibly
        other-dtype — geometry left there."""
        for geometry in geometries:
            batch, channels, size, kernel, stride, pad = geometry
            rng = np.random.default_rng(hash(geometry) % 2**32)
            shape = (batch, channels, size, size)
            x = rng.normal(size=shape).astype(dtype)
            want = im2col_reference(x, kernel, stride, pad)
            out = workspace.take("cols_infer", want.shape[::-1], dtype)
            got = im2col(x, kernel, stride, pad, out=out)
            assert np.shares_memory(got, out)
            assert np.array_equal(got, want)
            assert np.array_equal(out, want.T)

            # Dm-layout columns, planes read in place.
            cols = rng.normal(size=want.shape).astype(dtype)
            want_image = col2im_reference(cols, shape, kernel, stride, pad)
            padded = workspace.take(
                "col2im_padded",
                (channels, batch, size + 2 * pad, size + 2 * pad),
                dtype,
            )
            got = col2im(
                np.ascontiguousarray(cols.T).T,
                shape,
                kernel,
                stride,
                pad,
                padded_out=padded,
            )
            assert np.shares_memory(got, padded)
            assert np.array_equal(got, want_image)

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=GEOMETRY,
        dtype=st.sampled_from([np.float32, np.float64]),
        per_block=st.integers(1, 3),
    )
    def test_im2col_into_column_blocks(self, geometry, dtype, per_block):
        """Column blocks of one larger Dm (what a training ``Conv2D.forward``
        fills, one block of images at a time) add up to the whole-batch
        columns, byte for byte."""
        batch, channels, size, kernel, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = rng.normal(size=(batch, channels, size, size)).astype(dtype)
        want = im2col_reference(x, kernel, stride, pad)
        dm = np.full(want.shape[::-1], np.nan, dtype=dtype)
        pixels = len(want) // batch
        for start in range(0, batch, per_block):
            images = x[start : start + per_block]
            block = dm[:, start * pixels : (start + len(images)) * pixels]
            assert np.shares_memory(
                im2col(images, kernel, stride, pad, out=block), dm
            )
        assert np.array_equal(dm.T, want)

    def test_reused_buffers_exact(self):
        """Pooled out=/padded_out= buffers change nothing numerically."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        cols_ref = im2col_reference(x, 3, 2, 1)
        out = np.empty(cols_ref.shape[::-1], dtype=np.float32)  # Dm layout
        assert np.array_equal(im2col(x, 3, 2, 1, out=out), cols_ref)
        assert np.array_equal(out, cols_ref.T)

        grad = rng.normal(size=cols_ref.shape).astype(np.float32)
        want = col2im_reference(grad, x.shape, 3, 2, 1)
        padded = np.empty((3, 2, 11, 11), dtype=np.float32)  # channel-major
        dm_grad = np.ascontiguousarray(grad.T).T
        got = col2im(dm_grad, x.shape, 3, 2, 1, padded_out=padded)
        assert np.array_equal(got, want)
        assert np.shares_memory(got, padded)

    def test_buffers_in_the_old_layout_are_refused(self):
        x = np.zeros((2, 3, 9, 9), dtype=np.float32)
        with pytest.raises(ValueError, match="im2col out"):
            im2col(x, 3, 2, 1, out=np.empty((50, 27), dtype=np.float32))
        with pytest.raises(ValueError, match="C-contiguous"):
            im2col(x, 3, 2, 1, out=np.empty((50, 27), dtype=np.float32).T)
        with pytest.raises(ValueError, match="C-contiguous"):
            im2col(x, 3, 2, 1, out=np.empty((27, 100), np.float32)[:, ::2])
        cols = np.zeros((27, 50), dtype=np.float32).T
        with pytest.raises(ValueError, match="Dm-layout"):
            col2im(
                np.ascontiguousarray(cols), x.shape, 3, 2, 1,
                padded_out=np.empty((3, 2, 11, 11), dtype=np.float32),
            )
        with pytest.raises(ValueError, match="col2im padded"):
            col2im(
                cols, x.shape, 3, 2, 1,
                padded_out=np.empty((2, 3, 11, 11), dtype=np.float32),
            )


#: (in_channels, out_channels, kernel, stride, pad, input size)
CLASSIFIER_LAYERS = {
    "conv1": (3, 16, 5, 1, 2, 48),
    "conv2": (16, 32, 3, 1, 1, 24),
    "conv3": (32, 48, 3, 1, 1, 12),
    "conv4": (48, 48, 3, 1, 1, 12),
    "conv5": (48, 32, 3, 1, 1, 12),
}
OTHER_GEOMETRIES = {
    "stride2": (16, 32, 3, 2, 1, 24),
    "k11s4": (3, 96, 11, 4, 0, 67),
}


def reference_conv_step(layer, x, grad_out):
    """Conv fwd+bwd as the loop-based im2col/col2im + C-ordered GEMMs."""
    m = layer.out_channels
    geometry = (layer.kernel, layer.stride, layer.pad)
    flat_w = layer.weight.data.reshape(m, -1)
    cols = im2col_reference(x, *geometry)
    out = cols @ flat_w.T
    out += layer.bias.data
    _, out_h, out_w = layer.output_shape(x.shape[1:])
    rows = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(-1, m)
    return {
        "out": out.reshape(len(x), out_h, out_w, m).transpose(0, 3, 1, 2),
        "grad_w": (rows.T @ cols).reshape(layer.weight.data.shape),
        "grad_b": rows.sum(axis=0),
        "grad_in": col2im_reference(rows @ flat_w, x.shape, *geometry),
    }


def conv_step(layer, x, grad_out, *, frozen, skip_input_grad):
    layer.unfreeze()
    if frozen:
        layer.freeze()
    layer.skip_input_grad = skip_input_grad
    for p in layer.parameters:
        p.zero_grad()
    out = layer.forward(x, training=True).copy()
    grad_in = layer.backward(grad_out).copy()
    return {
        "out": out,
        "grad_w": layer.weight.grad,
        "grad_b": layer.bias.grad,
        "grad_in": grad_in,
    }


def close(a, b):
    """Equal up to a few float32 ulps of the O(10) sums these GEMMs form."""
    return np.allclose(a, b, rtol=1e-5, atol=1e-4)


class TestConvMatchesReferenceFormulation:
    """Moving the column bytes into Dm layout moves no bit of a result.

    ``Conv2D`` hands BLAS transpose views where the reference formulation
    hands it C-ordered arrays.  OpenBLAS packs both operands of a *large*
    GEMM into the same panels before its kernel runs, so the sums come out
    in the same order and the results are ``array_equal`` — that is what the
    goldens rest on.  Two things it does **not** cover, measured on
    OpenBLAS 0.3.31 (AVX-512 kernels):

    * below ``M*N*K = 1e6`` the layout-specific *small-matrix* kernels run
      instead and differ by <= 1 ulp (largest differing product seen
      ``9.96e5``); the smallest GEMM a classifier or jigsaw pass issues —
      conv3/conv5 on the nine 16x16 tiles of one image — is ``1.99e6``;
    * in float64 the edge kernels for output dimensions that leave partial
      register tiles (seen with ``B*R*C = 1125``, ``N*K*K = 363``) round
      differently for transposed operands, at any size.  No workload runs
      float64 (gradient checks do), the classifier shapes fill their tiles,
      and the k11 s4 geometry is compared with ``allclose`` there.

    Both are properties of the BLAS build, not of this repo: on another
    OpenBLAS target the cutoffs may sit elsewhere.
    """

    @pytest.fixture(autouse=True)
    def _layouts(self, physical_layouts):
        self.layouts = physical_layouts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5, 32])
    @pytest.mark.parametrize("name", CLASSIFIER_LAYERS)
    def test_classifier_layers_exact(self, name, batch, dtype):
        self.check(CLASSIFIER_LAYERS[name], batch, dtype, np.array_equal)

    @pytest.mark.parametrize(
        "name, dtype, same",
        [
            ("stride2", np.float32, np.array_equal),
            ("stride2", np.float64, np.array_equal),
            ("k11s4", np.float32, np.array_equal),
            # 363 x 1125 gradient columns: the float64 edge kernels above.
            ("k11s4", np.float64, close),
        ],
    )
    def test_strided_geometries(self, name, dtype, same):
        self.check(OTHER_GEOMETRIES[name], 5, dtype, same)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_toy_shape_below_the_small_matrix_cutoff(self, dtype):
        """3x4x9x9 k3 s2: every GEMM is far below 1e6, so BLAS may pick a
        different small-matrix kernel per operand layout and the products
        agree only to rounding; the data movement (which ``check`` always
        compares with ``array_equal``) is still exact."""
        self.check((4, 6, 3, 2, 1, 9), 3, dtype, close)

    def check(self, geometry, batch, dtype, same):
        cin, cout, kernel, stride, pad, size = geometry
        rng = np.random.default_rng([cin, cout, kernel, batch])
        layer = Conv2D(cin, cout, kernel, stride, pad, rng=rng)
        for p in layer.parameters:
            p.data = rng.normal(size=p.data.shape).astype(dtype)
            p.grad = np.zeros_like(p.data)
        x = rng.normal(size=(batch, cin, size, size)).astype(dtype)
        _, out_h, out_w = layer.output_shape(x.shape[1:])
        grad_out = rng.normal(size=(batch, cout, out_h, out_w)).astype(dtype)

        # Data movement alone: exact at every shape.
        cols = im2col_fresh(x, kernel, stride, pad)
        assert cols.T.flags.c_contiguous
        assert np.array_equal(cols, im2col_reference(x, kernel, stride, pad))
        assert np.array_equal(
            col2im_fresh(cols, x.shape, kernel, stride, pad),
            col2im_reference(
                np.ascontiguousarray(cols), x.shape, kernel, stride, pad
            ),
        )

        want = reference_conv_step(layer, x, grad_out)
        grad_given = self.layouts(grad_out)["nhwc"]
        x_layouts = self.layouts(x)
        for layout in ("contiguous", "nhwc"):
            given = x_layouts[layout]
            for frozen in (False, True):
                for skip in (False, True):
                    got = conv_step(
                        layer, given, grad_given,
                        frozen=frozen, skip_input_grad=skip,
                    )
                    case = (layout, frozen, skip)
                    assert got["out"].dtype == dtype, case
                    assert same(got["out"], want["out"]), case
                    if frozen:
                        assert not got["grad_w"].any(), case
                        assert not got["grad_b"].any(), case
                    else:
                        assert same(got["grad_w"], want["grad_w"]), case
                        assert same(got["grad_b"], want["grad_b"]), case
                    if skip:
                        assert not got["grad_in"].any(), case
                    else:
                        assert same(got["grad_in"], want["grad_in"]), case


#: (in_channels, out_channels, kernel, stride, pad, input size); every
#: GEMM of one image is above BLAS's 1e6 small-matrix cutoff
BLOCKED_GEOMETRIES = {
    "dense": (48, 48, 3, 1, 1, 12),
    "strided": (32, 64, 5, 2, 2, 24),
}


@pytest.mark.parametrize("per_block", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("name", BLOCKED_GEOMETRIES)
@settings(max_examples=6, deadline=None)
@given(batch=st.integers(1, 7), nhwc=st.booleans())
def test_blocked_conv_forward_matches_whole_batch_gemm(
    name, training, dtype, per_block, batch, nhwc
):
    """``Conv2D.forward`` runs im2col + GEMM one block of images at a time;
    the result is the whole-batch ``Fm @ Dm`` byte for byte, because a conv
    GEMM row ignores the other rows of its batch.  A small ``BLOCK_BYTES``
    forces ``per_block``-image blocks (a ragged tail whenever ``batch`` is
    not a multiple).  In training the whole-batch Dm the cache holds, and
    so every gradient, is what one block (the unblocked forward) gives."""
    cin, cout, kernel, stride, pad, size = BLOCKED_GEOMETRIES[name]
    rng = np.random.default_rng([cin, batch, per_block])
    layer = Conv2D(cin, cout, kernel, stride, pad, rng=rng)
    for p in layer.parameters:
        p.data = rng.normal(size=p.data.shape).astype(dtype)
    x = rng.normal(size=(batch, cin, size, size)).astype(dtype)
    if nhwc:  # what a previous conv hands on
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    _, out_h, out_w = layer.output_shape(x.shape[1:])
    image_bytes = cin * kernel**2 * out_h * out_w * np.dtype(dtype).itemsize

    def run(block_bytes: int) -> dict[str, np.ndarray]:
        for p in layer.parameters:
            p.grad = np.zeros_like(p.data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conv, "BLOCK_BYTES", block_bytes)
            got = {"out": layer.forward(x, training=training).copy()}
        if training:
            got["dm"] = layer._cache[0].copy()
            got["grad_in"] = layer.backward(np.cos(got["out"])).copy()
            got["grad_w"] = layer.weight.grad.copy()
            got["grad_b"] = layer.bias.grad.copy()
        return got

    blocked = run(per_block * image_bytes + image_bytes // 2)
    cols = im2col_reference(x, kernel, stride, pad)
    if training:
        assert np.array_equal(blocked["dm"].T, cols)
    want = cols @ layer.weight.data.reshape(cout, -1).T
    want += layer.bias.data
    want = want.reshape(batch, out_h, out_w, cout).transpose(0, 3, 1, 2)
    assert blocked["out"].dtype == dtype
    assert np.array_equal(blocked["out"], want)
    whole = run(batch * image_bytes)
    assert whole.keys() == blocked.keys()
    for key, value in whole.items():
        assert np.array_equal(blocked[key], value), key


class TestNoFloat64Promotion:
    """float32 activations must stay float32 through forward AND backward."""

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_fwd_bwd_dtype(self, stride):
        layer = Conv2D(
            4, 6, 3, stride=stride, pad=1, rng=np.random.default_rng(0)
        )
        x = np.random.default_rng(1).normal(size=(2, 4, 8, 8))
        x = x.astype(np.float32)
        out = layer.forward(x, training=True)
        assert out.dtype == np.float32
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.dtype == np.float32
        assert layer.weight.grad.dtype == np.float32
        assert layer.bias.grad.dtype == np.float32
