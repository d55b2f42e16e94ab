"""2-D convolution layer implemented with im2col matrix multiplication.

This is the layer the whole paper revolves around: Eq. (1) measures its op
count, the GPU model times its matmul form (Fig. 8), and the FPGA engines in
``repro.hw`` execute its loop-nest form (Fig. 9).  The numerical layer here
is the *functional* reference those hardware models are validated against.

A layer owns its parameters and nothing else: every large temporary (column
matrices, gradient rows, gradient columns, the col2im accumulator) is a view
of the process-wide grow-only :mod:`repro.nn.workspace`, shared by all layers
of all networks, so the steady-state training loop allocates — and
page-faults — nothing, whatever batch sizes come through.  Transient
temporaries use :func:`~repro.nn.workspace.take` roles (``cols_infer``,
``grad_rows``, ``grad_w``, ``grad_cols``, ``col2im_padded``).  The training column matrix must survive from
``forward(training=True)`` to ``backward``, so it lives in a slot named after
the layer that is checked out in ``forward`` and released in ``backward``;
when another live layer holds that slot (a second network with the same layer
names mid-step, a dangling training forward) the layer allocates instead, so
a live cache is never aliased.

Column matrices sit in memory in the paper's Dm layout ``(N*K*K, B*R*C)``
(Fig. 8) and the GEMMs see them through transpose views.  ``forward`` runs
im2col + GEMM per block of at most :data:`BLOCK_BYTES` of columns (whole
images), each block's product landing in its rows
of the ``(B*R*C, M)`` output: inference reuses one block-sized
``cols_infer`` buffer, training fills its whole-batch slot one column block
at a time, because backward's weight gradient sums over every row.  That is
exact because a conv GEMM row does not depend on the rest of its batch
(``tests/nn/test_prefix_memo.py::
test_conv_prefix_rows_invariant_to_batch_composition`` pins it on this BLAS;
below its 1e6-MAC small-matrix cutoff it holds in float32 only).  Backward
computes the gradient columns straight into Dm layout as
``Fm^T @ grad_rows^T``, whose planes :func:`~repro.nn.im2col.col2im` adds
from in place.  Results are bit-identical to the whole-batch reference
formulation (``tests/nn/test_hotpath_properties.py`` pins that, and says
where BLAS's small-matrix kernels stop it holding).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import workspace
from repro.nn.base import Layer, Shape
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.init import he_normal
from repro.nn.tensor import Parameter
from repro.obs.profile import profiled

__all__ = ["BLOCK_BYTES", "Conv2D"]

#: Dm bytes one block of images fills before its GEMM runs: the block's
#: columns are multiplied while still in cache, and inference never faults
#: in or streams a batch-sized column matrix.  1-4 MB measured alike on the
#: 48x48 classifier; 8 MB and up ran its batch-128 inference slower.
BLOCK_BYTES = 4 << 20


class Conv2D(Layer):
    """Square-kernel 2-D convolution over NCHW batches.

    Parameters
    ----------
    in_channels:
        ``N`` in the paper's notation — number of input feature maps.
    out_channels:
        ``M`` — number of filters / output feature maps.
    kernel:
        ``K`` — square kernel side.
    stride, pad:
        Convolution geometry.
    rng:
        Generator for He-normal weight init; required so model builds are
        reproducible.

    Notes
    -----
    ``backward`` returns an input gradient that may alias workspace scratch
    rewritten by the *next* convolution ``backward`` of any layer; consume
    it before then (as :class:`~repro.nn.network.Sequential` does) rather
    than storing it.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        *,
        rng: np.random.Generator | None = None,
        name: str = "conv",
    ) -> None:
        if min(in_channels, out_channels, kernel, stride) < 1:
            raise ValueError("conv dimensions must be >= 1")
        if pad < 0:
            raise ValueError("pad must be >= 0")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.name = name
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kernel, kernel), fan_in, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.bias")
        #: set True (e.g. by Sequential) when no upstream layer consumes the
        #: input gradient, letting backward skip the expensive col2im scatter
        self.skip_input_grad = False
        self._cache: tuple[np.ndarray, Shape] | None = None

    @property
    def parameters(self) -> Sequence[Parameter]:
        return (self.weight, self.bias)

    def output_shape(self, input_shape: Shape) -> Shape:
        channels, height, width = input_shape
        if channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, "
                f"got {channels}"
            )
        out_h = conv_output_size(height, self.kernel, self.stride, self.pad)
        out_w = conv_output_size(width, self.kernel, self.stride, self.pad)
        return (self.out_channels, out_h, out_w)

    @profiled("conv.forward")
    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        batch = x.shape[0]
        _, out_h, out_w = self.output_shape(x.shape[1:])
        pixels = out_h * out_w
        taps = self.in_channels * self.kernel * self.kernel
        per_image = taps * pixels * x.dtype.itemsize
        block = max(1, BLOCK_BYTES // per_image)
        if training:
            # Backward's weight gradient sums over every row, so training
            # fills the whole-batch Dm, one column block at a time; it lives
            # in this layer's slot unless another live layer holds that.
            shape = (taps, batch * pixels)
            dm = workspace.checkout(self._train_slot, self, shape, x.dtype)
            if dm is None:
                dm = np.empty(shape, x.dtype)
        weights = self.weight.data.reshape(self.out_channels, taps)
        out = np.empty((batch * pixels, self.out_channels), dtype=x.dtype)
        for start in range(0, batch, block):
            images = x[start : start + block]
            rows = slice(start * pixels, (start + len(images)) * pixels)
            block_dm = (
                dm[:, rows]
                if training
                else workspace.take(
                    "cols_infer", (taps, len(images) * pixels), x.dtype
                )
            )
            cols = im2col(
                images, self.kernel, self.stride, self.pad, out=block_dm
            )
            # Fm (M x NK^2) @ Dm, written as Dm^T @ Fm^T so the result lands
            # in this block's (B*R*C, M) rows; cols is the Dm^T view.
            np.matmul(cols, weights.T, out=out[rows])
        out += self.bias.data
        if training:
            self._cache = (dm, x.shape)
        return (
            out.reshape(batch, out_h, out_w, self.out_channels)
            .transpose(0, 3, 1, 2)
        )

    @profiled("conv.backward")
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called without a training forward"
            )
        dm, x_shape = self._take_cache()
        cols = dm.T
        grad_rows = self._grad_rows(grad_out)
        flat_w = self.weight.data.reshape(self.out_channels, -1)
        # Frozen parameters discard their gradient; don't compute it.
        if not self.weight.frozen:
            grad_w = workspace.take("grad_w", flat_w.shape, grad_rows.dtype)
            np.matmul(grad_rows.T, cols, out=grad_w)
            self.weight.accumulate(grad_w.reshape(self.weight.data.shape))
        if not self.bias.frozen:
            self.bias.accumulate(grad_rows.sum(axis=0))
        if self.skip_input_grad:
            return np.zeros(x_shape, dtype=grad_out.dtype)
        grad_dm = workspace.take("grad_cols", cols.T.shape, grad_rows.dtype)
        np.matmul(flat_w.T, grad_rows.T, out=grad_dm)
        padded = workspace.take(
            "col2im_padded",
            (
                self.in_channels,
                x_shape[0],
                x_shape[2] + 2 * self.pad,
                x_shape[3] + 2 * self.pad,
            ),
            grad_rows.dtype,
        )
        return col2im(
            grad_dm.T,
            x_shape,
            self.kernel,
            self.stride,
            self.pad,
            padded_out=padded,
        )

    # ------------------------------------------------------------------
    # workspace plumbing
    # ------------------------------------------------------------------
    @property
    def _train_slot(self) -> str:
        return f"cols_train/{self.name}"

    def _take_cache(self) -> tuple:
        """Hand the training cache to ``backward`` and free the slot.

        Nothing else can claim the slot before ``backward`` returns, so
        releasing up front keeps cache and slot in step on every exit path.
        """
        cache = self._cache
        self._cache = None
        workspace.release(self._train_slot, self)
        return cache

    def _grad_rows(self, grad_out: np.ndarray) -> np.ndarray:
        """``grad_out`` as a contiguous ``(B*R*C, M)`` matrix.

        A gradient that already sits in ``(B, R, C, M)`` memory order — the
        layout this layer's output has, kept by the ReLU and pooling
        backward of a conv followed by a pool — is that matrix as it
        stands and is reshaped without a copy; any other layout is copied
        into the ``grad_rows`` role.
        """
        batch, channels, out_h, out_w = grad_out.shape
        rows_major = grad_out.transpose(0, 2, 3, 1)
        if rows_major.flags.c_contiguous:
            return rows_major.reshape(batch * out_h * out_w, channels)
        grad_rows = workspace.take(
            "grad_rows", (batch * out_h * out_w, channels), grad_out.dtype
        )
        np.copyto(grad_rows.reshape(batch, out_h, out_w, channels), rows_major)
        return grad_rows
