"""im2col / col2im — the matrix-multiplication view of convolution.

The paper (Fig. 8) describes how GPUs convert convolutions into matrix
multiplications: ``im2col`` stretches local input regions into the columns of
a data matrix ``Dm`` (shape ``N*K*K x R*C``), the filters are flattened into
``Fm`` (shape ``M x N*K*K``), and the convolution becomes ``Fm @ Dm``.  This
module implements exactly that transformation (and its transpose, used by the
backward pass).

Both transforms are pure data movement, so they are bit-exact regardless of
strategy; the strategies below were picked by measurement:

* ``im2col`` builds the GEMM matrix from a zero-copy
  :func:`numpy.lib.stride_tricks.sliding_window_view` with a **single** copy
  into the output layout.  For 3x3 kernels the windowed copy's short inner
  runs lose to a two-step gather (per-tap slice copies into a small scratch,
  then one blocked transpose), so small kernels dispatch to that path — on
  one CPU core the split point is ~2.5x either way at AlexNet-ish shapes.
* ``col2im`` keeps a *contiguity copy* before the overlap-add scatter:
  scattering straight out of the transposed view was measured 1.5-2x slower
  (strided reads defeat the adds) than copy-then-contiguous-adds.

Where the time actually went was not the copies but *first-touch page
faults* on freshly allocated temporaries: on a 4-node fleet run about half
of im2col's time and nearly all of the process's kernel time.  So every
internal temporary — the zero-padded input, the two-step gather scratch,
the col2im contiguity copy — is a view of the process-wide grow-only
:mod:`repro.nn.workspace` (roles ``im2col_pad``, ``im2col_gather``,
``col2im_scratch``), and only what is *returned* is freshly allocated:
``im2col``'s result unless ``out=`` is given, ``col2im``'s result unless
``padded_out=`` is given.  :class:`~repro.nn.conv.Conv2D` passes workspace
views for those too, so the steady-state training loop allocates no large
array at all.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import workspace
from repro.obs.profile import profiled

__all__ = ["conv_output_size", "im2col", "col2im"]

#: kernels at least this wide use the single-copy sliding-window gather;
#: smaller kernels (3x3, 2x2) measured faster on the two-step path.
_SLIDING_MIN_KERNEL = 4


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _zero_padded(images: np.ndarray, pad: int) -> np.ndarray:
    """``np.pad(images, pad)`` on the last two axes, into the workspace.

    The buffer is shared by every geometry, so the border is re-zeroed on
    each call (four thin strips) and the interior overwritten.
    """
    batch, channels, height, width = images.shape
    padded = workspace.take(
        "im2col_pad",
        (batch, channels, height + 2 * pad, width + 2 * pad),
        images.dtype,
    )
    padded[:, :, :pad] = 0
    padded[:, :, -pad:] = 0
    padded[:, :, pad:-pad, :pad] = 0
    padded[:, :, pad:-pad, -pad:] = 0
    padded[:, :, pad:-pad, pad:-pad] = images
    return padded


def _check_buffer(
    buf: np.ndarray, shape: tuple[int, ...], dtype: np.dtype, name: str
) -> None:
    if buf.shape != shape or buf.dtype != dtype:
        raise ValueError(
            f"{name} buffer mismatch: need {shape} {dtype}, "
            f"got {buf.shape} {buf.dtype}"
        )


@profiled("nn.im2col")
def im2col(
    images: np.ndarray,
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Batch in NCHW layout, shape ``(B, N, H, W)``.
    kernel, stride, pad:
        Square-kernel convolution geometry.
    out:
        Optional preallocated result buffer of the exact output shape and
        dtype (a workspace view in the training hot loop); a fresh array is
        allocated and returned when omitted.

    Returns
    -------
    np.ndarray
        Shape ``(B * R * C, N * kernel * kernel)`` where ``R``/``C`` are the
        output spatial dims.  Row ``b*R*C + r*C + c`` holds the receptive
        field of output pixel ``(r, c)`` of sample ``b``.
    """
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    if pad:
        images = _zero_padded(images, pad)

    shape = (batch * out_h * out_w, channels * kernel * kernel)
    if out is None:
        out = np.empty(shape, dtype=images.dtype)
    else:
        _check_buffer(out, shape, images.dtype, "im2col out")
    out6 = out.reshape(batch, out_h, out_w, channels, kernel, kernel)

    if kernel >= _SLIDING_MIN_KERNEL or kernel == 1:
        windows = sliding_window_view(images, (kernel, kernel), axis=(2, 3))[
            :, :, ::stride, ::stride
        ]
        np.copyto(out6, windows.transpose(0, 2, 3, 1, 4, 5))
        return out

    cols = workspace.take(
        "im2col_gather",
        (batch, channels, kernel, kernel, out_h, out_w),
        images.dtype,
    )
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = images[
                :, :, ky:y_max:stride, kx:x_max:stride
            ]
    np.copyto(out6, cols.transpose(0, 4, 5, 1, 2, 3))
    return out


@profiled("nn.col2im")
def col2im(
    cols: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    *,
    scratch: np.ndarray | None = None,
    padded_out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter columns back into an image batch (adjoint of :func:`im2col`).

    Overlapping patches are *summed*, which is exactly the gradient
    accumulation the convolution backward pass needs.

    ``scratch`` (shape ``(B, N, K, K, R, C)``) receives the contiguity copy
    and defaults to a workspace view; ``padded_out`` (shape
    ``(B, N, H+2p, W+2p)``) receives the accumulation and defaults to a
    fresh array, because it is what the call returns (a view into it when
    ``pad > 0``).
    """
    batch, channels, height, width = image_shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    six_shape = (batch, channels, kernel, kernel, out_h, out_w)
    if scratch is None:
        scratch = workspace.take("col2im_scratch", six_shape, cols.dtype)
    else:
        _check_buffer(scratch, six_shape, cols.dtype, "col2im scratch")
    # One blocked copy into (B, N, K, K, R, C): the K*K overlap-adds below
    # then stream over contiguous planes, which measures 1.5-2x faster than
    # adding straight from the transposed view.
    np.copyto(
        scratch,
        cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
            0, 3, 4, 5, 1, 2
        ),
    )

    padded_shape = (batch, channels, height + 2 * pad, width + 2 * pad)
    if padded_out is None:
        padded = np.zeros(padded_shape, dtype=cols.dtype)
    else:
        _check_buffer(padded_out, padded_shape, cols.dtype, "col2im padded")
        padded = padded_out
        padded.fill(0.0)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += scratch[
                :, :, ky, kx, :, :
            ]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded
