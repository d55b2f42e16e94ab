"""im2col / col2im — the matrix-multiplication view of convolution.

The paper (Fig. 8) describes how GPUs convert convolutions into matrix
multiplications: ``im2col`` stretches local input regions into the columns of
a data matrix ``Dm`` (shape ``N*K*K x R*C``), the filters are flattened into
``Fm`` (shape ``M x N*K*K``), and the convolution becomes ``Fm @ Dm``.  This
module implements exactly that transformation (and its transpose, used by the
backward pass).

Both transforms are pure data movement, so they are bit-exact regardless of
strategy.  The strategy is to keep the bytes in the paper's layout and
transpose the *small* tensor instead of the large one:

* ``im2col`` makes one zero-padded **channel-major** ``(N, B, H+2p, W+2p)``
  copy of the input (whatever the input's strides) and then fills the
  ``Dm`` array ``(N*K*K, B*R*C)`` — or a column block of a larger one, as
  :class:`~repro.nn.conv.Conv2D` fills per block of images — with ``K*K``
  slice copies, one per kernel tap, whose inner runs are whole output
  rows.  Callers get the transpose **view** — logically the
  ``(B*R*C, N*K*K)`` matrix of receptive-field rows, same values as ever —
  and BLAS, which packs its operands anyway, absorbs the transpose.
* ``col2im`` overlap-adds straight out of the ``K*K`` contiguous planes of
  a Dm-layout gradient (what :class:`~repro.nn.conv.Conv2D` hands it) into
  a channel-major padded buffer, tap by tap in ``(ky, kx)`` order, and
  returns the logical NCHW view.  Columns in any other layout (a
  C-ordered ``(B*R*C, N*K*K)`` array from another caller) are first copied
  into that plane layout: adding from strided planes was measured 1.5-2x
  slower than copy-then-contiguous-adds.

Every internal temporary — the channel-major padded input, the fallback
contiguity copy — is a view of the process-wide grow-only
:mod:`repro.nn.workspace` (roles ``im2col_pad``, ``col2im_scratch``), because
first-touch page faults on fresh temporaries once cost more than the copies
themselves.  Only what is *returned* is freshly allocated: ``im2col``'s
result unless ``out=`` is given, ``col2im``'s result unless ``padded_out=``
is given.  :class:`~repro.nn.conv.Conv2D` passes workspace views for those
too, so the steady-state training loop allocates no large array at all.
"""

from __future__ import annotations

import numpy as np

from repro.nn import workspace
from repro.obs.profile import profiled

__all__ = ["conv_output_size", "im2col", "col2im"]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _channel_major_padded(images: np.ndarray, pad: int) -> np.ndarray:
    """``images`` zero-padded on the last two axes, as ``(N, B, H+2p, W+2p)``.

    A workspace view.  The buffer is shared by every geometry, so the border
    is re-zeroed on each call (four thin strips) and the interior
    overwritten; this copy is also where an input with unusual strides (the
    NHWC-physical output of the previous convolution) is brought into
    row-contiguous order, once, on the small tensor.
    """
    batch, channels, height, width = images.shape
    padded = workspace.take(
        "im2col_pad",
        (channels, batch, height + 2 * pad, width + 2 * pad),
        images.dtype,
    )
    if pad:
        padded[:, :, :pad] = 0
        padded[:, :, -pad:] = 0
        padded[:, :, pad:-pad, :pad] = 0
        padded[:, :, pad:-pad, -pad:] = 0
    padded[:, :, pad : pad + height, pad : pad + width] = images.transpose(
        1, 0, 2, 3
    )
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
        Batch in NCHW layout, shape ``(B, N, H, W)``, any strides.
    kernel, stride, pad:
        Square-kernel convolution geometry.
    out:
        Optional preallocated buffer in the paper's Dm layout, shape
        ``(N * kernel * kernel, B * R * C)``: a C-contiguous array or a
        column block of a larger Dm (any row stride, contiguous rows), as
        :class:`~repro.nn.conv.Conv2D` passes per block of images.  A fresh
        array is allocated when omitted.  The result is its transpose view.

    Returns
    -------
    np.ndarray
        Shape ``(B * R * C, N * kernel * kernel)`` where ``R``/``C`` are the
        output spatial dims.  Row ``b*R*C + r*C + c`` holds the receptive
        field of output pixel ``(r, c)`` of sample ``b``.  It is the
        transpose *view* of the Dm array, so the rows of ``result.T`` are
        contiguous and ``result`` itself is not.
    """
    batch, channels, height, width = images.shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    shape = (channels * kernel * kernel, batch * out_h * out_w)
    if out is None:
        out = np.empty(shape, dtype=images.dtype)
    else:
        _check_buffer(out, shape, images.dtype, "im2col out")
        if not out[0].flags.c_contiguous:
            raise ValueError("im2col out buffer rows must be C-contiguous")
    dm6 = out.view()
    dm6.shape = (channels, kernel, kernel, batch, out_h, out_w)  # never a copy

    padded = _channel_major_padded(images, pad)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            dm6[:, ky, kx] = padded[:, :, ky:y_max:stride, kx:x_max:stride]
    return out.T


@profiled("nn.col2im")
def col2im(
    cols: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
    *,
    padded_out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter columns back into an image batch (adjoint of :func:`im2col`).

    Overlapping patches are *summed*, which is exactly the gradient
    accumulation the convolution backward pass needs.

    ``cols`` is the logical ``(B*R*C, N*K*K)`` matrix.  When it is a
    Dm-layout view (``cols.T`` C-contiguous, as :func:`im2col` returns and
    :class:`~repro.nn.conv.Conv2D` computes its gradient columns) its
    ``K*K`` planes are read in place.  Otherwise the workspace role
    ``col2im_scratch`` (shape ``(N, K, K, B, R, C)``) receives a
    contiguity copy first.  ``padded_out`` (channel-major, shape
    ``(N, B, H+2p, W+2p)``) receives the accumulation and defaults to a
    fresh array, because the call returns a view into it: logical
    ``(B, N, H, W)``, cropped when ``pad > 0``.
    """
    batch, channels, height, width = image_shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    six_shape = (channels, kernel, kernel, batch, out_h, out_w)
    if cols.T.flags.c_contiguous:
        planes = cols.T.reshape(six_shape)
    else:
        scratch = workspace.take("col2im_scratch", six_shape, cols.dtype)
        # One blocked copy into (N, K, K, B, R, C): the K*K overlap-adds
        # below then stream over contiguous planes, which measures 1.5-2x
        # faster than adding straight from strided ones.
        np.copyto(
            scratch,
            cols.reshape(
                batch, out_h, out_w, channels, kernel, kernel
            ).transpose(3, 4, 5, 0, 1, 2),
        )
        planes = scratch

    padded_shape = (channels, batch, height + 2 * pad, width + 2 * pad)
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
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += planes[
                :, ky, kx
            ]
    return padded[:, :, pad : pad + height, pad : pad + width].transpose(
        1, 0, 2, 3
    )
