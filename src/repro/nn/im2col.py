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
  returns the logical NCHW view.

The one internal temporary, the channel-major padded input, is a view of
the process-wide grow-only :mod:`repro.nn.workspace` (role ``im2col_pad``),
because first-touch page faults on fresh temporaries once cost more than
the copies themselves.  What is *returned* lands in the caller's buffers,
``out=`` and ``padded_out=``: :class:`~repro.nn.conv.Conv2D` passes
workspace views, so the steady-state training loop allocates no large
array at all.
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
    out: np.ndarray,
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    images:
        Batch in NCHW layout, shape ``(B, N, H, W)``, any strides.
    kernel, stride, pad:
        Square-kernel convolution geometry.
    out:
        The buffer in the paper's Dm layout, shape
        ``(N * kernel * kernel, B * R * C)``: a C-contiguous array or a
        column block of a larger Dm (any row stride, contiguous rows), as
        :class:`~repro.nn.conv.Conv2D` passes per block of images.  The
        result is its transpose view.

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
    padded_out: np.ndarray,
) -> np.ndarray:
    """Scatter columns back into an image batch (adjoint of :func:`im2col`).

    Overlapping patches are *summed*, which is exactly the gradient
    accumulation the convolution backward pass needs.

    ``cols`` is the logical ``(B*R*C, N*K*K)`` matrix as a Dm-layout view
    (``cols.T`` C-contiguous, as :func:`im2col` returns and
    :class:`~repro.nn.conv.Conv2D` computes its gradient columns); its
    ``K*K`` planes are read in place.  ``padded_out`` (channel-major, shape
    ``(N, B, H+2p, W+2p)``) receives the accumulation; the call returns a
    view into it: logical ``(B, N, H, W)``, cropped when ``pad > 0``.
    """
    batch, channels, height, width = image_shape
    out_h = conv_output_size(height, kernel, stride, pad)
    out_w = conv_output_size(width, kernel, stride, pad)

    if not cols.T.flags.c_contiguous:
        raise ValueError("col2im cols must be a Dm-layout (transposed) view")
    planes = cols.T.reshape(channels, kernel, kernel, batch, out_h, out_w)
    padded_shape = (channels, batch, height + 2 * pad, width + 2 * pad)
    _check_buffer(padded_out, padded_shape, cols.dtype, "col2im padded")
    padded_out.fill(0.0)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded_out[:, :, ky:y_max:stride, kx:x_max:stride] += planes[
                :, ky, kx
            ]
    return padded_out[:, :, pad : pad + height, pad : pad + width].transpose(
        1, 0, 2, 3
    )
