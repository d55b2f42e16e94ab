"""im2col / col2im into fresh buffers, for tests that check values only.

The library functions write into the caller's buffers (``Conv2D`` passes
workspace views); these wrappers allocate them, and hand ``col2im`` its
columns in the Dm layout it reads.
"""

from __future__ import annotations

import numpy as np

from repro.nn import col2im, conv_output_size, im2col


def im2col_fresh(images, kernel, stride=1, pad=0):
    batch, channels, height, width = images.shape
    pixels = conv_output_size(height, kernel, stride, pad) * conv_output_size(
        width, kernel, stride, pad
    )
    out = np.empty((channels * kernel * kernel, batch * pixels), images.dtype)
    return im2col(images, kernel, stride, pad, out=out)


def col2im_fresh(cols, image_shape, kernel, stride=1, pad=0):
    batch, channels, height, width = image_shape
    padded = np.empty(
        (channels, batch, height + 2 * pad, width + 2 * pad), cols.dtype
    )
    return col2im(
        np.ascontiguousarray(cols.T).T,
        image_shape,
        kernel,
        stride,
        pad,
        padded_out=padded,
    )
