"""Inference-mode forward of a layer stack, with a process-wide memo of
conv-prefix activations: one pass per (weights, image).

:func:`infer` is the one inference loop: ``Sequential.forward(training=False)``
calls it with the prefix lengths its ``reusing_prefix`` block names (none
outside one), and the frozen-prefix trainers call it on the prefix.  The
*trunk* — the layers before the first :class:`~repro.nn.linear.Linear` (conv,
ReLU, max-pool, flatten) — runs one block of consecutive images at a time,
each block as large as fits :data:`repro.nn.conv.BLOCK_BYTES` of the trunk's
largest per-image output, so an inference pass holds block-sized layer
outputs whatever the batch size.  The layers from the first ``Linear`` on
run on the caller's whole batch.

The memo maps ``(digest of all that layers[:k] read at inference, digest of
one image's dtype + shape + bytes)`` to that image's row of the
inference-mode output of ``layers[:k]``.  A batch resumes from the deepest
prefix length at which *every* image has a row: the rows are stacked, with
the strides the layer produced, and the layers after that depth run on the
caller's batch.  If any image misses, every image of the batch is computed,
in the trunk's in-order blocks of the caller's batch — never a sub-batch of
only the missed images — and each block stores one row per image.

Blocking and hits are exact because a row of the conv trunk does not depend
on what else is in its batch, a BLAS property pinned by name
(``tests/nn/test_prefix_memo.py::test_conv_prefix_rows_invariant_to_batch_composition``);
the FC GEMMs, whose rows are not batch-invariant, always see the batch the
caller passed (DESIGN §7).

Stored rows are read-only and own their data.  At most :data:`MAX_BYTES` are
held, least recently used row out first.  Per-process and not thread-safe,
like the workspace.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.nn import conv
from repro.nn.base import Layer
from repro.nn.linear import Linear
from repro.obs.metrics import MetricsRegistry

__all__ = ["MAX_BYTES", "METRICS", "clear", "infer", "params_digest"]

#: bound on stored bytes; the e2e workloads' working sets are 7-12 MB
MAX_BYTES = 32 << 20

#: ``prefix_memo.hits`` (every image at the deepest depth asked for),
#: ``.resumes`` (every image at a shallower one), ``.misses`` (per batch),
#: ``.evictions`` (per row), ``.bytes``.  Not a run's ambient registry, which
#: is pinned byte-identical across reruns and worker counts: what hits
#: depends on what the process ran before.
METRICS = MetricsRegistry()

_ROWS: OrderedDict[tuple[bytes, bytes], np.ndarray] = OrderedDict()


def _hash_layer(digest, layer: Layer) -> None:
    # hyper-parameters (stride, pad, pool size) shape the output as much as
    # the weights do; bools are transient marks
    config = sorted(
        kv for kv in vars(layer).items() if type(kv[1]) in (int, float, str)
    )
    digest.update(repr((type(layer).__name__, config)).encode())
    for param in layer.parameters:
        digest.update(repr((param.data.dtype.str, param.data.shape)).encode())
        digest.update(np.ascontiguousarray(param.data))


def params_digest(layers: Sequence[Layer]) -> bytes:
    """Digest of all that ``layers`` read at inference besides their input.

    SHA-256: the fastest cryptographic hash of at least 128 bits in
    ``hashlib`` on x86 CPUs with SHA extensions (about twice blake2b's rate).
    """
    digest = hashlib.sha256()
    for layer in layers:
        _hash_layer(digest, layer)
    return digest.digest()


def _prefix_digests(
    layers: Sequence[Layer], depths: Sequence[int]
) -> dict[int, bytes]:
    """``params_digest(layers[:d])`` for every ``d`` in ``depths``, in one
    pass: ``digest()`` reads a copy of the running state."""
    digest, keys = hashlib.sha256(), {}
    for depth, layer in enumerate(layers[: max(depths)], 1):
        _hash_layer(digest, layer)
        if depth in depths:
            keys[depth] = digest.digest()
    return keys


def _image_digests(x: np.ndarray) -> list[bytes]:
    header = hashlib.sha256(repr((x.dtype.str, x.shape[1:])).encode())
    keys = []
    for image in x:
        digest = header.copy()
        digest.update(np.ascontiguousarray(image))
        keys.append(digest.digest())
    return keys


def _lookup(params: bytes, images: list[bytes]) -> np.ndarray | None:
    """The batch of ``images``' rows under ``params``, or ``None`` unless
    every image has one.  A hit makes its rows the most recently used."""
    rows = []
    for image in images:
        row = _ROWS.get((params, image))
        if row is None:
            return None
        rows.append(row)
    for image in images:
        _ROWS.move_to_end((params, image))
    first = rows[0]
    out = np.lib.stride_tricks.as_strided(
        np.empty(len(rows) * first.size, first.dtype),
        (len(rows), *first.shape),
        (first.nbytes, *first.strides),
    )
    for i, row in enumerate(rows):
        out[i] = row
    out.flags.writeable = False
    return out


def _store(params: bytes, images: list[bytes], out: np.ndarray) -> None:
    """One owning, read-only row of ``out`` per image, unless ``out`` is over
    the bound or its rows would not stack back to its strides."""
    if out.nbytes > MAX_BYTES:
        return
    first = out[0].copy(order="K")
    if out.strides != (first.nbytes, *first.strides):  # batch axis not outermost
        return
    held = METRICS.gauge("prefix_memo.bytes")
    for image, row in zip(images, out):
        key = (params, image)
        if key in _ROWS:  # the same bytes: batch composition moves no row
            _ROWS.move_to_end(key)
            continue
        row = row.copy(order="K")
        row.flags.writeable = False
        _ROWS[key] = row
        held.inc(row.nbytes)
    while held.value > MAX_BYTES:
        held.dec(_ROWS.popitem(last=False)[1].nbytes)
        METRICS.counter("prefix_memo.evictions").inc()


def _block_images(layers: Sequence[Layer], x: np.ndarray) -> int:
    """Images per trunk block: as many as fit :data:`conv.BLOCK_BYTES` of
    the largest per-image output of ``layers`` on ``x``."""
    shape, peak = x.shape[1:], 1
    for layer in layers:
        shape = layer.output_shape(shape)
        peak = max(peak, math.prod(shape))
    return max(1, conv.BLOCK_BYTES // (peak * x.dtype.itemsize))


def _run_trunk(
    layers: Sequence[Layer],
    start: int,
    x: np.ndarray,
    keys: dict[int, bytes],
    images: list[bytes],
) -> np.ndarray:
    """Inference-mode ``layers[start:]`` on ``x``, one block of consecutive
    images at a time, rows stored per block at the depths in ``keys``; the
    blocks' outputs stacked in the layout the last layer gave them."""
    block = _block_images(layers[start:], x)
    out = None
    for lo in range(0, max(len(x), 1), block):  # an empty batch runs once
        part = x[lo : lo + block]
        for depth, layer in enumerate(layers[start:], start + 1):
            part = layer.forward(part, training=False)
            if depth in keys:
                _store(keys[depth], images[lo : lo + block], part)
        if len(part) == len(x):
            return part
        if out is None:
            out = np.empty_like(part, shape=(len(x), *part.shape[1:]))
        out[lo : lo + len(part)] = part
    return out


def infer(layers: Sequence[Layer], depths: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Inference-mode output of ``layers`` on ``x``: resumed from the deepest
    of the prefix lengths ``depths`` at which every image has a row, rows
    stored (read-only) at the deeper ones; the trunk runs per block."""
    start, out, keys, images = 0, x, {}, []
    if depths and len(x):
        keys, images = _prefix_digests(layers, depths), _image_digests(x)
        for depth in sorted(depths, reverse=True):
            stacked = _lookup(keys[depth], images)
            if stacked is not None:
                start, out = depth, stacked
                break
        outcome = (
            "misses" if not start else "hits" if start == max(depths) else "resumes"
        )
        METRICS.counter(f"prefix_memo.{outcome}").inc()
    trunk_end = next(
        (i for i, layer in enumerate(layers) if isinstance(layer, Linear)),
        len(layers),
    )
    if start < trunk_end:
        out = _run_trunk(layers[:trunk_end], start, out, keys, images)
    tail = max(start, trunk_end)
    for depth, layer in enumerate(layers[tail:], tail + 1):
        out = layer.forward(out, training=False)
        if depth in keys:
            _store(keys[depth], images, out)
    if len(layers) in keys and out is not x:
        out.flags.writeable = False
    return out


def clear() -> None:
    """Forget every row (tests; benches that time training)."""
    _ROWS.clear()
    METRICS.gauge("prefix_memo.bytes").set(0)
