"""Process-wide memo of prefix activations: one pass per (weights, batch).

:func:`infer` maps ``(digest of all that layers[:k] read at inference, digest
of the batch's dtype + shape + bytes)`` to the inference-mode output of
``layers[:k]``.  A hit is exact by construction — the same parameter bytes on
the same batch bytes are the same BLAS calls the miss made; no GEMM is assumed
batch-invariant, so the unit is the whole batch, not the image (DESIGN §7).

Stored arrays are read-only and own their data: a view, which might alias a
:mod:`repro.nn.workspace` buffer or the caller's batch, is copied.  At most
:data:`MAX_BYTES` are held, oldest entry out first.  Per-process and not
thread-safe, like the workspace.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.nn.base import Layer
from repro.obs.metrics import MetricsRegistry

__all__ = ["MAX_BYTES", "METRICS", "clear", "infer", "params_digest"]

#: bound on stored bytes; the e2e workloads' working sets are 10-26 MB
MAX_BYTES = 32 << 20

#: ``prefix_memo.hits`` (at the deepest depth asked for), ``.resumes`` (from a
#: shallower one), ``.misses``, ``.evictions``, ``.bytes``.  Not a run's ambient
#: registry, which is pinned byte-identical across reruns and worker counts:
#: what hits depends on what the process ran before.
METRICS = MetricsRegistry()

_ENTRIES: OrderedDict[tuple[bytes, bytes], np.ndarray] = OrderedDict()


def params_digest(layers: Sequence[Layer]) -> bytes:
    """Digest of all that ``layers`` read at inference besides their input."""
    digest = hashlib.blake2b(digest_size=16)
    for layer in layers:
        # hyper-parameters (stride, pad, pool size, slope, eps) shape the
        # output as much as the arrays do; bools are transient marks
        config = sorted(
            kv for kv in vars(layer).items() if type(kv[1]) in (int, float, str)
        )
        digest.update(repr((type(layer).__name__, config)).encode())
        for array in layer.inference_arrays():
            digest.update(repr((array.dtype.str, array.shape)).encode())
            digest.update(np.ascontiguousarray(array))
    return digest.digest()


def infer(layers: Sequence[Layer], depths: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Inference-mode output of ``layers`` on ``x``: resumed from the deepest
    of the prefix lengths ``depths`` held, stored (read-only) at the rest."""
    start, out, pending = 0, x, {}
    if depths:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr((x.dtype.str, x.shape)).encode())
        digest.update(np.ascontiguousarray(x))
        batch_key = digest.digest()
    for depth in sorted(depths, reverse=True):
        key = (params_digest(layers[:depth]), batch_key)
        if key in _ENTRIES:
            start, out = depth, _ENTRIES[key]
            break
        pending[depth] = key
    if depths:
        outcome = "misses" if not start else "resumes" if pending else "hits"
        METRICS.counter(f"prefix_memo.{outcome}").inc()
    held = METRICS.gauge("prefix_memo.bytes")
    for depth, layer in enumerate(layers[start:], start + 1):
        out = layer.forward(out, training=False)
        if depth in pending and out.nbytes <= MAX_BYTES:
            if not out.flags.owndata or out is x:
                out = out.copy(order="K")
            out.flags.writeable = False
            _ENTRIES[pending[depth]] = out
            held.inc(out.nbytes)
            while held.value > MAX_BYTES:
                held.dec(_ENTRIES.popitem(last=False)[1].nbytes)
                METRICS.counter("prefix_memo.evictions").inc()
    return out


def clear() -> None:
    """Forget every entry (tests; benches that time training)."""
    _ENTRIES.clear()
    METRICS.gauge("prefix_memo.bytes").set(0)
