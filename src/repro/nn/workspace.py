"""Process-wide, grow-only scratch workspace for the convolution hot path.

Every large temporary of :mod:`repro.nn.im2col` and
:class:`~repro.nn.conv.Conv2D` is a *view* carved from one flat byte buffer
per **role**: ``cols_infer`` and ``grad_cols`` (column matrices in the
paper's Dm layout ``(N*K*K, B*R*C)``), ``grad_rows``, ``grad_w``,
``grouped_grad_in``, the channel-major ``(N, B, H+2p, W+2p)`` images
``im2col_pad`` and ``col2im_padded``, and ``col2im_scratch`` (touched only
when ``col2im`` is handed C-ordered columns).  A role's buffer is as large
as the largest request it has ever served and is never shrunk, so once a
process has seen its biggest batch the hot loop touches only memory it has
touched before, whatever shapes follow.

Why not exact-shape buffers owned by each layer (what this replaced): every
``Conv2D`` instance of every network kept one array per distinct shape, and
batch sizes churn (trailing partial batches, eval batches, replay mixes), so
hundreds of MB of scratch stayed live and a fifth of the im2col calls wrote
into never-touched pages — first-touch page faults, not the copies, were
about half of im2col's time and nearly all of a fleet run's kernel time.

Rules:

* :func:`take` views are **transient**: valid until the next ``take`` of the
  same role, by anyone, so they are consumed within the pass that took them
  and never stored.
* A buffer that must survive from a training ``forward`` to the matching
  ``backward`` is a **slot** obtained with :func:`checkout` and handed back
  with :func:`release`.  A slot held by another live owner is not handed out
  again — ``checkout`` returns ``None`` and the caller allocates — so a live
  cache is never aliased (second network with the same layer names
  mid-step, dangling training forward).

The workspace is process-private scratch: never read before it is written,
it carries no values from one call to the next, so results cannot depend on
which process (fleet pool worker or parent) ran a step.  It is not
thread-safe: one convolution pass at a time per process, which is how every
engine in this repo runs (parallelism is by process, :mod:`repro.fleet.pool`).
"""

from __future__ import annotations

import math
import weakref

import numpy as np

__all__ = ["checkout", "release", "reset", "sizes", "take"]

#: role -> flat byte buffer, grown to the largest request ever seen
_BUFFERS: dict[str, np.ndarray] = {}
#: slot -> weak reference to the owner holding it between forward and backward
_HOLDERS: dict[str, weakref.ref] = {}


def take(role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Uninitialised C-contiguous ``shape``/``dtype`` view of ``role``'s buffer."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = _BUFFERS.get(role)
    if buf is None or buf.nbytes < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        _BUFFERS[role] = buf
    return buf[:nbytes].view(dtype).reshape(shape)


def checkout(
    slot: str, owner: object, shape: tuple[int, ...], dtype
) -> np.ndarray | None:
    """Claim ``slot`` for ``owner`` until :func:`release`; ``None`` if taken.

    Re-claiming a slot the same owner already holds is allowed: the owner is
    replacing its own cache.  A holder that has been garbage-collected no
    longer counts.
    """
    holder = _HOLDERS.get(slot)
    held_by = holder() if holder is not None else None
    if held_by is not None and held_by is not owner:
        return None
    _HOLDERS[slot] = weakref.ref(owner)
    return take(slot, shape, dtype)


def release(slot: str, owner: object) -> None:
    """Give ``slot`` back; a no-op unless ``owner`` is its current holder."""
    holder = _HOLDERS.get(slot)
    if holder is not None and holder() is owner:
        del _HOLDERS[slot]


def sizes() -> dict[str, int]:
    """Bytes currently reserved, per role and slot."""
    return {role: buf.nbytes for role, buf in _BUFFERS.items()}


def reset() -> None:
    """Drop every buffer and claim; the next calls grow the workspace afresh."""
    _BUFFERS.clear()
    _HOLDERS.clear()
