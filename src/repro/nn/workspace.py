"""Process-wide scratch for the convolution hot path, grow-only within a phase.

Every large temporary of :mod:`repro.nn.im2col` and
:class:`~repro.nn.conv.Conv2D` is a *view* carved from one flat byte buffer
per **role**: column matrices in the paper's Dm layout, ``cols_infer``
(one block of images, ``(N*K*K, b*R*C)``, at most ``conv.BLOCK_BYTES``) and
``grad_cols`` (a whole batch, ``(N*K*K, B*R*C)``); ``grad_rows`` (output
gradients that do not already sit in row order), ``grad_w``, and
the channel-major ``(N, B, H+2p, W+2p)`` images ``im2col_pad`` and
``col2im_padded``.  Within a phase a role's buffer is as large
as the largest request it has served and is never shrunk, so once a phase
has seen its biggest batch the hot loop touches only memory it has touched
before, whatever shapes follow.

A phase ends only where the scratch's last user is discarded: the fleet
set-up (:func:`repro.fleet.simulation._warm_start`) pre-trains and
initializes on a throwaway seed Cloud, then calls :func:`reset`, so the
run after it — and every worker forked from it — grows only the buffers
its own shapes ask for (the set-up's whole-batch training scratch is
~70 MB, which a run whose nodes never train would otherwise carry to its
end).  A run's own retrains do not reset: emptying the buffers after each
one would make the next fault every page of them in again.

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

What the workspace cannot cover — the first touch of its own buffers, and
every array a layer *returns* (GEMM results, activations, masks, pooled
gradients) — is steadied at the allocator instead, once, when this module is
imported: numpy's ``MADV_HUGEPAGE`` hint is switched off
(:func:`_keep_arrays_on_small_pages`).  No value is touched by that.
"""

from __future__ import annotations

import math
import os
import weakref

import numpy as np

__all__ = ["checkout", "release", "reset", "take"]


def _keep_arrays_on_small_pages() -> None:
    """Stop numpy asking the kernel for huge pages under arrays of 4 MB and up.

    numpy ``madvise``\\ s every such allocation ``MADV_HUGEPAGE``.  Where
    transparent huge pages are in ``madvise`` mode (the usual server default)
    the first touch of each 2 MB of a fresh activation or workspace buffer is
    then a *synchronous* huge-page fault, and on a virtual machine whose free
    2 MB blocks have been handed back to the host that fault costs anything
    from 0.5 ms to 90 ms: a fleet run's kernel time measured 0.1 s on one
    repetition and 1.8 s on the next, same seed, same ~7 k faults, on top of
    1.7 s of user time.  The same bytes on 4 KB pages are five times as many
    faults at a steady 2-5 us each (0.07-0.12 s per run) and no slower to
    compute on.  Values are untouched: this only decides the page size under
    arrays allocated from here on.

    An explicit ``NUMPY_MADVISE_HUGEPAGE`` (numpy's own switch) wins.  The
    setter is numpy-private, so a numpy without it is left as it is.
    """
    if "NUMPY_MADVISE_HUGEPAGE" in os.environ:
        return
    core = getattr(np, "_core", None) or getattr(np, "core", None)
    setter = getattr(
        getattr(core, "multiarray", None), "_set_madvise_hugepage", None
    )
    if setter is not None:
        setter(False)


_keep_arrays_on_small_pages()

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


def reset() -> None:
    """Drop every buffer and claim; the next calls grow the workspace afresh."""
    _BUFFERS.clear()
    _HOLDERS.clear()
