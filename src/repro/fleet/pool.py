"""Persistent forked worker runtime for the lockstep stage loop.

:class:`FleetWorkerPool` is created **once per run** and reused across
stages, engines, and system variants.  Its workers are ``fork``-ed from
the parent at the first :meth:`~FleetWorkerPool.run_stage`, so each one
is a copy-on-write snapshot of the warm parent: ``repro`` imported,
``nn.workspace``'s small-pages switch applied, the
:class:`~repro.fleet.simulation.FleetAssets` already in memory.  A
worker never boots an interpreter, re-imports a module or unpickles the
assets (DESIGN §12, *Why fork is safe here*).  ``fork`` is POSIX-only:
where it does not exist the constructor raises, and ``workers=1`` is the
way to run.

* **Weights block** — the pool's one :mod:`multiprocessing.shared_memory`
  segment: a slot-based (double-buffered by default) block holding the
  active model states.  The parent :meth:`publish`-es a state dict once
  per *change* (publication is interned on object identity, so
  re-publishing the registry's active state is free) and tasks carry
  only a small integer *generation*.  Workers map the slot's arrays
  straight out of the mapping they inherited — no per-task weight
  pickling in either direction.  Weights change after the fork, which
  is why they, unlike the assets, need memory both sides share.
* **Chunked dispatch** — :meth:`run_stage` groups a stage's node items
  into one contiguous chunk per worker, amortizing executor round trips
  from O(nodes) to O(workers) per stage.
* **Per-variant worker runtimes** — workers build (and cache) one
  :class:`~repro.fleet.simulation.FleetRuntime` per ``system_id``, so
  ``run_fleet_all_systems`` reuses a single pool for all four variants.

Determinism contract: task results are keyed by node index and merged in
fixed node order by the engines, and all diagnosis randomness is
reseeded per ``(node, stage)`` inside the worker — so any worker count,
any chunking, and any task placement produce bit-identical reports and
trace bytes (``tests/fleet/test_pool.py`` pins this for the one lockstep
stage loop under the direct tier, the gateway tier, and scenario hooks).

Cleanup contract: :meth:`shutdown` (idempotent, also run by
``__exit__`` and a GC finalizer) cancels queued futures, stops the
workers, and closes **and unlinks** the segment — no shared-memory
segment survives a ``run_fleet`` call, whether it returns or raises.
``_ACTIVE_SEGMENTS`` tracks live segment names so tests can assert
leak-freedom.

This module is the only place in ``src/repro`` allowed to construct
``ProcessPoolExecutor`` or ``SharedMemory`` objects (lint rule RPR012):
one seam keeps the lifecycle auditable.
"""

from __future__ import annotations

import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["FleetWorkerPool", "PoolStateError", "PoolTask"]


#: Names of shared-memory segments created by live pools.  Shutdown
#: removes names as it unlinks; the leak test asserts this is empty
#: after every ``run_fleet`` (normal exit and raised exception alike).
_ACTIVE_SEGMENTS: set[str] = set()

#: Slot-header alignment: each slot's payload starts on a cache line.
_ALIGN = 64


class PoolStateError(RuntimeError):
    """A published weights generation was evicted before its tasks ran.

    Raised when more distinct model states were published between
    barriers than the pool has ``state_slots`` for — size the pool for
    the engine's per-stage state diversity (the scenario engine passes
    ``head groups + 2``).
    """


@dataclass(frozen=True)
class _StateLayout:
    """Byte layout of one model state dict inside the weights block.

    All states a pool ships must share this layout (same parameter
    names, shapes, and dtypes in the same order — true for every state
    of one model architecture).  States that do not match are shipped
    inline in the task as a pickled fallback instead.
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    dtypes: tuple[str, ...]
    offsets: tuple[int, ...]
    slot_nbytes: int

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "_StateLayout":
        names, shapes, dtypes, offsets = [], [], [], []
        cursor = 0
        for name, value in state.items():
            names.append(name)
            shapes.append(tuple(int(d) for d in value.shape))
            dtypes.append(value.dtype.str)
            offsets.append(cursor)
            cursor += int(value.nbytes)
        slot = -(-max(cursor, 1) // _ALIGN) * _ALIGN
        return cls(
            names=tuple(names),
            shapes=tuple(shapes),
            dtypes=tuple(dtypes),
            offsets=tuple(offsets),
            slot_nbytes=slot,
        )

    def matches(self, state: dict[str, np.ndarray]) -> bool:
        if tuple(state) != self.names:
            return False
        for name, shape, dtype in zip(self.names, self.shapes, self.dtypes):
            value = state[name]
            if tuple(value.shape) != shape or value.dtype.str != dtype:
                return False
        return True

    def write(self, buf: memoryview, base: int, state: dict) -> None:
        for name, shape, dtype, off in zip(
            self.names, self.shapes, self.dtypes, self.offsets
        ):
            dst = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf, offset=base + off
            )
            np.copyto(dst, state[name], casting="no")

    def read(self, buf: memoryview, base: int) -> dict[str, np.ndarray]:
        """Zero-copy views into the slot (consumers copy on load)."""
        return {
            name: np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf, offset=base + off
            )
            for name, shape, dtype, off in zip(
                self.names, self.shapes, self.dtypes, self.offsets
            )
        }


@dataclass(frozen=True)
class PoolTask:
    """One node's share of a stage dispatch.

    ``state`` is either an ``int`` generation from
    :meth:`FleetWorkerPool.publish` (the fast shared-memory path) or a
    raw state dict (the pickled fallback for layout-mismatched states).
    ``trace_t0``/``tier``/``extra`` are handed to the same
    :func:`~repro.fleet.simulation.node_stage` the serial loop calls, so
    worker-built trace records are byte-identical to serial ones.
    """

    node_index: int
    state: int | dict
    trace_t0: float | None = None
    tier: str | None = None
    extra: dict | None = None


def _chunked(items: list, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous, balanced runs."""
    chunks = max(1, min(chunks, len(items)))
    size, rem = divmod(len(items), chunks)
    out, start = [], 0
    for k in range(chunks):
        stop = start + size + (1 if k < rem else 0)
        out.append(items[start:stop])
        start = stop
    return out


class FleetWorkerPool:
    """Persistent forked process pool with a shared-memory weights block.

    Create once per run (``run_fleet`` does this when handed
    ``workers > 1`` without a pool; ``run_fleet_all_systems`` and the
    scenario engine create one explicitly and reuse it), then
    :meth:`publish` each model state and :meth:`run_stage` every stage's
    node items.  Always :meth:`shutdown` — engines do so in ``finally``,
    so the segment is unlinked even when a stage raises.
    """

    def __init__(
        self,
        assets,
        workers: int,
        *,
        state_slots: int = 2,
    ) -> None:
        if workers < 2:
            raise ValueError("FleetWorkerPool needs workers >= 2")
        if state_slots < 2:
            raise ValueError("state_slots must be >= 2 (double buffer)")
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:
            raise ValueError(
                f"workers={workers} needs the 'fork' start method and this "
                f"platform offers only {methods}; run with workers=1"
            )
        self.assets = assets
        self.workers = int(workers)
        self._layout = _StateLayout.from_state(assets.initial_state)
        self._slots = int(state_slots)
        self._gen = 0
        self._slot_gen = [0] * self._slots
        #: id(state) -> (state, generation); strong refs pin object ids.
        self._interned: dict[int, tuple[object, int]] = {}
        self._shutdown_done = False

        header = self._slots * 8  # one int64 generation per slot
        self._data_base = -(-header // _ALIGN) * _ALIGN
        weights_size = self._data_base + self._slots * self._layout.slot_nbytes
        self._weights_shm = shared_memory.SharedMemory(
            create=True, size=weights_size
        )
        _ACTIVE_SEGMENTS.add(self._weights_shm.name)
        self._header = np.ndarray(
            (self._slots,), dtype=np.int64, buffer=self._weights_shm.buf
        )
        self._header[:] = 0

        # Workers are forked by the first submit (run_stage), all at
        # once; what the parent holds at that moment is what they see.
        # initargs cross by inheritance, not by pickle: ``assets`` is
        # the parent's object and ``_weights_shm`` the parent's mapping.
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_worker_init,
            initargs=(
                assets,
                self._weights_shm,
                self._layout,
                self._slots,
                self._data_base,
            ),
        )
        # Belt and braces: a pool the caller forgot to shut down still
        # unlinks its segment when garbage-collected (engines do call
        # shutdown() in ``finally`` — this only covers misuse).
        self._finalizer = weakref.finalize(
            self, _finalize_pool, self._executor, self._weights_shm
        )

    # -- parent-side state publication ---------------------------------
    def publish(self, state: dict[str, np.ndarray]) -> int | dict:
        """Intern ``state`` into the weights block; return its task ref.

        Returns the generation ``int`` tasks should carry.  Publishing
        the same dict *object* again returns the same generation without
        touching shared memory.  A state whose layout differs from the
        pool template is returned unchanged — the task then ships it
        inline (pickled), trading speed for correctness.
        """
        cached = self._interned.get(id(state))
        if cached is not None and cached[0] is state:
            return cached[1]
        if not self._layout.matches(state):
            return state
        self._gen += 1
        gen = self._gen
        slot = gen % self._slots
        # Drop interned entries evicted by this slot reuse.
        for key in [
            k for k, (_, g) in self._interned.items() if g % self._slots == slot
        ]:
            del self._interned[key]
        base = self._data_base + slot * self._layout.slot_nbytes
        self._header[slot] = 0  # invalidate while the payload is in flux
        self._layout.write(self._weights_shm.buf, base, state)
        self._header[slot] = gen
        self._slot_gen[slot] = gen
        self._interned[id(state)] = (state, gen)
        return gen

    # -- parent-side dispatch ------------------------------------------
    def run_stage(
        self, system_id: str, stage_index: int, tasks: list[PoolTask]
    ) -> dict[int, tuple]:
        """Run one stage's node tasks; results keyed by node index.

        Tasks are submitted as contiguous per-worker chunks; each future
        returns its chunk's ``(node_index, NodeReport, records)`` list.
        The caller iterates node indices in fixed order, so merge order
        never depends on completion order.
        """
        if not tasks:
            return {}
        for task in tasks:
            if isinstance(task.state, int) and (
                self._slot_gen[task.state % self._slots] != task.state
            ):
                raise PoolStateError(
                    f"generation {task.state} was evicted (pool has "
                    f"{self._slots} state slots); raise state_slots to "
                    "cover this engine's distinct states per stage"
                )
        futures = [
            self._executor.submit(_pool_worker_chunk, system_id, stage_index, chunk)
            for chunk in _chunked(tasks, self.workers)
        ]
        merged: dict[int, tuple] = {}
        for future in futures:
            for node_index, node_report, records in future.result():
                merged[node_index] = (node_report, records)
        return merged

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers and unlink the segment.  Idempotent.

        ``cancel_futures=True`` drops queued chunks so a mid-stage
        exception tears the pool down instead of hanging on the backlog.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._finalizer.detach()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._header = None  # release the exported buffer view
        _unlink_segment(self._weights_shm)

    def __enter__(self) -> "FleetWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
        shm.unlink()
    finally:
        _ACTIVE_SEGMENTS.discard(shm.name)


def _finalize_pool(executor, weights_shm) -> None:
    executor.shutdown(wait=False, cancel_futures=True)
    try:
        _unlink_segment(weights_shm)
    except Exception:  # already unlinked, or views still exported
        pass


# ----------------------------------------------------------------------
# Worker-process side.  One module-level dict per worker, filled by the
# initializer and reused by every chunk task.
# ----------------------------------------------------------------------

_WORKER: dict = {}


def _pool_worker_init(
    assets,
    weights: shared_memory.SharedMemory,
    layout: _StateLayout,
    slots: int,
    data_base: int,
) -> None:
    """Record what this forked worker inherited from the parent.

    ``weights`` is the parent's own ``SharedMemory`` object: its mapping
    is ``MAP_SHARED``, so the copy a fork makes of it addresses the same
    pages and later :meth:`FleetWorkerPool.publish` writes show up here.
    The worker therefore opens nothing by name and tells the resource
    tracker nothing; the parent's ``unlink()`` stays the only
    deregistration.  Workers leave through ``os._exit``, so the copy is
    never closed or unlinked from this side.
    """
    _WORKER.update(
        # Deliberate worker-local cache: filled once per process in the
        # initializer, never read by the parent; chunk results flow back
        # through return values only.
        assets=assets,
        weights=weights,
        layout=layout,
        slots=slots,
        data_base=data_base,
        runtimes={},  # system_id -> FleetRuntime
        loaded={},  # system_id -> generation currently in deployed_net
    )


def _worker_runtime(system_id: str):
    runtime = _WORKER["runtimes"].get(system_id)
    if runtime is None:
        from repro.core.systems import system_by_id
        from repro.fleet.simulation import build_fleet_runtime

        runtime = build_fleet_runtime(system_by_id(system_id), _WORKER["assets"])
        # Worker-local memo: rebuilt deterministically from the inherited
        # assets in any process.
        _WORKER["runtimes"][system_id] = runtime
    return runtime


def _load_state(runtime, system_id: str, state: int | dict) -> None:
    """Point the worker's deployed net at the task's model state.

    Generations are immutable once written, so a net already holding the
    requested generation skips the load entirely — the common case for
    every node after the first in a chunk.
    """
    if isinstance(state, int):
        if _WORKER["loaded"].get(system_id) == state:
            return
        slots, layout = _WORKER["slots"], _WORKER["layout"]
        weights = _WORKER["weights"]
        slot = state % slots
        header = np.ndarray((slots,), dtype=np.int64, buffer=weights.buf)
        if int(header[slot]) != state:
            raise PoolStateError(
                f"worker saw stale slot for generation {state}"
            )
        base = _WORKER["data_base"] + slot * layout.slot_nbytes
        runtime.deployed_net.load_state_dict(layout.read(weights.buf, base))
        # Worker-local generation tag: tracks what this process's net
        # holds, parent never reads it.
        _WORKER["loaded"][system_id] = state
    else:
        runtime.deployed_net.load_state_dict(state)
        # Worker-local generation tag: explicit dicts bypass the slot
        # cache, so mark state unknown.
        _WORKER["loaded"][system_id] = None


def _pool_worker_chunk(
    system_id: str, stage_index: int, tasks: list[PoolTask]
) -> list[tuple]:
    """Run a contiguous chunk of one stage's node tasks in this worker."""
    from repro.fleet.simulation import node_stage

    runtime = _worker_runtime(system_id)
    assets = _WORKER["assets"]
    out = []
    for task in tasks:
        _load_state(runtime, system_id, task.state)
        node_report, records = node_stage(
            runtime,
            assets,
            task.node_index,
            stage_index,
            trace_t0=task.trace_t0,
            tier=task.tier,
            extra=task.extra,
        )
        out.append((task.node_index, node_report, records))
    return out
