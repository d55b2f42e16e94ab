"""Forked workers: one flat fleet run's barrier rounds, and independent jobs.

Two users share this module.  :class:`FleetWorkerPool` serves the node
work of :func:`~repro.fleet.simulation.run_fleet`'s barrier rounds
(below).  :func:`fork_map` runs independent jobs — a scenario's
replicates, Table II / Fig. 25's four systems — one per worker, results
in input order, with :func:`fork_workers` choosing how many workers the
host's free cores hold (DESIGN §12).

:class:`FleetWorkerPool` is built once per run, after
:func:`~repro.fleet.simulation.build_fleet_runtime`, and shut down when
the run ends.  Its workers are ``fork``-ed from the parent at the first
:meth:`~FleetWorkerPool.run_stage`, so each one is a copy-on-write
snapshot of the warm parent: ``repro`` imported, ``nn.workspace``'s
small-pages switch applied, the run's own ``FleetRuntime`` and
``FleetAssets`` already in memory.  A worker never boots an interpreter,
re-imports a module, unpickles the assets or rebuilds a runtime: it
calls :func:`~repro.fleet.simulation.node_stage` on the very objects a
serial run would have used (DESIGN §12, *Why fork is safe here*).
``fork`` is POSIX-only: where it does not exist the constructor raises,
and ``workers=1`` is the way to run.

* **Weights ride in the chunk** — model weights are the one thing that
  changes after the fork.  :meth:`publish` interns a state dict on
  object identity and returns a small integer token; :meth:`run_stage`
  sends each chunk the ``{token: state}`` of the distinct tokens it
  references (0.9 MB, 0.3 ms to pickle and unpickle), and a worker whose
  net already holds a token skips the load.
* **Chunked dispatch** — one contiguous chunk of a round's node items
  per worker: O(workers) executor round trips per round, not O(nodes).

Determinism contract: a worker returns only the node's ``NodeReport``;
the event engine emits every record and metric in the parent, and
diagnosis randomness is reseeded per ``(node, stage)`` inside the
worker — so any worker count, chunking and placement produce
bit-identical reports, trace bytes and metrics
(``tests/fleet/test_pool.py``).  Only ``run_fleet`` builds a pool, so
the pool never meets a gateway tier or scenario hooks.

Cleanup contract: :meth:`shutdown` (idempotent) cancels queued futures
and joins the workers.  The pool owns processes and pipes, nothing with
a name: no worker process and no ``/dev/shm`` entry outlives a run,
whether it returns or raises.

This module is the only place in ``src/repro`` allowed to construct a
``ProcessPoolExecutor`` (lint rule RPR012).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.core.node import NodeReport

__all__ = ["FleetWorkerPool", "PoolTask", "fork_map", "fork_workers"]

#: the variables OpenBLAS reads its thread count from, in its own order
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads(cores: int) -> int:
    """Threads one process's BLAS runs: the first positive pin, else all."""
    for name in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cores


def fork_workers(jobs: int) -> int:
    """Workers for ``jobs`` independent jobs: ``min(jobs, cores // BLAS threads)``.

    Unpinned BLAS already spreads one process over every core, so
    forking more processes would only oversubscribe them: the count is 1.
    """
    cores = _usable_cores()
    return max(1, min(jobs, cores // _blas_threads(cores)))


def fork_map(fn: Callable, items: Iterable, workers: int) -> list:
    """``[fn(item) for item in items]``, on up to ``workers`` forked workers.

    Results come back in input order.  ``fn`` must be a module-level
    function; items and results are pickled, everything else is
    inherited.  With one worker, one item, or no ``fork`` on this
    platform it is the in-process comprehension.  An exception in ``fn``
    reaches the caller with its own type; a worker that dies raises
    :class:`BrokenProcessPool`.  Either way queued items are dropped and
    every worker is joined before the call returns.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    executor = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )
    try:
        return list(executor.map(fn, items))
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class PoolTask:
    """One node's share of a round.

    ``state`` is a token from :meth:`FleetWorkerPool.publish`.
    """

    node_index: int
    state: int


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
    """The forked worker processes of one flat barrier run.

    :func:`~repro.fleet.simulation.run_fleet` — the only caller — builds
    one over the run's runtime when handed ``workers > 1`` and shuts it
    down in ``finally``; the engine calls :meth:`run_stage` once per
    barrier round.
    """

    def __init__(self, runtime, assets, workers: int) -> None:
        if workers < 2:
            raise ValueError("FleetWorkerPool needs workers >= 2")
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:
            raise ValueError(
                f"workers={workers} needs the 'fork' start method and this "
                f"platform offers only {methods}; run with workers=1"
            )
        self.workers = int(workers)
        #: token -> state; the strong references pin the object ids.
        self._states: list[dict[str, np.ndarray]] = []
        self._tokens: dict[int, int] = {}  # id(state) -> token
        # Workers are forked by the first submit (run_stage), all at once,
        # seeing what the parent holds then; initargs are not pickled.
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_worker_init,
            initargs=(runtime, assets),
        )

    def publish(self, state: dict[str, np.ndarray]) -> int:
        """Intern ``state`` on object identity; return its task token."""
        token = self._tokens.get(id(state))
        if token is None:
            token = self._tokens[id(state)] = len(self._states)
            self._states.append(state)
        return token

    def run_stage(
        self, stage_index: int, tasks: list[PoolTask]
    ) -> dict[int, NodeReport]:
        """Run one round's node tasks; ``NodeReport``s keyed by node index.

        Each contiguous per-worker chunk is submitted with the states
        its tokens name.  Each node takes its own report, so merge order
        never depends on completion order.
        """
        futures = [
            self._executor.submit(
                _pool_worker_chunk,
                stage_index,
                chunk,
                {task.state: self._states[task.state] for task in chunk},
            )
            for chunk in _chunked(tasks, self.workers)
        ]
        merged: dict[int, NodeReport] = {}
        try:
            for future in futures:
                merged.update(future.result())
        except BrokenProcessPool as exc:
            nodes = sorted(task.node_index for task in tasks)
            raise RuntimeError(
                f"fleet worker died during stage {stage_index} "
                f"(nodes {nodes}); results discarded"
            ) from exc
        return merged

    def shutdown(self) -> None:
        """Stop and join the workers.  Idempotent.

        ``cancel_futures=True`` drops queued chunks so a mid-stage
        exception tears the pool down instead of hanging on the backlog.
        """
        self._executor.shutdown(wait=True, cancel_futures=True)


#: Worker-process side: filled by the initializer, reused by every chunk,
#: never read by the parent (chunk results flow back as return values).
_WORKER: dict = {}


def _pool_worker_init(runtime, assets) -> None:
    """Record what this forked worker inherited from the parent."""
    _WORKER.update(runtime=runtime, assets=assets, loaded=None)


def _pool_worker_chunk(
    stage_index: int, tasks: list[PoolTask], states: dict[int, dict]
) -> list[tuple[int, NodeReport]]:
    """Run a contiguous chunk of one round's node tasks in this worker."""
    from repro.fleet.simulation import node_stage

    runtime, assets = _WORKER["runtime"], _WORKER["assets"]
    out = []
    for task in tasks:
        # A token names one immutable state, so a net already holding it
        # skips the load — every node after the first in most chunks.
        if _WORKER["loaded"] != task.state:
            runtime.deployed_net.load_state_dict(states[task.state])
            _WORKER["loaded"] = task.state
        out.append(
            (
                task.node_index,
                node_stage(runtime, assets, task.node_index, stage_index),
            )
        )
    return out
