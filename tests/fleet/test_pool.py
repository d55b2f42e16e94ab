"""Forked worker pool: bit-identity, placement invariance, cleanup.

The pool's contract is that parallelism is *invisible* in the results:
any worker count produces byte-identical reports and traces on
``run_fleet``'s barrier rounds (flat fleets only), because all
diagnosis randomness is reseeded per (node, stage), each node takes its
own report whichever worker ran it, and the engine emits every record
in the parent.  The other half
of the contract is hygiene: no worker process and no ``/dev/shm`` entry
outlives the run, whether it exits normally, raises mid-stage, or loses
a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.systems import SYSTEMS, system_by_id
from repro.fleet.pool import FleetWorkerPool, PoolTask
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    FleetAssets,
    FleetRuntime,
    build_fleet_runtime,
    fleet_base_scenario,
    node_stage,
    prepare_fleet_assets,
    run_fleet,
)
from repro.obs import Tracer

NUM_NODES = 3

def tiny_fleet() -> FleetScenario:
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    return FleetScenario(base=base, num_nodes=NUM_NODES, seed=7)


@pytest.fixture(scope="module")
def assets():
    return prepare_fleet_assets(tiny_fleet())


def fleet_signature(report):
    return (
        [u.eval_accuracy for u in report.updates],
        [[r.uploaded for r in n.records] for n in report.nodes],
        [n.download_bytes for n in report.nodes],
        [n.accuracy_trajectory for n in report.nodes],
        report.makespan_s,
        report.total_uploaded_bytes,
        report.total_downloaded_bytes,
    )


def flat_run(assets, workers):
    tracer = Tracer()
    report = run_fleet(
        system_by_id("d"), assets, workers=workers, tracer=tracer
    )
    return fleet_signature(report), tracer.to_jsonl()


@pytest.fixture(scope="module")
def flat_serial(assets):
    return flat_run(assets, 1)


class TestBitIdentity:
    """workers in {2, 4}: reports and trace bytes match serial exactly."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_flat(self, assets, flat_serial, workers):
        assert flat_run(assets, workers) == flat_serial


class TestPlacementInvariance:
    def test_chunk_boundaries_do_not_matter(self, assets, flat_serial):
        # 3 nodes over 2 vs 3 workers produces different node->worker
        # chunk assignments; per-(node, stage) reseeding makes the
        # placement unobservable in the results.
        assert flat_run(assets, 3) == flat_serial


class TestPoolReuse:
    def test_one_pool_serves_all_system_variants(self, assets):
        # Every variant forks its own workers; each is pooled == serial.
        for config in SYSTEMS:
            serial = run_fleet(config, assets)
            pooled = run_fleet(config, assets, workers=2)
            assert fleet_signature(serial) == fleet_signature(pooled)


def _residue() -> tuple[list, list[str]]:
    """What a pool could leave behind: child processes, /dev/shm names."""
    return multiprocessing.active_children(), sorted(os.listdir("/dev/shm"))


@pytest.fixture
def no_residue():
    """Nothing the test starts is alive or on /dev/shm when it ends."""
    children, shm = _residue()
    assert children == []
    yield
    assert _residue() == ([], shm)


class _ExplodingTracer(Tracer):
    """Raises from the engine once a round's worker results arrive."""

    def span(self, cat, name, t0, t1, **attrs):
        if cat == "node":
            raise RuntimeError("tracer exploded mid-stage")
        return super().span(cat, name, t0, t1, **attrs)


def _normal_exit(assets):
    run_fleet(system_by_id("d"), assets, workers=2)


def _parent_side_exception(assets):
    with pytest.raises(RuntimeError, match="exploded"):
        run_fleet(
            system_by_id("d"), assets, workers=2, tracer=_ExplodingTracer()
        )


def _worker_side_exception(assets):
    runtime = build_fleet_runtime(system_by_id("d"), assets)
    pool = FleetWorkerPool(runtime, assets, 2)
    try:
        with pytest.raises(IndexError):
            state = pool.publish(assets.initial_state)
            pool.run_stage(0, [PoolTask(0, state), PoolTask(NUM_NODES, state)])
    finally:
        pool.shutdown()


def _with_block_raising(assets):
    """The caller's own code raises while the pool is live."""
    runtime = build_fleet_runtime(system_by_id("d"), assets)
    pool = FleetWorkerPool(runtime, assets, 2)
    with pytest.raises(RuntimeError, match="boom"):
        try:
            task = PoolTask(0, pool.publish(assets.initial_state))
            assert pool.run_stage(0, [task]).keys() == {0}
            raise RuntimeError("boom")
        finally:
            pool.shutdown()


class TestNoResidue:
    @pytest.mark.parametrize(
        "run",
        [
            _normal_exit,
            _parent_side_exception,
            _worker_side_exception,
            _with_block_raising,
        ],
        ids=[
            "normal-exit",
            "parent-exception",
            "worker-exception",
            "with-block",
        ],
    )
    def test_run_leaves_nothing_behind(self, assets, no_residue, run):
        run(assets)

    def test_killed_worker_names_the_stage_and_nodes(
        self, assets, no_residue, monkeypatch
    ):
        def dying_node_stage(runtime, assets, node_index, stage_index):
            if (node_index, stage_index) == (2, 1):
                os._exit(9)
            return node_stage(runtime, assets, node_index, stage_index)

        # Patched before the first dispatch: the forked workers inherit it.
        monkeypatch.setattr(
            "repro.fleet.simulation.node_stage", dying_node_stage
        )
        with pytest.raises(
            RuntimeError,
            match=r"fleet worker died during stage 1 \(nodes \[0, 1, 2\]\); "
            "results discarded",
        ) as caught:
            run_fleet(system_by_id("d"), assets, workers=2)
        assert type(caught.value.__cause__).__name__ == "BrokenProcessPool"


class TestForkOnly:
    def test_platform_without_fork_is_refused_before_any_segment(
        self, assets, no_residue, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        runtime = build_fleet_runtime(system_by_id("d"), assets)
        with pytest.raises(ValueError, match=r"workers=2 .*'fork'.*\['spawn'\]"):
            FleetWorkerPool(runtime, assets, 2)


def _inherited_not_pickled(self):
    raise TypeError(f"{type(self).__name__} must cross the fork by inheritance")


class _UnpicklableAssets(FleetAssets):
    __reduce__ = _inherited_not_pickled


def _report_fields(node_report):
    fields = dict(vars(node_report))
    upload = fields.pop("upload_data")
    return fields, upload.images.tobytes(), upload.labels.tobytes()


class TestForkHygiene:
    def test_assets_are_inherited_not_pickled(
        self, assets, flat_serial, monkeypatch
    ):
        monkeypatch.setattr(FleetRuntime, "__reduce__", _inherited_not_pickled)
        assert flat_run(_UnpicklableAssets(**vars(assets)), 2) == flat_serial

    def test_one_stage_may_reference_any_number_of_states(
        self, assets, no_residue
    ):
        # Three distinct states in one stage, two of them in one chunk;
        # each permutes the classifier's outputs differently.
        config, stage = system_by_id("d"), 1
        head = assets.initial_state["fc8.weight"]
        states = [
            {**assets.initial_state, "fc8.weight": np.roll(head, k, axis=0)}
            for k in range(3)
        ]
        runtime = build_fleet_runtime(config, assets)

        def serial_stage(node_index, state):
            runtime.deployed_net.load_state_dict(state)
            return _report_fields(
                node_stage(runtime, assets, node_index, stage)
            )

        serial = {i: serial_stage(i, state) for i, state in enumerate(states)}
        # The states are told apart: a worker that kept the chunk's
        # first state loaded for node 1 would be caught below.
        assert serial_stage(1, states[0]) != serial[1]

        fresh = build_fleet_runtime(config, assets)
        pool = FleetWorkerPool(fresh, assets, 2)
        try:
            tokens = [pool.publish(state) for state in states]
            assert tokens == [pool.publish(state) for state in states]
            assert len(set(tokens)) == 3
            tasks = [PoolTask(i, t) for i, t in enumerate(tokens)]
            pooled = pool.run_stage(stage, tasks)
        finally:
            pool.shutdown()
        assert {i: _report_fields(r) for i, r in pooled.items()} == serial

    def test_cli_with_piped_stdout_matches_serial(self, tmp_path, no_residue):
        # Piped stdout is block-buffered: bytes sitting in the parent's
        # buffer at fork time would be written once more by each worker.
        # The script prints before the pool forks, then the run's report
        # and trace.  One BLAS thread per process: two workers on a
        # 2-core runner.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        script = (
            "import sys\n"
            "from repro.core.systems import system_by_id\n"
            "from repro.fleet.profiles import FleetScenario\n"
            "from repro.fleet.simulation import (\n"
            "    fleet_base_scenario, prepare_fleet_assets, run_fleet)\n"
            "from repro.obs import Tracer\n"
            "assets = prepare_fleet_assets(FleetScenario(\n"
            "    base=fleet_base_scenario(stream_scale=0.02, pretrain_images=32,\n"
            "        pretrain_epochs=1, init_epochs=2, update_epochs=1,\n"
            "        eval_images=32),\n"
            "    num_nodes=2, scheduler_policy='threshold', seed=7))\n"
            "print('before the fork')\n"
            "tracer = Tracer()\n"
            "report = run_fleet(system_by_id('d'), assets,\n"
            "    workers=int(sys.argv[1]), tracer=tracer)\n"
            "print(report.makespan_s, report.total_uploaded_bytes)\n"
            "print(tracer.to_jsonl(), end='')\n"
        )
        runs = {}
        for workers in (1, 2):
            done = subprocess.run(
                [sys.executable, "-c", script, str(workers)],
                stdout=subprocess.PIPE,
                env=env,
                check=True,
                timeout=300,
            )
            runs[workers] = done.stdout
        assert runs[1].startswith(b"before the fork\n")
        assert runs[2] == runs[1]
