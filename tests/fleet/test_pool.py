"""Persistent worker pool: bit-identity, placement invariance, cleanup.

The pool's contract is that parallelism is *invisible* in the results:
any worker count produces byte-identical reports and traces on every
lockstep path (flat, topology, scenario), because all diagnosis
randomness is reseeded per (node, stage) and node results merge in
fixed node order regardless of which worker ran them.  The other half
of the contract is hygiene: shared-memory segments never outlive the
run, whether it exits normally or raises mid-stage.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.core.systems import system_by_id
from repro.fleet.pool import _ACTIVE_SEGMENTS, FleetWorkerPool, PoolTask
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    FleetAssets,
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
    run_fleet_all_systems,
)
from repro.obs import Tracer
from repro.scenario import (
    load_spec,
    prepare_scenario_assets,
    run_scenario_lockstep,
)
from repro.topology import Topology

NUM_NODES = 3

SCENARIO_YAML = """\
scenario:
  name: pool-tiny
  seed: 3
  engine: lockstep
  barrier: true

fleet:
  nodes: 3
  stages: 4
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 1
    eval_images: 32

processes:
  churn:
    rate: 0.4
  per_node_heads:
    groups: 2
    epochs: 1
"""


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
        [s.eval_accuracy for s in report.stages],
        [s.uploaded for s in report.stages],
        [s.download_bytes for s in report.stages],
        [n.accuracy_trajectory for n in report.nodes],
        report.total_uploaded_bytes,
        report.total_downloaded_bytes,
    )


def scenario_signature(report):
    return (
        [n.accuracy_trajectory for n in report.fleet.nodes],
        report.stage_info,
        report.final_eval_accuracy,
        report.phase_accuracies,
        report.head_accuracies,
    )


def flat_run(assets, workers):
    tracer = Tracer()
    report = run_fleet(
        system_by_id("d"), assets, workers=workers, tracer=tracer
    )
    return fleet_signature(report), tracer.to_jsonl()


def topology_run(assets, workers):
    tracer = Tracer()
    report = run_fleet(
        system_by_id("d"),
        assets,
        workers=workers,
        tracer=tracer,
        topology=Topology.fan_out(NUM_NODES, 2),
    )
    return fleet_signature(report), tracer.to_jsonl()


@pytest.fixture(scope="module")
def flat_serial(assets):
    return flat_run(assets, 1)


@pytest.fixture(scope="module")
def topology_serial(assets):
    return topology_run(assets, 1)


@pytest.fixture(scope="module")
def scenario_spec():
    return load_spec(SCENARIO_YAML, filename="pool-tiny.yaml")


@pytest.fixture(scope="module")
def scenario_assets(scenario_spec):
    return prepare_scenario_assets(scenario_spec)


def scenario_run(spec, assets, workers):
    tracer = Tracer()
    report = run_scenario_lockstep(
        spec, assets=assets, workers=workers, tracer=tracer
    )
    return scenario_signature(report), tracer.to_jsonl()


@pytest.fixture(scope="module")
def scenario_serial(scenario_spec, scenario_assets):
    return scenario_run(scenario_spec, scenario_assets, 1)


class TestBitIdentity:
    """workers in {2, 4}: reports and trace bytes match serial exactly."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_flat(self, assets, flat_serial, workers):
        assert flat_run(assets, workers) == flat_serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_topology(self, assets, topology_serial, workers):
        assert topology_run(assets, workers) == topology_serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_scenario(self, scenario_spec, scenario_assets, scenario_serial, workers):
        assert (
            scenario_run(scenario_spec, scenario_assets, workers)
            == scenario_serial
        )


class TestPlacementInvariance:
    def test_chunk_boundaries_do_not_matter(self, assets, flat_serial):
        # 3 nodes over 2 vs 3 workers produces different node->worker
        # chunk assignments; per-(node, stage) reseeding makes the
        # placement unobservable in the results.
        assert flat_run(assets, 3) == flat_serial


class TestPoolReuse:
    def test_one_pool_serves_all_system_variants(self):
        scenario = tiny_fleet()
        serial = run_fleet_all_systems(scenario)
        pooled = run_fleet_all_systems(scenario, workers=2)
        assert serial.keys() == pooled.keys()
        for system_id in serial:
            assert fleet_signature(serial[system_id]) == fleet_signature(
                pooled[system_id]
            )

    def test_foreign_assets_rejected(self, assets, scenario_assets):
        with FleetWorkerPool(assets, 2) as pool:
            with pytest.raises(ValueError, match="FleetAssets"):
                run_fleet(
                    system_by_id("d"), scenario_assets, workers=2, pool=pool
                )


def _shm_names() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


class _ExplodingTracer(Tracer):
    """Raises from the merge loop after worker results arrive."""

    def extend(self, records) -> None:
        raise RuntimeError("tracer exploded mid-stage")


class TestSegmentCleanup:
    def test_normal_exit_leaves_no_segments(self, assets):
        before = _shm_names()
        run_fleet(system_by_id("d"), assets, workers=2)
        assert _ACTIVE_SEGMENTS == set()
        assert _shm_names() == before

    def test_exception_leaves_no_segments(self, assets):
        before = _shm_names()
        with pytest.raises(RuntimeError, match="exploded"):
            run_fleet(
                system_by_id("d"),
                assets,
                workers=2,
                tracer=_ExplodingTracer(),
            )
        assert _ACTIVE_SEGMENTS == set()
        assert _shm_names() == before

    def test_context_manager_unlinks_on_error(self, assets):
        before = _shm_names()
        with pytest.raises(RuntimeError, match="boom"):
            with FleetWorkerPool(assets, 2):
                raise RuntimeError("boom")
        assert _ACTIVE_SEGMENTS == set()
        assert _shm_names() == before


class TestForkOnly:
    def test_platform_without_fork_is_refused_before_any_segment(
        self, assets, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        before = _shm_names()
        with pytest.raises(ValueError, match=r"workers=2 .*'fork'.*\['spawn'\]"):
            FleetWorkerPool(assets, 2)
        assert _ACTIVE_SEGMENTS == set()
        assert _shm_names() == before


class _UnpicklableAssets(FleetAssets):
    def __reduce__(self):
        raise TypeError("FleetAssets must reach the workers by inheritance")


class TestForkHygiene:
    def test_one_segment_while_open_none_after(self, assets):
        before = _shm_names()
        with FleetWorkerPool(assets, 2) as pool:
            task = PoolTask(0, pool.publish(assets.initial_state))
            assert pool.run_stage("d", 0, [task]).keys() == {0}
            assert len(_ACTIVE_SEGMENTS) == 1
            assert len(_shm_names() - before) == 1
        assert _ACTIVE_SEGMENTS == set()
        assert _shm_names() == before

    def test_stage_raising_in_a_worker_leaves_no_segments(self, assets):
        before = _shm_names()
        with pytest.raises(IndexError):
            with FleetWorkerPool(assets, 2) as pool:
                state = pool.publish(assets.initial_state)
                pool.run_stage(
                    "d", 0, [PoolTask(0, state), PoolTask(NUM_NODES, state)]
                )
        assert _ACTIVE_SEGMENTS == set()
        assert _shm_names() == before

    def test_assets_are_inherited_not_pickled(self, assets, flat_serial):
        assert flat_run(_UnpicklableAssets(**vars(assets)), 2) == flat_serial

    def test_cli_with_piped_stdout_matches_serial(self, tmp_path):
        # Piped stdout is block-buffered: bytes sitting in the parent's
        # buffer at fork time would be written once more by each worker.
        # One BLAS thread per process: two workers on a 2-core runner.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        before = _shm_names()
        runs = {}
        for workers in (1, 2):
            trace = tmp_path / f"trace_w{workers}.jsonl"
            done = subprocess.run(
                [
                    sys.executable, "-m", "repro", "fleet", "--nodes", "2",
                    "--policy", "threshold",  # fewest Cloud retrains
                    "--workers", str(workers), "--trace", str(trace),
                ],
                stdout=subprocess.PIPE,
                env=env,
                check=True,
                timeout=300,
            )
            runs[workers] = (done.stdout, trace.read_bytes())
        assert runs[1][0] and runs[1][1]
        assert runs[2] == runs[1]
        assert _shm_names() == before
