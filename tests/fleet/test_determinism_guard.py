"""Determinism guard: worker pools and event mode must not move results.

The hot-path PR parallelized :func:`run_fleet` across a process pool and
reseeded all diagnosis randomness per ``(node, stage)``.  These tests pin
the contract that bought us:

* ``workers=1`` and ``workers=4`` produce *bit-identical* reports;
* ``run_fleet`` (the event engine's barrier mode over the flat fleet)
  still reproduces the seed revision's lockstep trajectory;
* the whole trajectory matches the values recorded from the seed
  revision (pre-parallelism, pre-cache), so none of the rewrites —
  batched rendering, dataset cache, buffer-pooled conv, the move from
  the lockstep stage loop onto the event engine — moved a single
  prediction.
"""

from __future__ import annotations

import pytest

from repro.core.systems import system_by_id
from repro.fleet.async_sim import run_fleet_event
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
)

# Recorded from the seed revision (commit 9777dbe) for the scenario below.
GOLDEN_EVAL_ACCURACY = [0.28125, 0.28125, 0.40625, 0.40625, 0.28125]
GOLDEN_UPLOADED = [6, 5, 8, 17, 19]
GOLDEN_DOWNLOAD_BYTES = [2627760, 2627760, 2627760, 1751840, 2627760]
GOLDEN_TOTAL_UP = 8250000
GOLDEN_TOTAL_DOWN = 12262880
GOLDEN_EVENT_MAKESPAN_S = 9.176558388151106
GOLDEN_EVENT_FINAL_EVAL = 0.28125


@pytest.fixture(scope="module")
def assets():
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    return prepare_fleet_assets(FleetScenario(base=base, num_nodes=3, seed=7))


def _per_stage(report, value) -> list:
    """``value(record)`` summed over the fleet, per stage."""
    stages = len(report.nodes[0].records)
    return [sum(value(n.records[s]) for n in report.nodes) for s in range(stages)]


def _stage_downloads(report) -> list[int]:
    """Model-push bytes per stage, from the fleet ledger's rows."""
    out = [0] * len(report.nodes[0].records)
    for row in report.ledger.stages:
        out[row.stage_index] += row.downloaded_bytes
    return out


def _signature(report):
    """Every float/int the simulation produced, exactly."""
    return (
        [u.eval_accuracy for u in report.updates],
        report.final_eval_accuracy,
        report.makespan_s,
        _per_stage(report, lambda r: r.uploaded),
        _stage_downloads(report),
        [[r.accuracy_on_new for r in n.records] for n in report.nodes],
        [[r.uploaded for r in n.records] for n in report.nodes],
        report.total_uploaded_bytes,
        report.total_downloaded_bytes,
    )


class TestWorkerDeterminism:
    def test_workers_bit_identical_and_matches_seed_revision(self, assets):
        config = system_by_id("d")
        serial = run_fleet(config, assets, workers=1)
        pooled = run_fleet(config, assets, workers=4)
        assert _signature(serial) == _signature(pooled)

        # system d retrains every stage: one Cloud record per stage
        assert [u.stage_index for u in serial.updates] == [0, 1, 2, 3, 4]
        assert [u.eval_accuracy for u in serial.updates] == GOLDEN_EVAL_ACCURACY
        assert _per_stage(serial, lambda r: r.uploaded) == GOLDEN_UPLOADED
        assert _stage_downloads(serial) == GOLDEN_DOWNLOAD_BYTES
        assert serial.total_uploaded_bytes == GOLDEN_TOTAL_UP
        assert serial.total_downloaded_bytes == GOLDEN_TOTAL_DOWN

    def test_event_barrier_matches_seed_revision(self, assets):
        report = run_fleet_event(system_by_id("d"), assets, barrier=True)
        assert report.makespan_s == GOLDEN_EVENT_MAKESPAN_S
        assert report.final_eval_accuracy == GOLDEN_EVENT_FINAL_EVAL

    def test_workers_validation(self, assets):
        with pytest.raises(ValueError):
            run_fleet(system_by_id("d"), assets, workers=0)

    def test_repeat_runs_identical(self, assets):
        """Same assets, two serial runs: byte-for-byte identical reports."""
        config = system_by_id("a")
        a = run_fleet(config, assets)
        b = run_fleet(config, assets)
        assert _signature(a) == _signature(b)
