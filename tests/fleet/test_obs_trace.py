"""Observability determinism at fleet scale.

The contract under test: a tracer/metrics pair attached to a seeded
fleet run is a *pure function of the seed* — rerunning produces the
same bytes, ``run_fleet`` on the worker pool produces the same bytes as
its serial run (the engine emits every record in the parent),
and turning observability off changes neither the records collected
(none) nor the simulation's own trajectory.  A registry installed with
``obs.metrics.use`` around a run receives exactly what the ``metrics=``
keyword receives: the keyword only installs it.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.systems import system_by_id
from repro.fleet.async_sim import run_fleet_event
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs import metrics as obs_metrics
from repro.topology import Topology


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


def _signature(report):
    return (
        [u.eval_accuracy for u in report.updates],
        [[r.uploaded for r in n.records] for n in report.nodes],
        [n.download_bytes for n in report.nodes],
        report.makespan_s,
        report.total_uploaded_bytes,
        report.total_downloaded_bytes,
    )


def _traced_lockstep(assets, *, workers=1):
    tracer, metrics = Tracer(), MetricsRegistry()
    report = run_fleet(
        system_by_id("d"),
        assets,
        workers=workers,
        tracer=tracer,
        metrics=metrics,
    )
    return report, tracer.to_jsonl(), metrics.to_json()


@pytest.fixture(scope="module")
def traced_serial(assets):
    return _traced_lockstep(assets)


class TestLockstepTraceDeterminism:
    def test_rerun_is_byte_identical(
        self, assets, traced_serial, explain_divergence
    ):
        _, trace_a, metrics_a = traced_serial
        _, trace_b, metrics_b = _traced_lockstep(assets)
        assert trace_a == trace_b, explain_divergence(
            trace_a, trace_b, label_a="run1", label_b="run2"
        )
        assert metrics_a == metrics_b

    def test_worker_pool_produces_identical_bytes(
        self, assets, traced_serial, explain_divergence
    ):
        serial_report, serial_trace, serial_metrics = traced_serial
        pooled_report, pooled_trace, pooled_metrics = _traced_lockstep(
            assets, workers=2
        )
        assert pooled_trace == serial_trace, explain_divergence(
            pooled_trace, serial_trace, label_a="pooled", label_b="serial"
        )
        assert pooled_metrics == serial_metrics
        assert _signature(pooled_report) == _signature(serial_report)

    def test_trace_covers_every_component(self, traced_serial):
        _, trace, _ = traced_serial
        assert trace
        assert '"cat":"node"' in trace
        assert '"cat":"net"' in trace
        assert '"cat":"cloud"' in trace

    def test_metrics_cover_fleet_and_cloud(self, traced_serial):
        _, _, metrics = traced_serial
        for name in (
            "fleet.images.acquired",
            "fleet.upload_time_s",
            "cloud.updates",
            "train.epoch_loss",
        ):
            assert name in metrics


class TestDisabledObservability:
    def test_disabled_tracer_collects_nothing_and_moves_nothing(
        self, assets, traced_serial
    ):
        tracer = Tracer(enabled=False)
        report = run_fleet(system_by_id("d"), assets, tracer=tracer)
        assert tracer.records == []
        assert _signature(report) == _signature(traced_serial[0])

    def test_plain_run_matches_traced_run(self, assets, traced_serial):
        report = run_fleet(system_by_id("d"), assets)
        assert _signature(report) == _signature(traced_serial[0])


class TestEventTraceDeterminism:
    def test_rerun_is_byte_identical(self, assets, explain_divergence):
        def run():
            tracer, metrics = Tracer(), MetricsRegistry()
            report = run_fleet_event(
                system_by_id("d"), assets, tracer=tracer, metrics=metrics
            )
            return report, tracer.to_jsonl(), metrics.to_json()

        report_a, trace_a, metrics_a = run()
        report_b, trace_b, metrics_b = run()
        assert trace_a == trace_b, explain_divergence(
            trace_a, trace_b, label_a="run1", label_b="run2"
        )
        assert metrics_a == metrics_b
        assert report_a.makespan_s == report_b.makespan_s
        assert trace_a  # non-empty: node, net, and cloud records
        assert '"cat":"cloud"' in trace_a

    def test_disabled_event_run_matches_plain(self, assets):
        plain = run_fleet_event(system_by_id("d"), assets)
        tracer = Tracer(enabled=False)
        traced = run_fleet_event(system_by_id("d"), assets, tracer=tracer)
        assert tracer.records == []
        assert traced.makespan_s == plain.makespan_s
        assert traced.final_eval_accuracy == plain.final_eval_accuracy


class TestAmbientRegistry:
    """Every recording site reads the ambient registry, so one installed
    around a run gets the same dump as one handed to ``metrics=``."""

    @staticmethod
    def _given_and_installed(run) -> tuple[str, str]:
        given = MetricsRegistry()
        run(metrics=given)
        installed = MetricsRegistry()
        with obs_metrics.use(installed):
            run()
        return given.to_json(), installed.to_json()

    @pytest.mark.parametrize("system_id", ["b", "d"])
    def test_run_fleet(self, assets, system_id):
        given, installed = self._given_and_installed(
            partial(run_fleet, system_by_id(system_id), assets)
        )
        assert installed == given
        for family in ("fleet", "flows", "cloud", "train"):
            assert f'"name": "{family}.' in given

    def test_gateway_run_fleet_event(self, assets):
        topology = Topology.fan_out(3, 2, second_opinion_fraction=0.5)
        given, installed = self._given_and_installed(
            partial(run_fleet_event, system_by_id("d"), assets, topology=topology)
        )
        assert installed == given
        for family in ("fleet", "flows", "cloud", "topology"):
            assert f'"name": "{family}.' in given
