"""Discrete-event simulators vs. the closed-form models.

The analytical pipeline (Eq. 13) and interference models are what the
planners optimize; these tests check them against event-by-event execution
of the same layer costs.
"""

from __future__ import annotations

import pytest

from repro.hw import TX1, VX690T, best_design, co_running_latency
from repro.hw.eventsim import simulate_pipeline
from repro.hw.gpusim import simulate_corun
from repro.models import alexnet_spec, diagnosis_spec


@pytest.fixture(scope="module")
def nets():
    inf = alexnet_spec()
    return inf, diagnosis_spec(inf)


@pytest.fixture(scope="module")
def wss_timing(nets):
    inf, diag = nets
    return best_design(
        "WSS-NWS", inf, diag, VX690T, latency_requirement_s=0.2, max_batch=32
    )


class TestPipelineSim:
    def test_steady_throughput_matches_eq13(self, nets, wss_timing):
        inf, diag = nets
        result = simulate_pipeline(wss_timing.design, inf, diag, VX690T)
        steady = result.steady_state_throughput_ips(
            2, wss_timing.design.batch_size
        )
        assert steady == pytest.approx(wss_timing.throughput_ips, rel=0.1)

    def test_service_latency_bounded_by_eq13(self, nets, wss_timing):
        """Eq. (13)'s 2x-period latency bounds the simulated per-image
        service latency (conv start -> FCN done)."""
        inf, diag = nets
        result = simulate_pipeline(wss_timing.design, inf, diag, VX690T)
        assert result.max_service_latency_s <= wss_timing.latency_s * 1.05

    def test_backlog_queueing_exceeds_service(self, nets, wss_timing):
        """With everything arriving at t=0, sojourn latency >> service."""
        inf, diag = nets
        result = simulate_pipeline(wss_timing.design, inf, diag, VX690T)
        # Arrival is t=0, so an image's sojourn ends at its FCN completion.
        sojourn = max(t.fcn_done_s for t in result.traces)
        assert sojourn > result.max_service_latency_s

    def test_traces_complete_and_ordered(self, nets, wss_timing):
        inf, diag = nets
        result = simulate_pipeline(wss_timing.design, inf, diag, VX690T)
        assert result.images == 64
        for trace in result.traces:
            assert (
                0.0
                <= trace.conv_start_s
                <= trace.conv_done_s
                <= trace.fcn_done_s
            )


class TestCoRunSim:
    def test_reproduces_paper_3x_at_batched_diagnosis(self, nets):
        """At the paper's batched-diagnosis operating point, kernel-level
        interleaving yields ~3X inference slowdown."""
        inf, diag = nets
        result = simulate_corun(inf, diag, TX1, diagnosis_batch=16)
        assert 2.3 < result.inference_slowdown < 3.8

    def test_slowdown_grows_with_diagnosis_batch(self, nets):
        """Longer non-preemptible diagnosis kernels block inference more —
        the mechanism behind the measured interference."""
        inf, diag = nets
        slowdowns = [
            simulate_corun(
                inf, diag, TX1, diagnosis_batch=b
            ).inference_slowdown
            for b in (1, 8, 32)
        ]
        assert slowdowns == sorted(slowdowns)

    def test_material_interference_agrees_with_analytical(self, nets):
        """Both models agree interference is severe (>1.5X) at a moderate
        operating point, even though they disagree on the fine structure."""
        inf, diag = nets
        sim = simulate_corun(inf, diag, TX1, diagnosis_batch=8)
        ana = co_running_latency(inf, diag, TX1)
        assert sim.inference_slowdown > 1.5
        assert ana.inference_slowdown > 1.5

    def test_solo_latency_matches_model(self, nets):
        from repro.hw.gpu import network_time

        inf, diag = nets
        result = simulate_corun(inf, diag, TX1, diagnosis_batch=8)
        assert result.inference_solo_s == pytest.approx(
            network_time(inf, TX1, 1).total_s
        )
