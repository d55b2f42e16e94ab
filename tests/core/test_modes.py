"""Working-mode planners."""

from __future__ import annotations

import pytest

from repro.core import CoRunningPlanner, SingleRunningPlanner, select_mode
from repro.hw import TX1, VX690T
from repro.hw.gpu import network_time
from repro.models import alexnet_spec, diagnosis_spec


@pytest.fixture
def nets():
    inf = alexnet_spec()
    return inf, diagnosis_spec(inf)


class TestSelectMode:
    def test_always_on_uses_fpga_corunning(self):
        assert select_mode(inference_always_on=True) == "co-running"

    def test_intermittent_uses_gpu_single(self):
        assert select_mode(inference_always_on=False) == "single-running"


class TestSingleRunningPlanner:
    @pytest.fixture
    def planner(self):
        return SingleRunningPlanner(TX1)

    def test_batch_meets_latency(self, planner, nets):
        inf, _ = nets
        batch = planner.inference_batch(inf, latency_requirement_s=0.1)
        assert network_time(inf, TX1, batch).total_s <= 0.1
        assert network_time(inf, TX1, batch + 1).total_s > 0.1

    def test_looser_requirement_bigger_batch(self, planner, nets):
        inf, _ = nets
        strict = planner.inference_batch(inf, latency_requirement_s=0.033)
        loose = planner.inference_batch(inf, latency_requirement_s=0.5)
        assert loose > strict

    def test_infeasible_latency_raises(self, planner, nets):
        inf, _ = nets
        with pytest.raises(ValueError):
            planner.inference_batch(inf, latency_requirement_s=1e-6)

    def test_diagnosis_batch_fits_memory(self, planner, nets):
        _, diag = nets
        from repro.hw.gpu import memory_required

        batch = planner.diagnosis_batch(diag)
        assert memory_required(diag, batch) <= TX1.mem_capacity_bytes

    def test_plan_bundles_everything(self, planner, nets):
        inf, diag = nets
        config = planner.plan(inf, diag, latency_requirement_s=0.1)
        assert config.inference_batch >= 1
        assert config.inference_latency_s <= 0.1
        assert config.diagnosis_batch > config.inference_batch
        assert config.inference_perf_per_watt > 0


class TestCoRunningPlanner:
    def test_plan_meets_requirement(self, nets):
        inf, diag = nets
        planner = CoRunningPlanner(VX690T)
        timing = planner.plan(inf, diag, latency_requirement_s=0.2)
        assert timing.latency_s <= 0.2
        assert timing.design.arch_name == "WSS-NWS"

    def test_infeasible_raises(self, nets):
        inf, diag = nets
        planner = CoRunningPlanner(VX690T)
        with pytest.raises(ValueError):
            planner.plan(inf, diag, latency_requirement_s=1e-6)
