"""GPU co-running interference model (Fig. 16)."""

from __future__ import annotations

import pytest

from repro.hw import TX1, co_running_latency
from repro.models import alexnet_spec, diagnosis_spec


@pytest.fixture
def nets():
    inf = alexnet_spec()
    return inf, diagnosis_spec(inf)


class TestInterference:
    def test_corun_slower_than_solo(self, nets):
        inf, diag = nets
        result = co_running_latency(inf, diag, TX1)
        assert result.inference_corun_s > result.inference_solo_s
        assert result.diagnosis_corun_s > result.diagnosis_solo_s

    def test_fig16_up_to_3x_slowdown(self, nets):
        """The paper measures up to 3X inference slowdown on the GPU."""
        inf, diag = nets
        result = co_running_latency(inf, diag, TX1, diagnosis_duty=1.0)
        assert 2.0 < result.inference_slowdown < 4.0

    def test_duty_scales_interference(self, nets):
        inf, diag = nets
        light = co_running_latency(inf, diag, TX1, diagnosis_duty=0.2)
        heavy = co_running_latency(inf, diag, TX1, diagnosis_duty=1.0)
        assert light.inference_slowdown < heavy.inference_slowdown

    def test_zero_duty_no_interference(self, nets):
        inf, diag = nets
        result = co_running_latency(inf, diag, TX1, diagnosis_duty=0.0)
        assert result.inference_slowdown == pytest.approx(1.0)
        assert result.diagnosis_corun_s == pytest.approx(result.diagnosis_solo_s)

    def test_invalid_duty(self, nets):
        inf, diag = nets
        with pytest.raises(ValueError):
            co_running_latency(inf, diag, TX1, diagnosis_duty=1.5)

    def test_slowdowns_conserve_demand(self, nets):
        """Fair sharing: 1/slowdown_inf + 1/slowdown_diag == 1."""
        inf, diag = nets
        result = co_running_latency(inf, diag, TX1)
        diagnosis_slowdown = result.diagnosis_corun_s / result.diagnosis_solo_s
        shares = 1 / result.inference_slowdown + 1 / diagnosis_slowdown
        assert shares == pytest.approx(1.0)
