"""Property-style checks on pipeline designs across random configurations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import VX690T, TmTnEngine, WSSArch
from repro.hw.pipeline import PipelineDesign, pipeline_timing
from repro.models import alexnet_spec, diagnosis_spec


@pytest.fixture(scope="module")
def nets():
    inf = alexnet_spec()
    return inf, diagnosis_spec(inf)


def make_design(batch, conv_budget, fcn_budget, nets):
    inf, _ = nets
    return PipelineDesign(
        arch_name="WSS-NWS",
        conv_arch=WSSArch(conv_budget),
        fcn_engine=TmTnEngine.best_for(inf.fc_layers, fcn_budget),
        batch_size=batch,
        fcn_batch_optimized=True,
    )


class TestPipelineInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 32),
        conv_budget=st.integers(700, 3000),
        fcn_budget=st.integers(64, 1024),
    )
    def test_eq13_identities(self, batch, conv_budget, fcn_budget):
        inf = alexnet_spec()
        diag = diagnosis_spec(inf)
        design = make_design(batch, conv_budget, fcn_budget, (inf, diag))
        timing = pipeline_timing(design, inf, diag, VX690T)
        assert timing.period_s == max(
            timing.conv_stage_s, timing.fcn_stage_s
        )
        assert timing.latency_s == pytest.approx(2 * timing.period_s)
        assert timing.throughput_ips == pytest.approx(
            batch / timing.period_s
        )

    def test_conv_stage_linear_in_batch(self, nets):
        inf, diag = nets
        t1 = pipeline_timing(
            make_design(1, 2548, 512, nets), inf, diag, VX690T
        )
        t8 = pipeline_timing(
            make_design(8, 2548, 512, nets), inf, diag, VX690T
        )
        assert t8.conv_stage_s == pytest.approx(8 * t1.conv_stage_s)

    def test_fcn_stage_sublinear_in_batch_with_optimization(self, nets):
        """Weight reuse: doubling the batch must not double FCN time."""
        inf, diag = nets
        t1 = pipeline_timing(
            make_design(1, 2548, 512, nets), inf, diag, VX690T
        )
        t8 = pipeline_timing(
            make_design(8, 2548, 512, nets), inf, diag, VX690T
        )
        assert t8.fcn_stage_s < 2 * t1.fcn_stage_s
