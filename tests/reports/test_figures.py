"""Report sweeps: row schemas and cross-checks against the models."""

from __future__ import annotations

import pytest

from repro.hw import TX1
from repro.hw.gpu import network_time
from repro.models import alexnet_spec
from repro.reports import (
    engine_search_rows,
    fig11_rows,
    fig12_rows,
    fig15_rows,
    fig16_rows,
    fig22_rows,
)


class TestFig11Rows:
    def test_row_schema(self):
        rows = fig11_rows()
        assert len(rows) == 7
        for row in rows:
            assert set(row) == {
                "batch", "gpu_latency_ms", "gpu_ppw",
                "fpga_latency_ms", "fpga_ppw",
            }

    def test_matches_gpu_model(self):
        rows = fig11_rows()
        net = alexnet_spec()
        for row in rows:
            expected = network_time(net, TX1, row["batch"]).total_s * 1e3
            assert row["gpu_latency_ms"] == pytest.approx(expected)


class TestFig12Rows:
    def test_fractions_in_unit_interval(self):
        for row in fig12_rows():
            assert 0.0 < row["gpu_fc_frac"] < 1.0
            assert 0.0 < row["fpga_fc_frac"] < 1.0


class TestFig15Rows:
    def test_fpga_column_constant(self):
        rows = fig15_rows()
        assert len({r["fpga_conv3"] for r in rows}) == 1


class TestFig16Rows:
    def test_duty_zero_first(self):
        rows = fig16_rows()
        assert rows[0]["duty"] == 0.0
        assert rows[0]["result"].inference_slowdown == pytest.approx(1.0)


class TestFig22Rows:
    def test_nine_rows(self):
        rows = fig22_rows()
        assert len(rows) == 9
        assert {r["arch"] for r in rows} == {"NWS", "WS", "WSS"}


class TestEngineSearchRows:
    def test_gains_at_least_one(self):
        for row in engine_search_rows(budgets=(512,)):
            assert row["gain"] >= 1.0
