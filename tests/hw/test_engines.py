"""FPGA engine cycle models."""

from __future__ import annotations

import math

import pytest

from repro.hw import PEArrayEngine, TmTnEngine, square_factors
from repro.models import alexnet_spec
from repro.models.layer_specs import LayerSpec


class TestSquareFactors:
    def test_perfect_square(self):
        assert square_factors(64) == (8, 8)

    def test_uses_budget_well(self):
        a, b = square_factors(2628)
        assert a * b <= 2628
        assert a * b >= 0.9 * 2628

    def test_one(self):
        assert square_factors(1) == (1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            square_factors(0)


class TestTmTnEngine:
    def test_pe_count(self):
        assert TmTnEngine(16, 8).pe_count == 128

    def test_utilization_eq4(self):
        """Eq. (4): N*M / (Tn*Tm*ceil(N/Tn)*ceil(M/Tm))."""
        engine = TmTnEngine(tm=10, tn=10)
        layer = LayerSpec("c", "conv", 15, 15, 3, 8, 8)
        expected = (15 * 15) / (100 * 2 * 2)
        assert engine.utilization(layer) == pytest.approx(expected)

    def test_utilization_batch_independent(self):
        """The paper's key FPGA observation: Eq. (4) has no batch term, so
        conv energy-efficiency is flat across batch sizes (Fig. 14)."""
        engine = TmTnEngine(16, 16)
        layer = alexnet_spec().layer("conv2")
        c1 = engine.conv_cycles(layer, 1)
        c8 = engine.conv_cycles(layer, 8)
        assert c8 == 8 * c1  # per-image cycles identical

    def test_conv_cycles_formula(self):
        engine = TmTnEngine(8, 4)
        layer = LayerSpec("c", "conv", 16, 8, 3, 5, 5)
        expected = math.ceil(16 / 8) * math.ceil(8 / 4) * 9 * 25
        assert engine.conv_cycles(layer) == expected

    def test_fc_cycles_eq12(self):
        engine = TmTnEngine(8, 8)
        layer = LayerSpec("fc", "fc", 64, 32, 1, 1, 1)
        assert engine.fc_compute_cycles(layer, 4) == 8 * 4 * 4

    def test_fc_cycles_rejects_conv(self):
        engine = TmTnEngine(8, 8)
        with pytest.raises(ValueError):
            engine.fc_compute_cycles(alexnet_spec().layer("conv1"))

    def test_best_for_beats_square(self):
        """The design-space search must be at least as good as the naive
        square engine on the target stack (conv1's N=3 punishes Tn=51)."""
        layers = alexnet_spec().conv_layers
        budget = 2601
        tuned = TmTnEngine.best_for(layers, budget)
        naive = TmTnEngine.from_budget(budget)
        tuned_cycles = sum(tuned.conv_cycles(s) for s in layers)
        naive_cycles = sum(naive.conv_cycles(s) for s in layers)
        assert tuned_cycles <= naive_cycles
        assert tuned.pe_count <= budget

    def test_best_for_empty_layers(self):
        with pytest.raises(ValueError):
            TmTnEngine.best_for([], 100)


class TestPEArrayEngine:
    def test_pe_count(self):
        assert PEArrayEngine(14, 14).pe_count == 196

    def test_cycles_per_map_eq11(self):
        engine = PEArrayEngine(14, 14)
        layer = LayerSpec("c", "conv", 96, 3, 11, 55, 55, stride=4)
        expected = 3 * 121 * math.ceil(55 / 14) * math.ceil(55 / 14)
        assert engine.conv_cycles_per_map(layer) == expected

    def test_parallel_maps_divide_work(self):
        engine = PEArrayEngine(14, 14)
        layer = alexnet_spec().layer("conv3")
        assert engine.conv_cycles(layer, parallel_maps=4) < engine.conv_cycles(
            layer, parallel_maps=1
        )

    def test_half_size_engine_matches_quarter_load(self):
        """The WSS balance: a Tr/2 x Tc/2 engine on a half-size output map
        takes the same cycles as the full engine on the full map."""
        full = PEArrayEngine(14, 14)
        half = PEArrayEngine(7, 7)
        inf_layer = LayerSpec("c", "conv", 96, 3, 11, 55, 55, stride=4)
        diag_layer = LayerSpec("c", "conv", 96, 3, 11, 28, 28, stride=4)
        assert full.conv_cycles_per_map(inf_layer) == half.conv_cycles_per_map(
            diag_layer
        )

    def test_utilization_edge_waste(self):
        engine = PEArrayEngine(14, 14)
        layer = LayerSpec("c", "conv", 8, 4, 3, 55, 55)
        # 55 = 3*14 + 13: edge tiles waste PEs, so the PE-cycles spent
        # exceed the useful MACs.
        pe_cycles = engine.conv_cycles_per_map(layer) * engine.pe_count
        useful = layer.in_maps * layer.kernel**2 * 55 * 55
        assert useful < pe_cycles < 2 * useful

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PEArrayEngine(0, 14)
