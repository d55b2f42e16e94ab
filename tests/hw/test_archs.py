"""Co-running architectures: the Fig. 22 ordering and weight traffic."""

from __future__ import annotations

import pytest

from repro.hw import VX690T, NWSArch, WSArch, WSSArch
from repro.models import alexnet_spec, diagnosis_spec

BUDGET = 2628  # PE count used in the paper's Fig. 22 experiment


@pytest.fixture
def nets():
    inf = alexnet_spec()
    return inf, diagnosis_spec(inf)


@pytest.fixture
def archs(nets):
    inf, _ = nets
    return {
        "NWS": NWSArch(BUDGET, shape_for=inf.conv_layers),
        "WS": WSArch(BUDGET, shape_for=inf.conv_layers),
        "WSS": WSSArch(BUDGET),
    }


class TestBudgets:
    def test_pe_counts_within_budget(self, archs):
        for arch in archs.values():
            assert arch.pe_count <= BUDGET
            assert arch.pe_count > 0.8 * BUDGET  # budget actually used

    def test_wss_group_size(self, nets):
        arch = WSSArch(BUDGET)
        # 196 + 9*49 = 637 PEs per unit -> 4 units fit in 2628.
        assert arch.group_size == 4

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            WSSArch(100)
        with pytest.raises(ValueError):
            WSArch(5)


class TestFig22Ordering:
    def test_compute_ordering_wss_best_ws_worst(self, nets, archs):
        inf, diag = nets
        times = {
            name: arch.conv_runtime(inf, diag, VX690T).compute_s
            for name, arch in archs.items()
        }
        assert times["WSS"] < times["NWS"] < times["WS"]

    def test_ws_diagnosis_idles_about_75_percent(self, nets, archs):
        """Uniform unrolling leaves diagnosis engines idle ~75% of cycles."""
        inf, diag = nets
        rt = archs["WS"].conv_runtime(inf, diag, VX690T)
        assert 0.65 < rt.diagnosis_idle_fraction < 0.85

    def test_wss_engines_balanced(self, nets, archs):
        """Output-proportional sizing removes the idleness."""
        inf, diag = nets
        rt = archs["WSS"].conv_runtime(inf, diag, VX690T)
        assert rt.diagnosis_idle_fraction < 0.1


class TestWeightTraffic:
    def test_access_decreases_with_shared_depth(self, nets, archs):
        inf, diag = nets
        for name in ("WS", "WSS"):
            times = [
                archs[name]
                .conv_runtime(inf, diag, VX690T, shared_depth=d)
                .weight_access_s
                for d in (0, 3, 5)
            ]
            assert times[0] > times[1] > times[2]

    def test_nws_access_flat_in_shared_depth(self, nets, archs):
        """No weight sharing: NWS fetches twice regardless of strategy."""
        inf, diag = nets
        times = {
            d: archs["NWS"]
            .conv_runtime(inf, diag, VX690T, shared_depth=d)
            .weight_access_s
            for d in (0, 3, 5)
        }
        assert times[0] == times[3] == times[5]

    def test_wss_access_never_exceeds_nws(self, nets, archs):
        inf, diag = nets
        for depth in (0, 3, 5):
            wss = archs["WSS"].conv_runtime(inf, diag, VX690T, shared_depth=depth)
            nws = archs["NWS"].conv_runtime(inf, diag, VX690T, shared_depth=depth)
            assert wss.weight_access_s <= nws.weight_access_s


class TestValidation:
    def test_mismatched_stacks_rejected(self, archs):
        from repro.models import vgg16_spec

        inf = alexnet_spec()
        with pytest.raises(ValueError):
            archs["WSS"].conv_runtime(inf, vgg16_spec(), VX690T)
