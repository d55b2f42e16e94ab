"""Topology data model: validation and builders."""

from __future__ import annotations

import pytest

from repro.comm import FIBER, LAN
from repro.topology import AggregationPolicy, GatewayProfile, Topology


class TestGatewayProfile:
    def test_links_resolve(self):
        g = GatewayProfile(gateway_id=0, child_ids=(0, 1))
        assert g.local_link is LAN
        assert g.wan_link is FIBER

    def test_no_children_rejected(self):
        with pytest.raises(ValueError, match="no children"):
            GatewayProfile(gateway_id=0, child_ids=())

    def test_duplicate_child_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            GatewayProfile(gateway_id=0, child_ids=(1, 1))


class TestAggregationPolicy:
    def test_bounds(self):
        with pytest.raises(ValueError):
            AggregationPolicy(flush_images=0)
        with pytest.raises(ValueError):
            AggregationPolicy(max_age_stages=0)


class TestTopology:
    def test_fan_out_blocks(self):
        top = Topology.fan_out(5, 2)
        assert [g.child_ids for g in top.gateways] == [(0, 1), (2, 3), (4,)]
        assert top.node_ids == (0, 1, 2, 3, 4)

    def test_gateway_of(self):
        top = Topology.fan_out(4, 2)
        assert top.gateway_of(3).gateway_id == 1
        with pytest.raises(KeyError):
            top.gateway_of(9)

    def test_duplicate_node_claim_rejected(self):
        with pytest.raises(ValueError, match="more than one gateway"):
            Topology(
                gateways=(
                    GatewayProfile(gateway_id=0, child_ids=(0, 1)),
                    GatewayProfile(gateway_id=1, child_ids=(1, 2)),
                )
            )

    def test_duplicate_gateway_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate gateway ids"):
            Topology(
                gateways=(
                    GatewayProfile(gateway_id=0, child_ids=(0,)),
                    GatewayProfile(gateway_id=0, child_ids=(1,)),
                )
            )

    def test_second_opinion_fraction_bounds(self):
        with pytest.raises(ValueError, match="second_opinion_fraction"):
            Topology.fan_out(2, 2, second_opinion_fraction=1.5)

    def test_unknown_canary_gateway_rejected(self):
        with pytest.raises(ValueError, match="canary gateway"):
            Topology.fan_out(4, 2, canary_gateway_id=7)

    def test_canary_defaults_to_first_gateway(self):
        top = Topology.fan_out(4, 2)
        assert top.canary_node_ids == (0, 1)

    def test_canary_gateway_selects_region(self):
        top = Topology.fan_out(4, 2, canary_gateway_id=1)
        assert top.canary_node_ids == (2, 3)

    def test_validate_for_checks_node_cover(self):
        class P:
            def __init__(self, node_id):
                self.node_id = node_id

        top = Topology.fan_out(4, 2)
        top.validate_for([P(i) for i in range(4)])
        with pytest.raises(ValueError, match="topology covers"):
            top.validate_for([P(i) for i in range(3)])

