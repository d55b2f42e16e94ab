"""Hierarchical edge -> gateway -> cloud fleet tier.

The pure shape lives in :mod:`repro.topology.model`; gateway-side state
and policy (upload buffers, the second-opinion model, when to flush) in
:mod:`repro.topology.gateway`; the gateway uplink tier that
``run_fleet``'s one lockstep stage loop drives in
:mod:`repro.topology.lockstep`; and the gateway tier that
``run_fleet_event``'s one event engine drives in
:mod:`repro.topology.event`.  Users pass a :class:`Topology` to
``run_fleet(..., topology=...)`` or ``run_fleet_event(..., topology=...)``
rather than importing either directly.
"""

from repro.topology.gateway import (
    BufferedUpload,
    GatewayBuffer,
    GatewayStageRecord,
    SecondOpinion,
    SecondOpinionResult,
)
from repro.topology.model import AggregationPolicy, GatewayProfile, Topology

__all__ = [
    "AggregationPolicy",
    "BufferedUpload",
    "GatewayBuffer",
    "GatewayProfile",
    "GatewayStageRecord",
    "SecondOpinion",
    "SecondOpinionResult",
    "Topology",
]
