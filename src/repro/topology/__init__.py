"""Hierarchical edge -> gateway -> cloud fleet tier.

The pure shape lives in :mod:`repro.topology.model`; the gateway-side
pieces (upload buffers with their aggregation rule, the second-opinion
model) in :mod:`repro.topology.gateway`; and the one gateway tier class
that ``run_fleet_event``'s event engine drives, which decides when those
pieces run and moves the bytes, in :mod:`repro.topology.event`.
Hierarchical fleets run only on the event engine: users pass a
:class:`Topology` to ``run_fleet_event(..., topology=...)``, with
``barrier=True`` for the lockstep reference, rather than importing the
tier directly.
"""

from repro.topology.gateway import (
    BufferedUpload,
    GatewayBuffer,
    SecondOpinion,
    SecondOpinionResult,
)
from repro.topology.model import AggregationPolicy, GatewayProfile, Topology

__all__ = [
    "AggregationPolicy",
    "BufferedUpload",
    "GatewayBuffer",
    "GatewayProfile",
    "SecondOpinion",
    "SecondOpinionResult",
    "Topology",
]
