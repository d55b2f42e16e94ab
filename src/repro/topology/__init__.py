"""Hierarchical edge -> gateway -> cloud fleet tier.

The pure shape lives in :mod:`repro.topology.model`; gateway-side state
and policy (upload buffers, the second-opinion model, when to flush) in
:mod:`repro.topology.gateway`; and the gateway tier that
``run_fleet_event``'s event engine drives in :mod:`repro.topology.event`.
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
