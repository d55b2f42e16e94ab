"""The four deep-learning IoT system variants of Fig. 24.

All four share the unsupervised-pretraining Cloud; they differ in *where*
diagnosis runs and *whether* transfer learning exploits weight sharing:

====  ==========================  ==================  ===============
id    name                        diagnosis location  weight sharing
====  ==========================  ==================  ===============
a     traditional                 none (upload all)   no
b     cloud-diagnosis             cloud               no
c     node-diagnosis              node                no
d     In-situ AI (this paper)     node                yes (CONV-3)
====  ==========================  ==================  ===============

System *a* uploads and trains on everything.  System *b* still uploads
everything but the Cloud trains only on the valuable subset.  System *c*
moves diagnosis to the node, cutting uploads.  System *d* additionally
freezes the shared conv layers during updates, cutting Cloud work again.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SystemConfig", "SYSTEMS", "system_by_id"]


@dataclass(frozen=True)
class SystemConfig:
    """Policy knobs distinguishing the Fig. 24 variants."""

    system_id: str
    name: str
    diagnosis_location: str  # "none" | "cloud" | "node"
    weight_shared: bool

    def __post_init__(self) -> None:
        if self.diagnosis_location not in ("none", "cloud", "node"):
            raise ValueError(
                f"bad diagnosis location {self.diagnosis_location!r}"
            )

    @property
    def uploads_everything(self) -> bool:
        """Systems without node diagnosis must ship all raw data up."""
        return self.diagnosis_location != "node"


SYSTEMS: tuple[SystemConfig, ...] = (
    SystemConfig("a", "traditional", "none", weight_shared=False),
    SystemConfig("b", "cloud-diagnosis", "cloud", weight_shared=False),
    SystemConfig("c", "node-diagnosis", "node", weight_shared=False),
    SystemConfig("d", "in-situ-ai", "node", weight_shared=True),
)


def system_by_id(system_id: str) -> SystemConfig:
    for config in SYSTEMS:
        if config.system_id == system_id:
            return config
    raise KeyError(
        f"unknown system {system_id!r}; available: "
        f"{[c.system_id for c in SYSTEMS]}"
    )
