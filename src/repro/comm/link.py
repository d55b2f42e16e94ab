"""Cloud <-> node network link model.

The paper's data-movement and energy claims (Table II, Fig. 25) rest on how
many bytes travel from the IoT node to the Cloud.  :class:`NetworkLink`
converts image counts into transfer time and energy using per-byte costs
typical of the radios an edge node would use.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NetworkLink",
    "WIFI",
    "LTE",
    "LAN",
    "FIBER",
    "JPEG_IMAGE_BYTES",
]

#: typical camera-trap JPEG at modest resolution
JPEG_IMAGE_BYTES = 150_000


@dataclass(frozen=True)
class NetworkLink:
    """A node-to-cloud uplink.

    ``energy_per_byte_j`` is the *node-side* radio energy; transfer energy
    is what the battery pays for every uploaded image.
    """

    name: str
    bandwidth_bps: float
    latency_s: float
    energy_per_byte_j: float

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0 or self.energy_per_byte_j < 0:
            raise ValueError("latency and energy must be >= 0")

    def transfer_time_s(self, num_bytes: int) -> float:
        """Seconds to push ``num_bytes`` upstream (one logical transfer)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        if num_bytes == 0:
            return 0.0
        return self.latency_s + num_bytes * 8.0 / self.bandwidth_bps

    def transfer_energy_j(self, num_bytes: int) -> float:
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        return num_bytes * self.energy_per_byte_j

    def image_upload_energy_j(self, images: int) -> float:
        return self.transfer_energy_j(images * JPEG_IMAGE_BYTES)

    def model_push_time_s(self, model_bytes: int) -> float:
        """Seconds to push an updated model *down* to the node.

        Fig. 25-style comparisons that only count uploads silently ignore
        deployment traffic; every model push-down travels the same radio,
        at the same rate as the uplink.
        """
        if model_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        if model_bytes == 0:
            return 0.0
        return self.latency_s + model_bytes * 8.0 / self.bandwidth_bps

    def model_push_energy_j(self, model_bytes: int) -> float:
        """Node-side radio energy to receive a pushed-down model."""
        return self.transfer_energy_j(model_bytes)


#: 802.11n-class uplink: 20 Mbit/s sustained, ~100 nJ/byte at the radio
WIFI = NetworkLink(
    name="WiFi", bandwidth_bps=20e6, latency_s=0.05, energy_per_byte_j=100e-9
)

#: LTE Cat-4 uplink: 10 Mbit/s sustained, radios cost more per byte
LTE = NetworkLink(
    name="LTE", bandwidth_bps=10e6, latency_s=0.12, energy_per_byte_j=350e-9
)

#: edge->gateway hop: wired/short-range Ethernet-class, cheap per byte
LAN = NetworkLink(
    name="LAN", bandwidth_bps=100e6, latency_s=0.002, energy_per_byte_j=5e-9
)

#: gateway->cloud backhaul: fibre-class WAN uplink
FIBER = NetworkLink(
    name="Fiber", bandwidth_bps=200e6, latency_s=0.01, energy_per_byte_j=20e-9
)
