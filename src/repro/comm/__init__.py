"""Cloud <-> node communication substrate."""

from repro.comm.link import (
    FIBER,
    JPEG_IMAGE_BYTES,
    LAN,
    LTE,
    WIFI,
    NetworkLink,
)
from repro.comm.movement import DataMovementLedger, LedgerTotals, StageMovement

__all__ = [
    "DataMovementLedger",
    "FIBER",
    "JPEG_IMAGE_BYTES",
    "LAN",
    "LTE",
    "LedgerTotals",
    "NetworkLink",
    "StageMovement",
    "WIFI",
]
