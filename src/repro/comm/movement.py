"""Data-movement accounting across incremental update stages."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StageMovement", "LedgerTotals", "DataMovementLedger"]


@dataclass(frozen=True)
class StageMovement:
    """Bytes and images moved during one acquisition stage.

    ``downloaded_bytes`` counts cloud->node traffic (model push-downs);
    uploads remain image-denominated because that is what the node ships.
    """

    stage_index: int
    acquired_images: int
    uploaded_images: int
    image_bytes: int
    downloaded_bytes: int = 0

    @property
    def upload_fraction(self) -> float:
        if self.acquired_images == 0:
            return 0.0
        return self.uploaded_images / self.acquired_images


@dataclass(frozen=True)
class LedgerTotals:
    """Immutable snapshot of a ledger's totals.

    Taken mid-run (:meth:`DataMovementLedger.snapshot`) this is a
    consistent point-in-time view.
    """

    stages_recorded: int
    acquired_images: int
    uploaded_images: int
    uploaded_bytes: int
    downloaded_bytes: int
    #: per-tier attribution; all zero for flat (single-hop) runs, which
    #: never call :meth:`DataMovementLedger.record_tier`.
    edge_to_gateway_bytes: int = 0
    gateway_to_cloud_bytes: int = 0
    gateway_to_edge_bytes: int = 0
    cloud_to_gateway_bytes: int = 0
    edge_transfer_events: int = 0
    wan_transfer_events: int = 0
    transfer_overhead_bytes: int = 0


@dataclass
class DataMovementLedger:
    """Accumulates per-stage upload records for one IoT system run.

    The normalized-per-stage view is what the paper's Table II reports:
    each stage's uploads divided by that stage's acquisitions (systems that
    upload everything are the ``1.0`` rows).

    The image and download totals are sums over ``stages``, read once a
    run ends; the tier counters of :meth:`record_tier` are not in the
    rows, so they run alongside.  :meth:`snapshot` freezes all of them
    into an immutable :class:`LedgerTotals`.
    """

    image_bytes: int
    stages: list[StageMovement] = field(default_factory=list)
    _edge_to_gateway_bytes: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _gateway_to_cloud_bytes: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _gateway_to_edge_bytes: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _cloud_to_gateway_bytes: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _edge_transfer_events: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _wan_transfer_events: int = field(
        default=0, init=False, repr=False, compare=False
    )
    _transfer_overhead_bytes: int = field(
        default=0, init=False, repr=False, compare=False
    )

    def record(
        self, stage_index: int, acquired: int, uploaded: int
    ) -> StageMovement:
        """Account one stage's acquired and uploaded images.

        Model pushes are :meth:`record_download`'s.
        """
        if uploaded > acquired:
            raise ValueError(
                f"stage {stage_index}: uploaded {uploaded} exceeds acquired {acquired}"
            )
        if acquired < 0 or uploaded < 0:
            raise ValueError("counts must be >= 0")
        movement = StageMovement(
            stage_index=stage_index,
            acquired_images=acquired,
            uploaded_images=uploaded,
            image_bytes=self.image_bytes,
        )
        self.stages.append(movement)
        return movement

    def record_download(self, stage_index: int, num_bytes: int) -> StageMovement:
        """Account cloud->node traffic (model push-down) for a stage.

        Merges into the stage's existing upload record when one exists, so
        Table II's per-stage rows keep one entry per stage.
        """
        if num_bytes < 0:
            raise ValueError("counts must be >= 0")
        for i in range(len(self.stages) - 1, -1, -1):
            entry = self.stages[i]
            if entry.stage_index == stage_index:
                merged = StageMovement(
                    stage_index=entry.stage_index,
                    acquired_images=entry.acquired_images,
                    uploaded_images=entry.uploaded_images,
                    image_bytes=entry.image_bytes,
                    downloaded_bytes=entry.downloaded_bytes + num_bytes,
                )
                self.stages[i] = merged
                return merged
        movement = StageMovement(
            stage_index=stage_index,
            acquired_images=0,
            uploaded_images=0,
            image_bytes=self.image_bytes,
            downloaded_bytes=num_bytes,
        )
        self.stages.append(movement)
        return movement

    def record_tier(
        self,
        stage_index: int,
        *,
        edge_up_bytes: int = 0,
        wan_up_bytes: int = 0,
        edge_down_bytes: int = 0,
        wan_down_bytes: int = 0,
        edge_up_transfers: int = 0,
        wan_up_transfers: int = 0,
        overhead_bytes: int = 0,
    ) -> None:
        """Attribute traffic to a topology tier for one stage.

        This is an additive overlay: it does not touch the stage list or
        the image-denominated totals, so flat runs (which never call it)
        keep byte-identical :meth:`snapshot` output and the tier fields
        report zero.  ``edge`` means the edge->gateway hop, ``wan`` the
        gateway->cloud hop; ``down`` variants count push-down traffic in
        the reverse direction on the same hop.
        """
        if min(
            edge_up_bytes,
            wan_up_bytes,
            edge_down_bytes,
            wan_down_bytes,
            edge_up_transfers,
            wan_up_transfers,
            overhead_bytes,
        ) < 0:
            raise ValueError("counts must be >= 0")
        if stage_index < 0:
            raise ValueError("stage_index must be >= 0")
        self._edge_to_gateway_bytes += edge_up_bytes
        self._gateway_to_cloud_bytes += wan_up_bytes
        self._gateway_to_edge_bytes += edge_down_bytes
        self._cloud_to_gateway_bytes += wan_down_bytes
        self._edge_transfer_events += edge_up_transfers
        self._wan_transfer_events += wan_up_transfers
        self._transfer_overhead_bytes += overhead_bytes

    def snapshot(self) -> LedgerTotals:
        """Freeze the totals into an immutable point-in-time view."""
        return LedgerTotals(
            stages_recorded=len(self.stages),
            acquired_images=self.total_acquired_images,
            uploaded_images=self.total_uploaded_images,
            uploaded_bytes=self.total_uploaded_bytes,
            downloaded_bytes=self.total_downloaded_bytes,
            edge_to_gateway_bytes=self._edge_to_gateway_bytes,
            gateway_to_cloud_bytes=self._gateway_to_cloud_bytes,
            gateway_to_edge_bytes=self._gateway_to_edge_bytes,
            cloud_to_gateway_bytes=self._cloud_to_gateway_bytes,
            edge_transfer_events=self._edge_transfer_events,
            wan_transfer_events=self._wan_transfer_events,
            transfer_overhead_bytes=self._transfer_overhead_bytes,
        )

    @property
    def total_uploaded_bytes(self) -> int:
        return self.total_uploaded_images * self.image_bytes

    @property
    def total_downloaded_bytes(self) -> int:
        return sum(s.downloaded_bytes for s in self.stages)

    @property
    def total_bytes_moved(self) -> int:
        """Uplink + downlink traffic across every recorded stage."""
        return self.total_uploaded_bytes + self.total_downloaded_bytes

    @property
    def total_uploaded_images(self) -> int:
        return sum(s.uploaded_images for s in self.stages)

    @property
    def total_acquired_images(self) -> int:
        return sum(s.acquired_images for s in self.stages)

    def normalized_per_stage(self) -> list[float]:
        """Table II rows: per-stage upload fraction."""
        return [s.upload_fraction for s in self.stages]

    def overall_reduction_vs_full(self) -> float:
        """Fraction of data movement avoided relative to uploading all data."""
        acquired = self.total_acquired_images
        if acquired == 0:
            return 0.0
        return 1.0 - self.total_uploaded_images / acquired
