"""Data-movement ledger tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import DataMovementLedger


@pytest.fixture
def ledger():
    return DataMovementLedger(image_bytes=1000)


class TestLedger:
    def test_record_and_totals(self, ledger):
        ledger.record(0, acquired=100, uploaded=100)
        ledger.record(1, acquired=100, uploaded=72)
        assert ledger.total_acquired_images == 200
        assert ledger.total_uploaded_images == 172
        assert ledger.total_uploaded_bytes == 172_000

    def test_normalized_per_stage_matches_table2_shape(self, ledger):
        """The paper's Table II row c/d: 1, 0.72, 0.51, 0.35, 0.29."""
        acquired = [100, 100, 200, 400, 400]
        uploaded = [100, 72, 102, 140, 116]
        for i, (a, u) in enumerate(zip(acquired, uploaded)):
            ledger.record(i, a, u)
        norm = ledger.normalized_per_stage()
        assert norm[0] == 1.0
        assert norm == pytest.approx([1.0, 0.72, 0.51, 0.35, 0.29])

    def test_overall_reduction(self, ledger):
        ledger.record(0, 100, 100)
        ledger.record(1, 100, 50)
        assert ledger.overall_reduction_vs_full() == pytest.approx(0.25)

    def test_reduction_empty_is_zero(self, ledger):
        assert ledger.overall_reduction_vs_full() == 0.0

    def test_uploaded_exceeding_acquired_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.record(0, acquired=10, uploaded=11)

    def test_negative_counts_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.record(0, acquired=-1, uploaded=0)

    def test_stage_movement_fields(self, ledger):
        movement = ledger.record(2, acquired=50, uploaded=25)
        assert movement.upload_fraction == 0.5
        assert movement.uploaded_images * movement.image_bytes == 25_000
        assert movement.stage_index == 2


class TestRunningTotals:
    """Totals are O(1) running counters, consistent at any point mid-run."""

    def test_snapshot_freezes_midrun_totals(self, ledger):
        ledger.record(0, acquired=100, uploaded=40)
        first = ledger.snapshot()
        ledger.record(1, acquired=100, uploaded=10)
        ledger.record_download(1, 5_000)
        second = ledger.snapshot()
        # The first snapshot is immutable: later records don't reach it.
        assert first.uploaded_images == 40
        assert first.downloaded_bytes == 0
        assert second.stages_recorded == 2
        assert second.acquired_images == 200
        assert second.uploaded_images == 50
        assert second.uploaded_bytes == 50_000
        assert second.downloaded_bytes == 5_000

    def test_snapshot_matches_resummed_stage_list(self, ledger):
        for i in range(5):
            ledger.record(i, acquired=10 * (i + 1), uploaded=5 * (i + 1))
            ledger.record_download(i, 100 * i)
        snap = ledger.snapshot()
        assert snap.acquired_images == sum(
            s.acquired_images for s in ledger.stages
        )
        assert snap.uploaded_bytes == sum(
            s.uploaded_images * s.image_bytes for s in ledger.stages
        )
        assert snap.downloaded_bytes == sum(
            s.downloaded_bytes for s in ledger.stages
        )

    def test_download_without_matching_stage_still_counted(self, ledger):
        ledger.record_download(3, 2_000)
        assert ledger.total_downloaded_bytes == 2_000
        assert ledger.snapshot().downloaded_bytes == 2_000

    def test_empty_snapshot(self, ledger):
        snap = ledger.snapshot()
        assert snap.stages_recorded == 0
        assert snap.uploaded_bytes == snap.downloaded_bytes == 0


class TestTierOverlay:
    """Per-tier fields are an additive overlay on the flat ledger.

    A flat run never calls ``record_tier``, so every tier field stays
    zero and the flat totals are exactly what they were before the
    hierarchical topology existed — the regression contract the fleet
    equivalence tests rely on.
    """

    def test_flat_ledger_has_zero_tier_fields(self, ledger):
        ledger.record(0, acquired=100, uploaded=40)
        ledger.record_download(0, 5_000)
        snap = ledger.snapshot()
        assert snap.edge_to_gateway_bytes == 0
        assert snap.gateway_to_cloud_bytes == 0
        assert snap.gateway_to_edge_bytes == 0
        assert snap.cloud_to_gateway_bytes == 0
        assert snap.edge_transfer_events == 0
        assert snap.wan_transfer_events == 0
        assert snap.transfer_overhead_bytes == 0

    def test_record_tier_does_not_touch_flat_totals(self, ledger):
        ledger.record(0, acquired=100, uploaded=40)
        flat_before = (
            ledger.total_uploaded_bytes,
            ledger.total_downloaded_bytes,
            len(ledger.stages),
        )
        ledger.record_tier(
            0,
            edge_up_bytes=40_000,
            wan_up_bytes=42_000,
            edge_down_bytes=1_000,
            wan_down_bytes=500,
            edge_up_transfers=4,
            wan_up_transfers=1,
            overhead_bytes=2_000,
        )
        assert (
            ledger.total_uploaded_bytes,
            ledger.total_downloaded_bytes,
            len(ledger.stages),
        ) == flat_before

    def test_record_tier_accumulates(self, ledger):
        ledger.record_tier(0, edge_up_bytes=10, wan_up_bytes=12,
                           edge_up_transfers=2, wan_up_transfers=1,
                           overhead_bytes=2)
        ledger.record_tier(1, edge_up_bytes=5, wan_down_bytes=7,
                           edge_down_bytes=3)
        snap = ledger.snapshot()
        assert snap.edge_to_gateway_bytes == 15
        assert snap.gateway_to_cloud_bytes == 12
        assert snap.cloud_to_gateway_bytes == 7
        assert snap.gateway_to_edge_bytes == 3
        assert snap.edge_transfer_events == 2
        assert snap.wan_transfer_events == 1
        assert snap.transfer_overhead_bytes == 2

    def test_record_tier_rejects_negative(self, ledger):
        with pytest.raises(ValueError):
            ledger.record_tier(0, edge_up_bytes=-1)
        with pytest.raises(ValueError):
            ledger.record_tier(0, overhead_bytes=-5)


_STAGES = st.integers(min_value=0, max_value=5)
_COUNTS = st.integers(min_value=0, max_value=10**6)
_TIER_FIELDS = (
    "edge_up_bytes",
    "wan_up_bytes",
    "edge_down_bytes",
    "wan_down_bytes",
    "edge_up_transfers",
    "wan_up_transfers",
    "overhead_bytes",
)
_OPS = st.one_of(
    st.tuples(
        st.just("record"),
        _STAGES,
        st.integers(min_value=0, max_value=500).flatmap(
            lambda acquired: st.tuples(st.just(acquired), st.integers(0, acquired))
        ),
    ),
    st.tuples(st.just("record_download"), _STAGES, _COUNTS),
    st.tuples(
        st.just("record_tier"),
        _STAGES,
        st.fixed_dictionaries({name: _COUNTS for name in _TIER_FIELDS}),
    ),
)
_FLAT_FIELDS = (
    "stages_recorded",
    "acquired_images",
    "uploaded_images",
    "uploaded_bytes",
    "downloaded_bytes",
)


class TestConservation:
    """Whatever order stages, push-downs and tier traffic arrive in, the
    running totals are the stage list re-summed, and the tier overlay is
    the sum of what was attributed to it — never a flat byte more."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_OPS, max_size=30))
    def test_random_interleavings_conserve_totals(self, ops):
        ledger = DataMovementLedger(image_bytes=1000)
        tier = dict.fromkeys(_TIER_FIELDS, 0)
        for op, stage, args in ops:
            if op == "record":
                acquired, uploaded = args
                ledger.record(stage, acquired, uploaded)
            elif op == "record_download":
                ledger.record_download(stage, args)
            else:
                before = ledger.snapshot()
                ledger.record_tier(stage, **args)
                after = ledger.snapshot()
                for name in _FLAT_FIELDS:
                    assert getattr(after, name) == getattr(before, name)
                for name, value in args.items():
                    tier[name] += value
        snap = ledger.snapshot()
        stages = ledger.stages
        assert snap.stages_recorded == len(stages)
        assert snap.acquired_images == sum(s.acquired_images for s in stages)
        assert snap.uploaded_images == sum(s.uploaded_images for s in stages)
        assert snap.uploaded_bytes == sum(
            s.uploaded_images * s.image_bytes for s in stages
        )
        assert snap.downloaded_bytes == sum(
            s.downloaded_bytes for s in stages
        )
        assert (
            snap.edge_to_gateway_bytes,
            snap.gateway_to_cloud_bytes,
            snap.gateway_to_edge_bytes,
            snap.cloud_to_gateway_bytes,
            snap.edge_transfer_events,
            snap.wan_transfer_events,
            snap.transfer_overhead_bytes,
        ) == tuple(tier[name] for name in _TIER_FIELDS)
