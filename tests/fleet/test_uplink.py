"""Shared-uplink contention model tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import LTE, WIFI
from repro.fleet import SharedUplink, Transfer, model_state_bytes


def mb(n: float) -> int:
    return int(n * 1e6)


class TestFairRates:
    def test_single_flow_gets_own_link_rate(self):
        uplink = SharedUplink(100e6)
        t = Transfer(0, WIFI, mb(10))
        times = uplink.transfer_times([t])
        # Capacity exceeds the access link, so the WiFi rate bounds it.
        assert times[0] == pytest.approx(WIFI.transfer_time_s(mb(10)))

    def test_bottleneck_splits_evenly(self):
        # Two identical flows through a backhaul half as fast as one link:
        # each gets capacity/2 and takes twice the uncontended bottleneck time.
        uplink = SharedUplink(WIFI.bandwidth_bps / 2)
        flows = [Transfer(i, WIFI, mb(10)) for i in range(2)]
        times = uplink.transfer_times(flows)
        (solo,) = uplink.transfer_times(flows[:1])
        expected = WIFI.latency_s + mb(10) * 8.0 / (WIFI.bandwidth_bps / 4)
        assert times[0] == pytest.approx(times[1])
        assert times[0] == pytest.approx(expected)
        assert times[0] > solo

    def test_slow_link_does_not_hold_capacity_hostage(self):
        # LTE caps itself below the fair share; WiFi takes the remainder.
        uplink = SharedUplink(25e6)
        flows = [Transfer(0, WIFI, mb(10)), Transfer(1, LTE, mb(10))]
        times = uplink.transfer_times(flows)
        # WiFi gets 25 - 10 = 15 Mbit/s while LTE is active, then all 20.
        assert times[0] < WIFI.latency_s + mb(10) * 8.0 / 12.5e6

    def test_completion_frees_bandwidth(self):
        uplink = SharedUplink(20e6)
        small = Transfer(0, WIFI, mb(1))
        large = Transfer(1, WIFI, mb(10))
        t_small, t_large = uplink.transfer_times([small, large])
        assert t_small < t_large
        # The large flow must beat the everyone-shares-forever bound.
        forever_shared = WIFI.latency_s + mb(10) * 8.0 / 10e6
        assert t_large < forever_shared
        # ... but it cannot beat having the link alone.
        assert t_large > uplink.transfer_times([large])[0]

    def test_zero_byte_transfers_are_free(self):
        uplink = SharedUplink(20e6)
        times = uplink.transfer_times(
            [Transfer(0, WIFI, 0), Transfer(1, WIFI, mb(1))]
        )
        assert times[0] == 0.0
        assert times[1] > 0.0

    def test_makespan(self):
        uplink = SharedUplink(20e6)
        flows = [Transfer(i, WIFI, mb(i + 1)) for i in range(3)]
        times, makespan = uplink.stage_upload_times(flows)
        assert makespan == max(times)

    def test_conservation(self):
        # Total service never exceeds capacity: N equal flows finish no
        # earlier than total_bits / capacity.
        uplink = SharedUplink(30e6)
        flows = [Transfer(i, WIFI, mb(5)) for i in range(4)]
        times = uplink.transfer_times(flows)
        lower_bound = 4 * mb(5) * 8.0 / 30e6
        assert max(times) >= lower_bound

    def test_push_times_contend_too(self):
        uplink = SharedUplink(20e6)
        times = uplink.push_times([WIFI, WIFI, LTE], mb(2))
        assert len(times) == 3
        assert max(times) > uplink.transfer_times([Transfer(0, WIFI, mb(2))])[0]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SharedUplink(0)

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            Transfer(0, WIFI, -1)


class TestEdgeCases:
    def test_empty_transfer_list_is_a_noop(self):
        uplink = SharedUplink(20e6)
        assert uplink.transfer_times([]) == []
        times, makespan = uplink.stage_upload_times([])
        assert times == []
        assert makespan == 0.0

    def test_all_zero_byte_transfers(self):
        uplink = SharedUplink(20e6)
        flows = [Transfer(i, WIFI, 0) for i in range(3)]
        times, makespan = uplink.stage_upload_times(flows)
        assert times == [0.0, 0.0, 0.0]
        assert makespan == 0.0

    def test_zero_byte_flow_consumes_no_capacity(self):
        # A zero-byte flow must not dilute the fair share of real flows.
        uplink = SharedUplink(20e6)
        alone = uplink.transfer_times([Transfer(0, WIFI, mb(5))])
        with_ghost = uplink.transfer_times(
            [Transfer(0, WIFI, mb(5)), Transfer(1, WIFI, 0)]
        )
        assert with_ghost[0] == pytest.approx(alone[0])

    def test_push_times_zero_model_bytes(self):
        uplink = SharedUplink(20e6)
        assert uplink.push_times([WIFI, LTE], 0) == [0.0, 0.0]


def test_model_state_bytes():
    state = {
        "w": np.zeros((4, 4), dtype=np.float32),
        "b": np.zeros(4, dtype=np.float32),
    }
    assert model_state_bytes(state) == 4 * 4 * 4 + 4 * 4
