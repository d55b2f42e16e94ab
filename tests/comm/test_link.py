"""Network link model tests."""

from __future__ import annotations

import pytest

from repro.comm import JPEG_IMAGE_BYTES, LTE, WIFI, NetworkLink


class TestNetworkLink:
    def test_transfer_time_includes_latency(self):
        link = NetworkLink("t", bandwidth_bps=8e6, latency_s=0.1,
                           energy_per_byte_j=1e-7)
        # 1 MB at 1 MB/s + 0.1 s latency.
        assert link.transfer_time_s(1_000_000) == pytest.approx(1.1)

    def test_zero_bytes_is_free(self):
        assert WIFI.transfer_time_s(0) == 0.0
        assert WIFI.transfer_energy_j(0) == 0.0

    def test_energy_linear(self):
        assert WIFI.transfer_energy_j(2000) == pytest.approx(
            2 * WIFI.transfer_energy_j(1000)
        )

    def test_image_upload_helpers(self):
        e = WIFI.image_upload_energy_j(10)
        assert e == pytest.approx(
            WIFI.transfer_energy_j(10 * JPEG_IMAGE_BYTES)
        )

    def test_lte_costs_more_per_byte(self):
        assert LTE.energy_per_byte_j > WIFI.energy_per_byte_j

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            WIFI.transfer_time_s(-1)
        with pytest.raises(ValueError):
            WIFI.transfer_energy_j(-1)

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            NetworkLink("bad", 0.0, 0.1, 1e-7)
        with pytest.raises(ValueError):
            NetworkLink("bad", 1e6, -0.1, 1e-7)
