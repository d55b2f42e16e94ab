"""Incremental acquisition stream tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import PAPER_SCHEDULE_K, ImageGenerator, IoTStream


@pytest.fixture
def stream(generator, rng):
    return IoTStream(generator, scale=0.1, rng=rng)


class TestSchedule:
    def test_paper_schedule(self):
        assert PAPER_SCHEDULE_K == (100, 200, 400, 800, 1200)

    def test_stage_sizes_are_differences(self, stream):
        # 100, 200, 400, 800, 1200 cumulative -> 100, 100, 200, 400, 400 new.
        assert stream.stage_sizes() == [10, 10, 20, 40, 40]

    def test_cumulative_counts(self, stream):
        stages = stream.stages()
        assert [s.cumulative_count for s in stages] == [10, 20, 40, 80, 120]

    def test_new_counts_match(self, stream):
        for stage, expected in zip(stream.stages(), [10, 10, 20, 40, 40]):
            assert len(stage.new_data) == expected

    def test_severities_applied(self, generator, rng):
        stream = IoTStream(
            generator, scale=0.05, severities=(0.1, 0.2, 0.3, 0.4, 0.5), rng=rng
        )
        assert [s.drift_severity for s in stream.stages()] == [
            0.1, 0.2, 0.3, 0.4, 0.5,
        ]

    def test_invalid_schedule(self, generator, rng):
        with pytest.raises(ValueError):
            IoTStream(generator, schedule_k=(100,), rng=rng)
        with pytest.raises(ValueError):
            IoTStream(generator, schedule_k=(200, 100), rng=rng)

    def test_invalid_scale(self, generator, rng):
        with pytest.raises(ValueError):
            IoTStream(generator, scale=0.0, rng=rng)

    def test_severity_count_mismatch(self, generator, rng):
        with pytest.raises(ValueError):
            IoTStream(generator, severities=(0.1, 0.2), rng=rng)

    def test_custom_schedule(self, generator, rng):
        stream = IoTStream(
            generator, scale=1.0, schedule_k=(5, 10, 20), rng=rng
        )
        assert stream.stage_sizes() == [5, 5, 10]

    def test_stage_data_labels_in_range(self, stream, generator):
        for stage in stream.stages():
            assert stage.new_data.labels.max() < generator.num_classes
            assert stage.new_data.labels.min() >= 0
