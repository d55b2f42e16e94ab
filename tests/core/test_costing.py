"""Node cost model for Single-running mode."""

from __future__ import annotations

import pytest

from repro.core import GPUSingleRunningCost
from repro.hw import TX1
from repro.models import alexnet_spec, diagnosis_spec


@pytest.fixture
def specs():
    inf = alexnet_spec()
    return inf, diagnosis_spec(inf)


class TestGPUSingleRunningCost:
    @pytest.fixture
    def costing(self, specs):
        inf, diag = specs
        return GPUSingleRunningCost(inf, diag, TX1)

    def test_costs_scale_with_images(self, costing):
        small = costing.inference_cost(10)
        large = costing.inference_cost(100)
        assert large.seconds > small.seconds
        assert large.joules > small.joules

    def test_zero_images_free(self, costing):
        assert costing.inference_cost(0).seconds == 0.0
        assert costing.diagnosis_cost(0).joules == 0.0

    def test_diagnosis_costs_more_per_image_than_inference(self, costing):
        """9 patches per image: diagnosis work dominates, but big batching
        amortizes its FCN — per-image seconds should still be higher."""
        inf = costing.inference_cost(100)
        diag = costing.diagnosis_cost(100)
        assert diag.seconds > inf.seconds

    def test_negative_rejected(self, costing):
        with pytest.raises(ValueError):
            costing.inference_cost(-1)
        with pytest.raises(ValueError):
            costing.diagnosis_cost(-1)
