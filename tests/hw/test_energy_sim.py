"""Cloud training cost model and the 'measured' GPU simulator."""

from __future__ import annotations

import pytest

from repro.hw import (
    TITAN_X,
    TX1,
    MeasuredGPU,
    TrainingCostModel,
)
from repro.models import alexnet_spec


class TestTrainingCostModel:
    @pytest.fixture
    def model(self):
        return TrainingCostModel(TITAN_X)

    def test_more_images_cost_more(self, model):
        ops = float(alexnet_spec().total_ops)
        t1 = model.training_time_s(images=1000, epochs=3, forward_ops=ops)
        t2 = model.training_time_s(images=2000, epochs=3, forward_ops=ops)
        assert t2 == pytest.approx(2 * t1)

    def test_frozen_prefix_cheaper(self, model):
        """The weight-sharing speedup: frozen layers run forward once."""
        net = alexnet_spec()
        total = float(net.total_ops)
        frozen3 = total - sum(
            net.layer(n).ops for n in ("conv1", "conv2", "conv3")
        )
        full = model.training_time_s(
            images=1000, epochs=3, forward_ops=total
        )
        shared = model.training_time_s(
            images=1000, epochs=3, forward_ops=total,
            trainable_forward_ops=frozen3,
        )
        assert shared < full

    def test_trainable_cannot_exceed_total(self, model):
        with pytest.raises(ValueError):
            model.training_time_s(
                images=10, epochs=1, forward_ops=100.0,
                trainable_forward_ops=200.0,
            )

    def test_energy_proportional_to_time(self, model):
        assert model.training_energy_j(10.0) == pytest.approx(
            2 * model.training_energy_j(5.0)
        )


class TestMeasuredGPU:
    @pytest.fixture
    def sim(self):
        return MeasuredGPU(TX1)

    def test_measured_close_to_model_but_not_equal(self, sim):
        from repro.hw.gpu import network_time

        net = alexnet_spec()
        for batch in (1, 4, 16):
            model_t = network_time(net, TX1, batch).total_s
            measured_t = sim.measure_latency_s(net, batch)
            assert measured_t != model_t
            assert 0.5 * model_t < measured_t < 2.0 * model_t

    def test_deterministic(self, sim):
        net = alexnet_spec()
        assert sim.measure_latency_s(net, 7) == sim.measure_latency_s(net, 7)

    def test_brute_force_respects_latency(self, sim):
        net = alexnet_spec()
        best = sim.brute_force_best_batch(
            net, latency_requirement_s=0.1, max_batch=64
        )
        assert sim.measure_latency_s(net, best) <= 0.1

    def test_brute_force_infeasible_raises(self, sim):
        with pytest.raises(ValueError):
            sim.brute_force_best_batch(
                alexnet_spec(), latency_requirement_s=1e-9, max_batch=4
            )

    def test_invalid_batch(self, sim):
        with pytest.raises(ValueError):
            sim.measure_latency_s(alexnet_spec(), 0)
