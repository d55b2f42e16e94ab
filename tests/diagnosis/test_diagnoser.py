"""Diagnosers: contracts, oracle behaviour, jigsaw signal quality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DriftModel, ImageGenerator, make_dataset
from repro.diagnosis import (
    InferenceConfidenceDiagnoser,
    JigsawDiagnoser,
    OracleDiagnoser,
    RandomDiagnoser,
)
from repro.models import build_classifier
from repro.nn import softmax
from repro.selfsup import JigsawSampler, PermutationSet, build_context_network
from repro.transfer import evaluate, predict_logits, train_classifier


@pytest.fixture
def trained_net(rng, generator):
    net = build_classifier(4, np.random.default_rng(2))
    train = make_dataset(96, generator=generator, rng=rng)
    # lr 0.01: this small setup is unstable at higher learning rates.
    train_classifier(net, train, epochs=8, batch_size=16, lr=0.01, rng=rng)
    return net


class TestOracleDiagnoser:
    def test_flags_are_misclassifications(self, trained_net, generator, rng):
        data = make_dataset(40, generator=generator, rng=rng)
        flags = OracleDiagnoser(trained_net).flags(data)
        preds = trained_net.predict(data.images).argmax(axis=1)
        assert np.array_equal(flags, preds != data.labels)

    def test_drift_increases_flags(self, trained_net, generator, rng):
        ideal = make_dataset(60, generator=generator, rng=rng)
        drifted = make_dataset(
            60, generator=generator, drift=DriftModel(0.8, rng=rng), rng=rng
        )
        oracle = OracleDiagnoser(trained_net)
        assert oracle.flags(drifted).mean() > oracle.flags(ideal).mean()


class TestConfidenceDiagnoser:
    def test_score_in_unit_interval(self, trained_net, generator, rng):
        data = make_dataset(20, generator=generator, rng=rng)
        scores = InferenceConfidenceDiagnoser(trained_net).score(data)
        assert np.all((scores > 0.0) & (scores <= 1.0))

    def test_threshold_monotone(self, trained_net, generator, rng):
        data = make_dataset(40, generator=generator, rng=rng)
        low = InferenceConfidenceDiagnoser(trained_net, threshold=0.3)
        high = InferenceConfidenceDiagnoser(trained_net, threshold=0.95)
        assert low.flags(data).sum() <= high.flags(data).sum()

    def test_invalid_threshold(self, trained_net):
        with pytest.raises(ValueError):
            InferenceConfidenceDiagnoser(trained_net, threshold=0.0)

    def test_correlates_with_errors(self, trained_net, generator, rng):
        """Low-confidence samples should be wrong more often than
        high-confidence ones."""
        data = make_dataset(
            120, generator=generator, drift=DriftModel(0.5, rng=rng), rng=rng
        )
        diag = InferenceConfidenceDiagnoser(trained_net)
        scores = diag.score(data)
        preds = trained_net.predict(data.images).argmax(axis=1)
        wrong = preds != data.labels
        if wrong.any() and (~wrong).any():
            assert scores[wrong].mean() < scores[~wrong].mean()


class TestJigsawDiagnoser:
    @pytest.fixture
    def jigsaw_setup(self, rng, generator):
        permset = PermutationSet.generate(4, rng=rng)
        sampler = JigsawSampler(permset, rng=rng)
        network = build_context_network(permset, rng=np.random.default_rng(5))
        return network, sampler

    def test_flags_shape_and_type(self, jigsaw_setup, generator, rng):
        network, sampler = jigsaw_setup
        diag = JigsawDiagnoser(network, sampler, trials=1, rng=rng)
        data = make_dataset(12, generator=generator, rng=rng)
        flags = diag.flags(data)
        assert flags.shape == (12,)
        assert flags.dtype == bool

    def test_untrained_network_flags_nearly_everything(
        self, jigsaw_setup, generator, rng
    ):
        network, sampler = jigsaw_setup
        diag = JigsawDiagnoser(network, sampler, trials=2, rng=rng)
        data = make_dataset(24, generator=generator, rng=rng)
        # Untrained jigsaw solves ~1/4 puzzles by chance; requiring 2/2
        # keeps ~1/16 recognized.
        assert diag.flags(data).mean() > 0.6

    def test_score_range(self, jigsaw_setup, generator, rng):
        network, sampler = jigsaw_setup
        diag = JigsawDiagnoser(network, sampler, trials=2, rng=rng)
        data = make_dataset(10, generator=generator, rng=rng)
        scores = diag.score(data)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_invalid_trials(self, jigsaw_setup, rng):
        network, sampler = jigsaw_setup
        with pytest.raises(ValueError):
            JigsawDiagnoser(network, sampler, trials=0, rng=rng)
        with pytest.raises(ValueError):
            JigsawDiagnoser(network, sampler, trials=2, min_correct=3, rng=rng)


class TestRandomDiagnoser:
    def test_fraction_respected(self, rng, generator):
        data = make_dataset(400, generator=generator, rng=rng)
        diag = RandomDiagnoser(0.3, rng=rng)
        frac = diag.flags(data).mean()
        assert 0.2 < frac < 0.4

    def test_extremes(self, rng, generator):
        data = make_dataset(10, generator=generator, rng=rng)
        assert RandomDiagnoser(0.0, rng=rng).flags(data).sum() == 0
        assert RandomDiagnoser(1.0, rng=rng).flags(data).sum() == 10

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            RandomDiagnoser(1.2, rng=rng)


def two_pass_logits(net, data):
    """The pass each logit diagnoser used to run for itself: 128-row copies."""
    return [
        net.predict(data.images[np.arange(start, min(start + 128, len(data)))])
        for start in range(0, len(data), 128)
    ]


class TestSharedInferencePass:
    """Logits handed over by the caller are the diagnoser's own pass."""

    @pytest.fixture(scope="class")
    def net(self):
        return build_classifier(4, np.random.default_rng(2))

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        generator = ImageGenerator(image_size=48, num_classes=4, rng=rng)
        return make_dataset(300, generator=generator, rng=rng)

    @pytest.mark.parametrize("count", [5, 130, 300])
    def test_predict_logits_is_the_evaluate_sweep(self, net, data, count):
        part = data.take(count)
        parts = two_pass_logits(net, part)
        assert len(parts) == -(-count // 128)
        logits = predict_logits(net, part)
        assert np.array_equal(logits, np.concatenate(parts))
        correct = sum(
            int((p.argmax(axis=1) == part.labels[i * 128 : (i + 1) * 128]).sum())
            for i, p in enumerate(parts)
        )
        assert evaluate(net, part) == correct / count

    @pytest.mark.parametrize("count", [5, 130, 300])
    def test_oracle_flags_equal_its_own_pass(self, net, data, count):
        part = data.take(count)
        own = np.concatenate(
            [p.argmax(axis=1) for p in two_pass_logits(net, part)]
        ) != part.labels
        oracle = OracleDiagnoser(net)
        assert np.array_equal(oracle.flags(part), own)
        logits = predict_logits(net, part)
        assert np.array_equal(oracle.flags(part, logits), own)
        assert np.array_equal(
            oracle.flags_given_logits(part, net, logits), own
        )

    @pytest.mark.parametrize("count", [5, 130, 300])
    def test_confidence_scores_equal_its_own_pass(self, net, data, count):
        part = data.take(count)
        # per-slice softmax into a float64 array, as the diagnoser's own
        # loop did
        own = np.zeros(count)
        for i, p in enumerate(two_pass_logits(net, part)):
            own[i * 128 : (i + 1) * 128] = softmax(p, axis=1).max(axis=1)
        threshold = float(np.median(own))
        diag = InferenceConfidenceDiagnoser(net, threshold=threshold)
        logits = predict_logits(net, part)
        for scores in (diag.score(part), diag.score(part, logits)):
            assert scores.dtype == own.dtype
            assert np.array_equal(scores, own)
        flagged = own < threshold
        assert 0 < flagged.sum() < count
        assert np.array_equal(diag.flags(part), flagged)
        assert np.array_equal(
            diag.flags_given_logits(part, net, logits), flagged
        )

    def test_an_empty_dataset_flags_nothing(self, net, data):
        assert predict_logits(net, data.take(0)).shape == (0, 4)
        assert OracleDiagnoser(net).flags(data.take(0)).shape == (0,)

    def test_handed_over_logits_are_used_not_recomputed(self, net, data):
        part = data.take(20)
        forged = np.zeros((20, 4), dtype=np.float32)
        forged[:, 1] = 1.0
        flags = OracleDiagnoser(net).flags_given_logits(part, net, forged)
        assert np.array_equal(flags, part.labels != 1)

    def test_other_networks_logits_are_ignored(self, net, data):
        """A diagnoser bound to a different network runs its own pass."""
        part = data.take(20)
        other = build_classifier(4, np.random.default_rng(9))
        foreign = predict_logits(other, part)
        oracle = OracleDiagnoser(net)
        assert np.array_equal(
            oracle.flags_given_logits(part, other, foreign), oracle.flags(part)
        )
        confidence = InferenceConfidenceDiagnoser(net, threshold=0.5)
        assert np.array_equal(
            confidence.flags_given_logits(part, other, foreign),
            confidence.flags(part),
        )

    def test_jigsaw_and_random_take_no_logits(self, net, data):
        part = data.take(12)
        logits = predict_logits(net, part)

        def jigsaw():
            permset = PermutationSet.generate(4, rng=np.random.default_rng(1))
            sampler = JigsawSampler(permset, rng=np.random.default_rng(2))
            network = build_context_network(
                permset, rng=np.random.default_rng(5)
            )
            return JigsawDiagnoser(network, sampler, trials=2)

        assert np.array_equal(
            jigsaw().flags_given_logits(part, net, logits),
            jigsaw().flags(part),
        )
        assert np.array_equal(
            RandomDiagnoser(
                0.5, rng=np.random.default_rng(3)
            ).flags_given_logits(part, net, logits),
            RandomDiagnoser(0.5, rng=np.random.default_rng(3)).flags(part),
        )
