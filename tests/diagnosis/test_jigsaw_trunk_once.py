"""Jigsaw diagnosis with one trunk pass per image slice.

``JigsawDiagnoser`` runs the context network's trunk once per
``batch_size`` slice on the unshuffled tiles and answers every trial by
reordering the feature rows into the head.  These tests pin it, bit for
bit, to the per-trial loop it replaced: ``trials`` rounds of
``sampler.batch`` + ``network.predict`` over the slices, drawing labels
trial-major, slice-minor from the sampler's generator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ImageGenerator, make_dataset
from repro.diagnosis import JigsawDiagnoser
from repro.nn import softmax
from repro.selfsup import JigsawSampler, PermutationSet, build_context_network, pretrain

BATCH = 64


def _per_trial_reference(network, sampler, images, trials):
    """Puzzles solved and summed correct-permutation probability per image."""
    counts = np.zeros(len(images), dtype=np.int64)
    scores = np.zeros(len(images))
    for _ in range(trials):
        for start in range(0, len(images), BATCH):
            stop = start + BATCH
            tiles, labels = sampler.batch(images[start:stop])
            logits = network.forward(tiles)
            counts[start:stop] += logits.argmax(axis=1) == labels
            probs = softmax(logits, axis=1)
            scores[start:stop] += probs[np.arange(len(labels)), labels]
    return counts, scores / trials


@pytest.fixture(scope="module")
def context():
    """A briefly pre-trained 4-way jigsaw network, so solve counts vary."""
    rng = np.random.default_rng(11)
    generator = ImageGenerator(image_size=48, num_classes=4, rng=rng)
    permset = PermutationSet.generate(4, rng=rng)
    network = build_context_network(permset, rng=np.random.default_rng(3))
    images = make_dataset(48, generator=generator, rng=rng).images
    pretrain(
        network,
        images,
        JigsawSampler(permset, rng=rng),
        epochs=2,
        batch_size=16,
        lr=0.01,
        rng=rng,
    )
    data = make_dataset(150, generator=generator, rng=rng)
    return network, permset, data


def _sampler(permset, seed):
    return JigsawSampler(permset, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("count", [1, 5, 63, 64, 65, 150])
@pytest.mark.parametrize("trials", [1, 2, 3])
def test_flags_and_score_match_per_trial_loop(context, count, trials):
    network, permset, full = context
    data = full.subset(np.arange(count))
    ref_sampler = _sampler(permset, count * 10 + trials)
    counts, ref_scores = _per_trial_reference(
        network, ref_sampler, data.images, trials
    )
    for min_correct in sorted({1, min(2, trials)}):
        sampler = _sampler(permset, count * 10 + trials)
        diag = JigsawDiagnoser(
            network, sampler, trials=trials, min_correct=min_correct,
            batch_size=BATCH,
        )
        assert np.array_equal(diag.flags(data), counts < min_correct)
        assert sampler.rng.bit_generator.state == ref_sampler.rng.bit_generator.state

    sampler = _sampler(permset, count * 10 + trials)
    diag = JigsawDiagnoser(network, sampler, trials=trials, batch_size=BATCH)
    assert np.array_equal(diag.score(data), ref_scores)
    assert sampler.rng.bit_generator.state == ref_sampler.rng.bit_generator.state


def test_reference_flags_are_mixed(context):
    """The pins above compare a signal, not an all-True mask."""
    network, permset, data = context
    counts, _ = _per_trial_reference(network, _sampler(permset, 0), data.images, 2)
    assert 0 < np.count_nonzero(counts < 2) < len(data)
