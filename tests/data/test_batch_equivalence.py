"""Batched rendering / drift must equal the per-image loop bit-for-bit.

``ImageGenerator.batch`` and ``DriftModel.apply_batch`` promise the
*same values from the same RNG state* as the historical
one-image-at-a-time implementations preserved in
:mod:`repro.data.reference`.  These tests pin that contract — including
that both consume the generator stream identically, so code mixing
batched and scalar calls stays reproducible.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DriftModel, ImageGenerator
from repro.data.reference import ReferenceImageGenerator, drift_batch_reference


def _label_batch(seed: int, count: int, classes: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, classes, size=count)


class TestBatchRenderEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), count=st.integers(0, 12))
    def test_batch_matches_reference_loop(self, seed, count):
        labels = _label_batch(seed, count, 6)
        ref = ReferenceImageGenerator(48, 6, rng=np.random.default_rng(seed))
        gen = ImageGenerator(48, 6, rng=np.random.default_rng(seed))
        assert np.array_equal(gen.batch(labels), ref.batch(labels))

    def test_stream_position_matches_after_batch(self):
        """Batched draws advance the RNG exactly as the loop did."""
        labels = _label_batch(3, 7, 4)
        ref = ReferenceImageGenerator(48, 4, rng=np.random.default_rng(9))
        gen = ImageGenerator(48, 4, rng=np.random.default_rng(9))
        ref.batch(labels)
        gen.batch(labels)
        # Next scalar draw sees the same stream in both generators.
        assert np.array_equal(ref.generate(1), gen.generate(1))

    def test_params_render_is_pure(self):
        """generate(class_id, params=...) reproduces without touching rng."""
        gen = ImageGenerator(48, 4, rng=np.random.default_rng(11))
        params = gen.sample_params()
        state = gen.rng.bit_generator.state
        a = gen.generate(2, params=params)
        b = gen.generate(2, params=params)
        assert np.array_equal(a, b)
        assert gen.rng.bit_generator.state == state


class TestDriftBatchEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        # count >= 1: the reference np.stack loop cannot express an
        # empty batch (apply_batch itself handles count=0).
        count=st.integers(1, 10),
        severity=st.sampled_from([0.0, 0.1, 0.35, 0.7, 1.0]),
    )
    def test_apply_batch_matches_reference_loop(self, seed, count, severity):
        gen = ImageGenerator(48, 4, rng=np.random.default_rng(seed))
        images = gen.batch(_label_batch(seed + 1, count, 4))
        want = drift_batch_reference(
            DriftModel(severity, rng=np.random.default_rng(seed)), images
        )
        got = DriftModel(
            severity, rng=np.random.default_rng(seed)
        ).apply_batch(images)
        assert np.array_equal(got, want)

    def test_stream_position_matches_after_batch(self):
        gen = ImageGenerator(48, 4, rng=np.random.default_rng(2))
        images = gen.batch(_label_batch(4, 6, 4))
        ref_model = DriftModel(0.7, rng=np.random.default_rng(21))
        opt_model = DriftModel(0.7, rng=np.random.default_rng(21))
        drift_batch_reference(ref_model, images)
        opt_model.apply_batch(images)
        follow = gen.generate(0)
        assert np.array_equal(ref_model.apply(follow), opt_model.apply(follow))
