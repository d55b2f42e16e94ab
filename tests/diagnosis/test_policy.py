"""Diagnosis calibration and quality reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Dataset
from repro.diagnosis import (
    OracleDiagnoser,
    RandomDiagnoser,
    calibrate_threshold,
    evaluate_diagnoser,
)
from repro.models import build_classifier


class TestCalibrateThreshold:
    def test_quantile_behaviour(self, rng):
        scores = rng.random(1000)
        thr = calibrate_threshold(scores, 0.3)
        assert 0.25 < (scores < thr).mean() < 0.35

    def test_extreme_fractions(self, rng):
        scores = rng.random(50)
        assert (scores < calibrate_threshold(scores, 0.0)).sum() == 0
        assert (scores < calibrate_threshold(scores, 1.0)).sum() == 50

    def test_empty_scores_raise(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.array([]), 0.5)

    def test_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            calibrate_threshold(rng.random(5), 1.5)


class TestEvaluateDiagnoser:
    def test_oracle_scores_perfectly(self, rng, generator):
        from repro.data import make_dataset

        net = build_classifier(4, rng)
        data = make_dataset(30, generator=generator, rng=rng)
        oracle = OracleDiagnoser(net)
        report = evaluate_diagnoser(oracle, oracle, data)
        assert report.recall == 1.0
        if report.upload_fraction > 0:
            assert report.precision == 1.0

    def test_random_diagnoser_report(self, rng, generator):
        from repro.data import make_dataset

        net = build_classifier(4, rng)
        data = make_dataset(60, generator=generator, rng=rng)
        report = evaluate_diagnoser(
            RandomDiagnoser(0.5, rng=rng), OracleDiagnoser(net), data
        )
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0

    def test_empty_dataset_raises(self, rng, generator):
        from repro.data import make_dataset

        net = build_classifier(4, rng)
        data = make_dataset(4, generator=generator, rng=rng)
        with pytest.raises(ValueError):
            evaluate_diagnoser(
                OracleDiagnoser(net), OracleDiagnoser(net), data.take(0)
            )
