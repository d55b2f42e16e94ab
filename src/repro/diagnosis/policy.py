"""Diagnosis threshold calibration and evaluation against the oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.diagnosis.diagnoser import Diagnoser

__all__ = [
    "calibrate_threshold",
    "DiagnosisReport",
    "evaluate_diagnoser",
]


def calibrate_threshold(scores: np.ndarray, target_fraction: float) -> float:
    """Threshold such that ~``target_fraction`` of scores fall below it.

    Used to calibrate score-based diagnosers against an upload budget: flag
    the lowest-scoring ``target_fraction`` of samples.
    """
    scores = np.asarray(scores, dtype=np.float64)  # repro-lint: ignore[RPR004] cold-path quantile; goldens pin the f64 threshold values
    if scores.size == 0:
        raise ValueError("cannot calibrate on zero scores")
    if not 0.0 <= target_fraction <= 1.0:
        raise ValueError("target_fraction must be in [0, 1]")
    if target_fraction == 0.0:
        return float(scores.min()) - 1e-9
    if target_fraction == 1.0:
        return float(scores.max()) + 1e-9
    return float(np.quantile(scores, target_fraction))


@dataclass(frozen=True)
class DiagnosisReport:
    """Quality of a diagnoser measured against the misclassification oracle."""

    upload_fraction: float
    precision: float  # flagged samples that were actually misclassified
    recall: float  # misclassified samples that were flagged
    error_rate: float  # overall misclassification rate of the model


def evaluate_diagnoser(
    diagnoser: Diagnoser, oracle: Diagnoser, data: Dataset
) -> DiagnosisReport:
    """Score a diagnoser's flags against ground-truth misclassification."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    flagged = diagnoser.flags(data)
    wrong = oracle.flags(data)
    true_pos = float(np.logical_and(flagged, wrong).sum())
    precision = true_pos / flagged.sum() if flagged.any() else 0.0
    recall = true_pos / wrong.sum() if wrong.any() else 1.0
    return DiagnosisReport(
        upload_fraction=float(flagged.mean()),
        precision=float(precision),
        recall=float(recall),
        error_rate=float(wrong.mean()),
    )
