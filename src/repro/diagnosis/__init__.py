"""Autonomous IoT data diagnosis: flag unrecognized (valuable) samples."""

from repro.diagnosis.diagnoser import (
    Diagnoser,
    InferenceConfidenceDiagnoser,
    JigsawDiagnoser,
    OracleDiagnoser,
    RandomDiagnoser,
)
from repro.diagnosis.policy import (
    DiagnosisReport,
    calibrate_threshold,
    evaluate_diagnoser,
)

__all__ = [
    "DiagnosisReport",
    "Diagnoser",
    "InferenceConfidenceDiagnoser",
    "JigsawDiagnoser",
    "OracleDiagnoser",
    "RandomDiagnoser",
    "calibrate_threshold",
    "evaluate_diagnoser",
]
