"""Incremental IoT acquisition stream.

The paper's end-to-end evaluation (Table II, Fig. 25) mimics "a real in-situ
scenario, where IoT data is acquired incrementally": 100k images train an
initial model, then the model is continually updated as the cumulative
archive grows to 200k, 400k, 800k, and 1200k images.  This module reproduces
that schedule, scaled by a ``scale`` factor so laptop-size experiments keep
the stage *ratios* exact, and varies drift severity per stage to model the
ever-changing environment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator

__all__ = [
    "PAPER_SCHEDULE_K",
    "AcquisitionStage",
    "IoTStream",
    "default_severities",
]

#: cumulative image counts of the paper's update schedule, in thousands
PAPER_SCHEDULE_K = (100, 200, 400, 800, 1200)


def default_severities(num_stages: int) -> tuple[float, ...]:
    """Per-stage drift severities alternating around a rising baseline."""
    return tuple(0.35 + 0.1 * (i % 3) for i in range(num_stages))


@dataclass
class AcquisitionStage:
    """One stage of incremental acquisition.

    ``new_data`` holds only the images acquired *since the previous stage*;
    ``cumulative_count`` is the archive size after this stage (what the
    paper's Table II columns are labeled with).
    """

    index: int
    new_data: Dataset
    cumulative_count: int
    drift_severity: float


class IoTStream:
    """Generates the staged acquisition schedule.

    Parameters
    ----------
    generator:
        Image source shared across stages (same classes throughout).
    scale:
        Images per "1k" of the paper schedule.  ``scale=1`` maps 100k -> 100
        images.
    severities:
        Drift severity for each stage.  Defaults alternate around a rising
        baseline — the environment keeps changing, which is what forces
        incremental updates.
    rng:
        All stage randomness.
    class_schedule:
        Optional per-stage tuple of allowed class ids — the
        class-incremental arrival process.  ``None`` (default) draws
        from the full label space at every stage, bit-identical to the
        historical stream.
    """

    def __init__(
        self,
        generator: ImageGenerator,
        *,
        scale: float = 1.0,
        schedule_k: tuple[int, ...] = PAPER_SCHEDULE_K,
        severities: tuple[float, ...] | None = None,
        rng: np.random.Generator | None = None,
        class_schedule: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        if sorted(schedule_k) != list(schedule_k) or len(schedule_k) < 2:
            raise ValueError("schedule_k must be increasing with >= 2 stages")
        if severities is None:
            severities = default_severities(len(schedule_k))
        if len(severities) != len(schedule_k):
            raise ValueError("need one severity per stage")
        if class_schedule is not None:
            if len(class_schedule) != len(schedule_k):
                raise ValueError("need one class group per stage")
            class_schedule = tuple(
                tuple(sorted(stage_classes))
                for stage_classes in class_schedule
            )
        self.class_schedule = class_schedule
        self.generator = generator
        self.scale = scale
        self.schedule_k = tuple(schedule_k)
        self.severities = tuple(severities)
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def stage_sizes(self) -> list[int]:
        """Newly acquired images per stage (differences of the cumulative schedule)."""
        sizes = []
        previous = 0
        for cumulative in self.schedule_k:
            count = max(1, int(round((cumulative - previous) * self.scale)))
            sizes.append(count)
            previous = cumulative
        return sizes

    def stages(self) -> list[AcquisitionStage]:
        """Materialize every stage of the stream."""
        result = []
        cumulative = 0
        for i, (new_count, severity) in enumerate(
            zip(self.stage_sizes(), self.severities)
        ):
            drift = DriftModel(severity, rng=self.rng)
            data = make_dataset(
                new_count,
                generator=self.generator,
                drift=drift,
                rng=self.rng,
                classes=(
                    self.class_schedule[i]
                    if self.class_schedule is not None
                    else None
                ),
            )
            cumulative += new_count
            result.append(
                AcquisitionStage(
                    index=i,
                    new_data=data,
                    cumulative_count=cumulative,
                    drift_severity=severity,
                )
            )
        return result
