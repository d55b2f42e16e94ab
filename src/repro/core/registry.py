"""Model versioning and guarded updates.

An autonomous system that continually retrains itself needs a safety net:
an incremental update trained on a skewed upload batch can regress the
deployed model, and nobody is watching.  This module provides

* :class:`ModelRegistry` — versioned storage of model state dicts whose
  *active* version is the latest ``main`` publish; the node always
  deploys the active version.
* :class:`UpdateGuard` — an acceptance test for updates: the candidate
  model must not lose more than ``max_regression`` accuracy on a held-out
  validation set relative to the active model, otherwise the update is
  rejected and the weights are restored, so nothing is ever published
  that a registry would have to take back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.nn import Sequential
from repro.transfer.finetune import evaluate

__all__ = ["ModelVersion", "ModelRegistry", "GuardDecision", "UpdateGuard"]


@dataclass(frozen=True)
class ModelVersion:
    """One published model version.

    ``track`` separates model lineages sharing one version counter: the
    fleet-wide model lives on ``"main"``, while per-node-group
    specializations (scenario head processes) publish on side tracks like
    ``"head-0"`` without ever becoming the fleet-wide active model.
    """

    version: int
    state: dict[str, np.ndarray]
    metadata: dict
    track: str = "main"


class ModelRegistry:
    """Versioned model store.

    The active version is the latest ``main`` publish; side-track
    versions are recorded without moving it.
    """

    def __init__(self) -> None:
        self._versions: list[ModelVersion] = []

    def __len__(self) -> int:
        return len(self._versions)

    def publish(
        self,
        state: dict[str, np.ndarray],
        metadata: dict | None = None,
        *,
        track: str = "main",
    ) -> ModelVersion:
        """Store a new version; a ``main`` one becomes active."""
        entry = ModelVersion(
            version=len(self._versions) + 1,
            state={k: v.copy() for k, v in state.items()},
            metadata=dict(metadata or {}),
            track=track,
        )
        self._versions.append(entry)
        return entry

    @property
    def active(self) -> ModelVersion:
        active = self.latest("main")
        if active is None:
            raise LookupError("registry is empty")
        return active

    def versions(self, track: str | None = None) -> list[ModelVersion]:
        """All versions, optionally restricted to one track."""
        if track is None:
            return list(self._versions)
        return [entry for entry in self._versions if entry.track == track]

    def latest(self, track: str) -> ModelVersion | None:
        """Most recent version on ``track``, or None if none published."""
        return next(
            (e for e in reversed(self._versions) if e.track == track), None
        )


@dataclass(frozen=True)
class GuardDecision:
    """Outcome of an update acceptance test."""

    accepted: bool
    accuracy_before: float
    accuracy_after: float

    @property
    def delta(self) -> float:
        return self.accuracy_after - self.accuracy_before


@dataclass
class UpdateGuard:
    """Accept an update only if it does not regress on validation data.

    ``max_regression`` is the tolerated accuracy drop (small positive
    values allow noise-level dips; 0 demands monotone improvement).
    """

    max_regression: float = 0.02

    def __post_init__(self) -> None:
        if self.max_regression < 0:
            raise ValueError("max_regression must be >= 0")

    def check(
        self,
        net: Sequential,
        previous_state: dict[str, np.ndarray],
        validation_data: Dataset,
    ) -> GuardDecision:
        """Evaluate the updated ``net`` against its previous weights on
        ``validation_data``.

        On rejection, ``net`` is restored to ``previous_state`` in place.
        """
        if len(validation_data) == 0:
            raise ValueError("guard needs a non-empty validation set")
        after = evaluate(net, validation_data)
        current_state = net.state_dict()
        net.load_state_dict(previous_state)
        before = evaluate(net, validation_data)
        accepted = after >= before - self.max_regression
        if accepted:
            net.load_state_dict(current_state)
        return GuardDecision(
            accepted=accepted, accuracy_before=before, accuracy_after=after
        )
