"""Cloud-side update scheduling and canary rollout for a fleet.

With one node, "when to retrain" is trivial: every stage.  With N nodes
sharing one Cloud the scheduler becomes a real policy surface:

* **per-stage** — retrain whenever a stage delivered any uploads (the
  single-node paper protocol, generalized to the pooled uploads).
* **threshold** — retrain once the pooled upload count crosses
  ``upload_threshold`` images; small dribbles from individual nodes wait.
* **accuracy-drop** — retrain only when the fleet's mean accuracy on fresh
  data has fallen :data:`ACCURACY_DROP` below the best it has seen.

Every triggered update goes through a **canary rollout** instead of a blind
fleet-wide push: the candidate model is deployed to a canary subset first,
checked with :class:`~repro.core.registry.UpdateGuard` semantics against
the canary nodes' own fresh data, and only promoted to the registry (and
the rest of the fleet) if it does not regress.  A regressing candidate is
rolled back on the canaries and never becomes a registry version.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cloud import CloudUpdateReport, InSituCloud
from repro.core.registry import GuardDecision, ModelRegistry, UpdateGuard
from repro.data.datasets import Dataset

__all__ = [
    "POLICIES",
    "PendingUpload",
    "DeployEvent",
    "RolloutResult",
    "FleetScheduler",
]

#: the Cloud-side update policies a :class:`FleetScheduler` accepts
POLICIES = ("per-stage", "threshold", "accuracy-drop")

#: drop below the best fleet accuracy seen that fires an accuracy-drop update
ACCURACY_DROP = 0.05


@dataclass(frozen=True)
class PendingUpload:
    """One node's uploaded batch waiting in the Cloud's pool."""

    stage_index: int
    node_id: int
    data: Dataset


@dataclass(frozen=True)
class DeployEvent:
    """One model push to one node (what the downlink ledger charges)."""

    stage_index: int
    node_id: int
    version: int  # registry version, or -1 for an unpublished candidate
    kind: str  # "canary" | "rollback" | "fleet"


@dataclass(frozen=True)
class RolloutResult:
    """Outcome of one scheduled update attempt."""

    stage_index: int
    report: CloudUpdateReport
    decision: GuardDecision
    promoted: bool
    canary_ids: tuple[int, ...]
    events: tuple[DeployEvent, ...]
    pooled_images: int


@dataclass
class FleetScheduler:
    """Aggregates uploads across nodes and schedules guarded updates.

    Parameters
    ----------
    cloud:
        The shared :class:`~repro.core.cloud.InSituCloud`.
    registry:
        Versioned model store; the fleet always runs ``registry.active``.
    guard:
        Acceptance test for canary promotion.  Its validation data is
        swapped per rollout for the canary nodes' fresh data.
    policy:
        One of ``per-stage``, ``threshold``, ``accuracy-drop``.
    canary_ids:
        Node ids that receive candidate models first.
    """

    cloud: InSituCloud
    registry: ModelRegistry
    guard: UpdateGuard
    policy: str = "per-stage"
    canary_ids: tuple[int, ...] = ()
    upload_threshold: int = 64
    pool: list[PendingUpload] = field(default_factory=list)
    history: list[RolloutResult] = field(default_factory=list)
    _best_accuracy: float = float("-inf")

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; available: {POLICIES}"
            )
        if self.upload_threshold < 1:
            raise ValueError("upload_threshold must be >= 1")

    # ------------------------------------------------------------------
    # Pooling and trigger logic
    # ------------------------------------------------------------------
    @property
    def pooled_images(self) -> int:
        return sum(len(u.data) for u in self.pool)

    def offer(self, stage_index: int, node_id: int, data: Dataset) -> None:
        """A node's upload arrived at the Cloud."""
        if len(data):
            self.pool.append(PendingUpload(stage_index, node_id, data))

    def should_update(self, fleet_accuracy: float) -> bool:
        """Does the policy fire at this stage boundary?

        ``fleet_accuracy`` is the mean per-node accuracy on the stage's
        fresh data — the signal a production control loop actually has.
        """
        if not self.pool:
            return False
        if self.policy == "per-stage":
            return True
        if self.policy == "threshold":
            return self.pooled_images >= self.upload_threshold
        self._best_accuracy = max(self._best_accuracy, fleet_accuracy)
        return fleet_accuracy <= self._best_accuracy - ACCURACY_DROP

    def drain(self) -> Dataset:
        """Pop the pooled uploads as one training set."""
        if not self.pool:
            raise ValueError("no pooled uploads to drain")
        pooled = Dataset.concat([u.data for u in self.pool])
        self.pool.clear()
        return pooled

    # ------------------------------------------------------------------
    # Canary rollout
    # ------------------------------------------------------------------
    def canaries_among(self, node_ids: tuple[int, ...]) -> tuple[int, ...]:
        """The canary subset a rollout over ``node_ids`` will use.

        Configured canaries restricted to the given (alive) fleet; when
        none of them is present the first node stands in.
        """
        canaries = tuple(i for i in self.canary_ids if i in node_ids)
        return canaries or node_ids[:1]

    def rollout(
        self,
        stage_index: int,
        train_data: Dataset,
        canary_validation: Dataset,
        all_node_ids: tuple[int, ...],
        *,
        weight_shared: bool,
        epochs: int = 3,
        lr: float = 0.01,
        pooled_images: int | None = None,
    ) -> RolloutResult:
        """Train a candidate, canary it, and promote or roll back.

        The candidate is pushed to the canary subset *before* the guard
        decision — that deployment is the point of a canary — so its
        downlink traffic is paid even when the update is rejected, plus
        the rollback push that restores the active version.
        """
        previous = self.cloud.model_state()
        report = self.cloud.incremental_update(
            train_data,
            weight_shared=weight_shared,
            epochs=epochs,
            lr=lr,
        )
        canaries = self.canaries_among(all_node_ids)
        events = [
            DeployEvent(stage_index, node_id, -1, "canary")
            for node_id in canaries
        ]
        decision = self.guard.check(
            self.cloud.inference_net, previous, canary_validation
        )
        if decision.accepted:
            version = self.registry.publish(
                self.cloud.model_state(),
                {
                    "stage": stage_index,
                    "images": report.images_used,
                    "epochs": report.epochs,
                },
            )
            events.extend(
                DeployEvent(stage_index, node_id, version.version, "fleet")
                for node_id in all_node_ids
                if node_id not in canaries
            )
        else:
            # UpdateGuard already restored the Cloud weights; the canary
            # nodes must re-download the still-active version.
            active = self.registry.active.version
            events.extend(
                DeployEvent(stage_index, node_id, active, "rollback")
                for node_id in canaries
            )
        result = RolloutResult(
            stage_index=stage_index,
            report=report,
            decision=decision,
            promoted=decision.accepted,
            canary_ids=canaries,
            events=tuple(events),
            pooled_images=(
                pooled_images if pooled_images is not None else len(train_data)
            ),
        )
        self.history.append(result)
        return result
