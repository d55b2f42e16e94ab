"""Per-node-group head specialization on top of a shared CONV trunk.

After every promoted fleet-wide rollout, each node group retrains the FC
head (``FreezePlan(5)`` — conv trunk locked) on the group's own current
stage data.  A specialized head is accepted only if it does not regress
against the shared model *on that same group data* by more than the
configured margin; accepted heads are published to the model registry on
a side track (``head-<g>``), so canary/rollout bookkeeping sees every
specialized lineage as distinct versions without ever activating one as
the fleet-wide model.

Only the FC-head bytes travel on the push-down: the trunk the nodes
already hold is, by construction, the just-promoted shared trunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cloud import BATCH_SIZE
from repro.core.registry import ModelRegistry
from repro.data.datasets import Dataset
from repro.fleet.simulation import FleetAssets
from repro.fleet.uplink import model_state_bytes
from repro.models.iot_models import build_classifier
from repro.models.registry import merge_head_state, split_head_state
from repro.nn import Sequential
from repro.scenario.processes import ScenarioPlans
from repro.scenario.schema import HeadSpec, ScenarioSpec
from repro.transfer.finetune import evaluate, train_classifier
from repro.transfer.surgery import FreezePlan

__all__ = ["HeadUpdate", "build_head_net", "run_head_updates"]

#: learning rate of a head specialization
HEAD_LR = 0.02

#: how far below the shared model a specialized head may score on its
#: group's data and still be accepted
HEAD_MAX_REGRESSION = 0.05

#: seed-sequence salt separating head-training RNG from every other stream
_HEAD_SALT = 271


@dataclass(frozen=True)
class HeadUpdate:
    """Outcome of one group's head-specialization attempt at one stage."""

    stage_index: int
    group: int
    base_version: int  # the shared version the head sits on
    accepted: bool
    accuracy_shared: float  # shared model on the group's stage data
    accuracy_head: float  # specialized head on the same data
    version: int | None  # registry version on track head-<g> (if accepted)
    push_bytes: int  # FC-head-only bytes pushed to each member
    member_ids: tuple[int, ...]  # alive members that receive the head
    state: dict[str, np.ndarray] | None = field(repr=False, default=None)


def build_head_net(spec: ScenarioSpec) -> Sequential:
    """The scratch network head training runs on (weights always loaded)."""
    base = spec.fleet.base
    return build_classifier(
        base.num_classes, np.random.default_rng(base.seed + 29)
    )


def run_head_updates(
    spec: ScenarioSpec,
    plans: ScenarioPlans,
    assets: FleetAssets,
    registry: ModelRegistry,
    scratch_net: Sequential,
    *,
    stage_index: int,
    alive_ids: tuple[int, ...],
) -> list[HeadUpdate]:
    """Attempt one head specialization per group after a promoted rollout.

    Deterministic by construction: groups run in index order, each with
    its own ``SeedSequence((seed, stage, group, salt))`` RNG, and nothing
    here touches the cloud's RNG or inference network — both scenario
    engines call this identically and get identical results.
    """
    head_spec: HeadSpec | None = spec.heads
    if head_spec is None or plans.heads is None:
        return []
    shared = registry.active
    alive = frozenset(alive_ids)
    updates: list[HeadUpdate] = []
    for group in range(plans.heads.num_groups):
        members = tuple(
            i for i in plans.heads.members(group) if i in alive
        )
        if not members:
            continue
        group_data = Dataset.concat(
            [assets.node_stages[i][stage_index].new_data for i in members]
        )
        scratch_net.load_state_dict(shared.state)
        accuracy_shared = evaluate(scratch_net, group_data)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (spec.fleet.seed, stage_index, group, _HEAD_SALT)
            )
        )
        train_classifier(
            scratch_net,
            group_data,
            epochs=head_spec.epochs,
            batch_size=BATCH_SIZE,
            lr=HEAD_LR,
            rng=rng,
            freeze_plan=FreezePlan(5),
        )
        accuracy_head = evaluate(scratch_net, group_data)
        accepted = accuracy_head >= accuracy_shared - HEAD_MAX_REGRESSION
        version = None
        push_bytes = 0
        merged = None
        if accepted:
            _, head = split_head_state(scratch_net.state_dict())
            merged = merge_head_state(shared.state, head)
            entry = registry.publish(
                merged,
                {
                    "head_group": group,
                    "stage": stage_index,
                    "base_version": shared.version,
                    "members": list(members),
                },
                track=f"head-{group}",
            )
            version = entry.version
            push_bytes = model_state_bytes(head)
        updates.append(
            HeadUpdate(
                stage_index=stage_index,
                group=group,
                base_version=shared.version,
                accepted=accepted,
                accuracy_shared=float(accuracy_shared),
                accuracy_head=float(accuracy_head),
                version=version,
                push_bytes=push_bytes,
                member_ids=members,
                state=merged,
            )
        )
    return updates
