"""Scenario asset preparation: fleet assets with class-incremental streams.

A scenario without a class-incremental process consumes the plain
:func:`repro.fleet.simulation.prepare_fleet_assets` output — cache keys
and bytes identical to a bare fleet run.  With one, every node's stream
draws labels from the phase plan's per-stage allowed classes, so early
stages contain only the unlocked class groups; the held-out eval set
keeps the full label space (that is what makes forgetting measurable).
"""

from __future__ import annotations

import numpy as np

from repro.core.simulation import Scenario, build_cloud
from repro.data.cache import dataset_cache
from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator
from repro.data.stream import AcquisitionStage, IoTStream
from repro.fleet.profiles import NodeProfile
from repro.fleet.simulation import FleetAssets, prepare_fleet_assets
from repro.models.layer_specs import alexnet_spec
from repro.nn.config import default_dtype
from repro.scenario.processes import ClassPhasePlan
from repro.scenario.schema import ScenarioSpec
from repro.selfsup.permutations import PermutationSet

__all__ = ["prepare_scenario_assets"]


def _scheduled_node_stream(
    profile: NodeProfile,
    base: Scenario,
    class_schedule: tuple[tuple[int, ...], ...],
) -> list[AcquisitionStage]:
    """One node's class-scheduled acquisition stages, cache-memoized.

    The schedule is part of the cache key: the same profile with a
    different phase plan is a different stream.
    """
    key = (
        "scenario-node-stream",
        profile.seed,
        profile.severities,
        base.image_size,
        base.num_classes,
        base.stream_scale,
        base.schedule_k,
        class_schedule,
        np.dtype(default_dtype()).str,
    )

    def build() -> list[AcquisitionStage]:
        rng = np.random.default_rng(profile.seed)
        generator = ImageGenerator(base.image_size, base.num_classes, rng=rng)
        stream = IoTStream(
            generator,
            scale=base.stream_scale,
            schedule_k=base.schedule_k,
            severities=profile.severities,
            rng=rng,
            class_schedule=class_schedule,
        )
        return stream.stages()

    return dataset_cache.get_or_build(key, build)


def prepare_scenario_assets(spec: ScenarioSpec) -> FleetAssets:
    """Fleet assets for one scenario replicate.

    Mirrors :func:`prepare_fleet_assets` step for step (pretrain on the
    pooled stage-0 data, shared warm-start weights, seeded canary draw)
    so a scenario with no class-incremental process hits the exact same
    cached artifacts as a bare fleet run.
    """
    if spec.class_incremental is None:
        return prepare_fleet_assets(spec.fleet)

    scenario = spec.fleet
    base = scenario.base
    plan = ClassPhasePlan.build(spec.class_incremental)
    schedule = plan.schedule(len(base.schedule_k))
    profiles = scenario.profiles()
    node_stages = [
        _scheduled_node_stream(p, base, schedule) for p in profiles
    ]
    eval_key = (
        "fleet-eval",
        scenario.seed,
        base.image_size,
        base.num_classes,
        base.eval_images,
        base.eval_severity,
        base.num_perms,
        np.dtype(default_dtype()).str,
    )

    def build_eval() -> dict:
        # Identical to the flat fleet's eval bundle (full label space, on
        # purpose) — and under the same key, so it is shared with it.
        rng = np.random.default_rng(scenario.seed + 11)
        eval_generator = ImageGenerator(
            base.image_size, base.num_classes, rng=rng
        )
        eval_data = make_dataset(
            base.eval_images,
            generator=eval_generator,
            drift=DriftModel(base.eval_severity, rng=rng),
            rng=rng,
        )
        permset = PermutationSet.generate(base.num_perms, rng=rng)
        return {"eval_data": eval_data, "permset": permset}

    eval_bundle = dataset_cache.get_or_build(eval_key, build_eval)
    eval_data = eval_bundle["eval_data"]
    permset = eval_bundle["permset"]
    pretrain_data = (
        Dataset.concat([stages[0].new_data for stages in node_stages])
        .take(base.pretrain_images)
        .as_unlabeled()
    )
    seed_cloud = build_cloud(base, permset, alexnet_spec())
    seed_cloud.unsupervised_pretrain(
        pretrain_data, epochs=base.pretrain_epochs, batch_size=base.batch_size
    )
    trunk_state = seed_cloud.context_net.state_dict()
    stage0_pool = Dataset.concat(
        [stages[0].new_data for stages in node_stages]
    )
    seed_cloud.initialize_inference(
        stage0_pool,
        epochs=base.init_epochs,
        batch_size=base.batch_size,
        lr=base.init_lr,
    )
    initial_state = seed_cloud.model_state()
    canary_rng = np.random.default_rng(scenario.seed + 17)
    num_canary = max(
        1, int(round(scenario.canary_fraction * scenario.num_nodes))
    )
    canary_ids = tuple(
        int(i)
        for i in sorted(
            canary_rng.choice(
                scenario.num_nodes, size=num_canary, replace=False
            )
        )
    )
    return FleetAssets(
        scenario=scenario,
        profiles=profiles,
        node_stages=node_stages,
        eval_data=eval_data,
        pretrain_data=pretrain_data,
        permset=permset,
        trunk_state=trunk_state,
        initial_state=initial_state,
        canary_ids=canary_ids,
    )
