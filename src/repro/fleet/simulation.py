"""End-to-end fleet simulation: N heterogeneous nodes, one Cloud.

The paper compares its Fig. 24 systems on one node's stream (Table II,
Fig. 25); here that node is a fleet of one (:func:`prepare_assets`).  A
fleet of N answers the question production actually asks: what happens
when N nodes with different environments, boards, and radios share one
backhaul and one Cloud-side training budget?

This module holds what every fleet run shares: the assets, the runtime
(Cloud, scheduler, nodes), the per-node stage body, and the two Cloud
steps.  The run itself is :mod:`repro.fleet.async_sim`'s event engine;
:func:`run_fleet` is its barrier mode over the flat fleet, the paper's
protocol per stage:

1. every node processes its own acquisition stage (inference + diagnosis,
   on its own device) against the model version it currently holds;
2. uploads contend for the shared backhaul (max-min fair flows, virtual
   time);
3. the Cloud pools uploads and the :class:`~repro.fleet.scheduler
   .FleetScheduler` decides whether to retrain, canary, and roll out —
   model push-downs travel (and are charged) over the same backhaul.

All four system variants run on identical per-node data and identical
initial weights (one warm start per set of assets), so the differences
between them are pure policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.fleet.async_sim import FleetEventReport

from repro.core.cloud import InSituCloud
from repro.core.node import InSituNode, NodeReport
from repro.core.registry import ModelRegistry, UpdateGuard
from repro.core.simulation import (
    NUM_PERMS,
    Scenario,
    build_cloud,
    make_diagnoser,
    scenario_data,
)
from repro.core.systems import SystemConfig
from repro.data.cache import dataset_cache
from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator
from repro.data.stream import AcquisitionStage, IoTStream
from repro.diagnosis.diagnoser import Diagnoser
from repro.fleet.profiles import FleetScenario, NodeProfile
from repro.nn import Sequential, workspace
from repro.nn.config import default_dtype
from repro.fleet.scheduler import FleetScheduler, RolloutResult
from repro.fleet.uplink import model_state_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.models.layer_specs import alexnet_spec, diagnosis_spec
from repro.models.iot_models import build_classifier
from repro.selfsup.permutations import PermutationSet
from repro.transfer.finetune import evaluate

__all__ = [
    "fleet_base_scenario",
    "FleetAssets",
    "FleetRuntime",
    "CloudStageOutcome",
    "build_fleet_runtime",
    "cloud_initialize",
    "cloud_try_update",
    "node_stage",
    "prepare_assets",
    "prepare_fleet_assets",
    "reseed_diagnoser",
    "run_fleet",
]

#: learning rate of every Cloud retrain a fleet's scheduler fires
UPDATE_LR = 0.008


def fleet_base_scenario(**overrides) -> Scenario:
    """A per-node scenario small enough to multiply by a fleet.

    The single-node default (``stream_scale=0.4``) is sized for one node;
    at 16-64 nodes the *fleet* provides the data volume, so each node's
    stream shrinks and the training knobs lighten accordingly.
    """
    defaults = dict(
        num_classes=4,
        stream_scale=0.05,
        pretrain_images=160,
        pretrain_epochs=2,
        init_epochs=4,
        update_epochs=2,
        eval_images=96,
        diagnoser_kind="oracle",
    )
    defaults.update(overrides)
    return Scenario(**defaults)


@dataclass
class FleetAssets:
    """Shared, pre-generated inputs every fleet system run consumes."""

    scenario: FleetScenario
    profiles: list[NodeProfile]
    node_stages: list[list[AcquisitionStage]]  # [node][stage]
    eval_data: Dataset
    permset: PermutationSet
    trunk_state: dict[str, np.ndarray]
    initial_state: dict[str, np.ndarray]
    canary_ids: tuple[int, ...]


def _node_stream(
    profile: NodeProfile,
    base: Scenario,
    class_schedule: tuple[tuple[int, ...], ...] | None,
) -> list[AcquisitionStage]:
    """One node's acquisition stages, memoized on the seed-keyed cache.

    Keyed per node (not per fleet), so fleet-size sweeps reuse the streams
    of every node profile they share.  The class schedule is part of the
    key: the same profile under a different phase plan is a different
    stream.  The segment is self-contained: its RNG and generator never
    escape, so no stream state needs restoring.
    """
    key = (
        "fleet-node-stream",
        profile.seed,
        profile.severities,
        base.num_classes,
        base.stream_scale,
        base.schedule_k,
        class_schedule,
        np.dtype(default_dtype()).str,
    )

    def build() -> list[AcquisitionStage]:
        rng = np.random.default_rng(profile.seed)
        generator = ImageGenerator(num_classes=base.num_classes, rng=rng)
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


def _warm_start(
    base: Scenario,
    permset: PermutationSet,
    pretrain_data: Dataset,
    node_stages: list[list[AcquisitionStage]],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """``(trunk_state, initial_state)`` every system variant starts from.

    Unsupervised pre-training of the context trunk, then the stage-0
    initialization on every node's first stage, pooled.  Both are
    policy-identical across the four variants, so a set of assets runs
    them once.

    The seed Cloud is discarded here, and with it the last user of its
    whole-batch training scratch, so the conv workspace is emptied before
    returning: the run after it (and every worker forked from it) grows
    only the buffers its own shapes ask for.  The prefix memo stays — its
    rows for the warm-started weights are what the first sweeps hit.
    """
    seed_cloud = build_cloud(base, permset, alexnet_spec())
    seed_cloud.unsupervised_pretrain(pretrain_data, epochs=base.pretrain_epochs)
    trunk_state = seed_cloud.context_net.state_dict()
    seed_cloud.initialize_inference(
        Dataset.concat([stages[0].new_data for stages in node_stages]),
        epochs=base.init_epochs,
    )
    initial_state = seed_cloud.model_state()
    workspace.reset()
    return trunk_state, initial_state


def prepare_assets(scenario: Scenario) -> FleetAssets:
    """The paper's single-node protocol as the assets of a one-node fleet.

    The node's stages, pre-training sample, eval set and permutations are
    the scenario's one stream (:func:`~repro.core.simulation
    .scenario_data`).  Its profile is neutral — WiFi, a full-clock TX1,
    the stream's own severities — and it is its own canary.  The guard
    tolerates any regression (``max_regression=1.0``): the paper's
    protocol deploys every update, with no canary veto.
    """
    data = scenario_data(scenario)
    stages = data["stages"]
    pretrain_data = data["pretrain_data"].as_unlabeled()
    profile = NodeProfile(
        node_id=0,
        device_kind="tx1",
        link_kind="wifi",
        severities=tuple(s.drift_severity for s in stages),
        seed=scenario.seed,
    )
    trunk_state, initial_state = _warm_start(
        scenario, data["permset"], pretrain_data, [stages]
    )
    return FleetAssets(
        scenario=FleetScenario(
            base=scenario,
            num_nodes=1,
            lte_fraction=0.0,
            low_power_fraction=0.0,
            severity_jitter=0.0,
            max_regression=1.0,
            seed=scenario.seed,
        ),
        profiles=[profile],
        node_stages=[stages],
        eval_data=data["eval_data"],
        permset=data["permset"],
        trunk_state=trunk_state,
        initial_state=initial_state,
        canary_ids=(0,),
    )


def prepare_fleet_assets(
    scenario: FleetScenario,
    *,
    class_schedule: tuple[tuple[int, ...], ...] | None = None,
) -> FleetAssets:
    """Generate per-node streams and the shared warm-start states.

    Pre-training and the stage-0 initialization are policy-identical
    across the four system variants, so they are computed once here —
    every variant starts from literally the same weights.
    ``class_schedule`` (one allowed-class tuple per stage) restricts
    every node's stream to the classes unlocked at each stage; the eval
    set keeps the full label space either way, which is what makes
    forgetting measurable.
    """
    base = scenario.base
    profiles = scenario.profiles()
    node_stages = [_node_stream(p, base, class_schedule) for p in profiles]
    eval_key = (
        "fleet-eval",
        scenario.seed,
        base.num_classes,
        base.eval_images,
        base.eval_severity,
        np.dtype(default_dtype()).str,
    )

    def build_eval() -> dict:
        # eval_data and permset consume one shared RNG stream, so they are
        # cached as a bundle; nothing downstream reads that stream after
        # the permutation set, so no end state needs to ride along.
        rng = np.random.default_rng(scenario.seed + 11)
        eval_generator = ImageGenerator(num_classes=base.num_classes, rng=rng)
        eval_data = make_dataset(
            base.eval_images,
            generator=eval_generator,
            drift=DriftModel(base.eval_severity, rng=rng),
            rng=rng,
        )
        permset = PermutationSet.generate(NUM_PERMS, rng=rng)
        return {"eval_data": eval_data, "permset": permset}

    eval_bundle = dataset_cache.get_or_build(eval_key, build_eval)
    eval_data = eval_bundle["eval_data"]
    permset = eval_bundle["permset"]
    pretrain_data = (
        Dataset.concat([stages[0].new_data for stages in node_stages])
        .take(base.pretrain_images)
        .as_unlabeled()
    )
    trunk_state, initial_state = _warm_start(
        base, permset, pretrain_data, node_stages
    )
    canary_rng = np.random.default_rng(scenario.seed + 17)
    num_canary = max(1, int(round(scenario.canary_fraction * scenario.num_nodes)))
    canary_ids = tuple(
        int(i)
        for i in sorted(
            canary_rng.choice(scenario.num_nodes, size=num_canary, replace=False)
        )
    )
    return FleetAssets(
        scenario=scenario,
        profiles=profiles,
        node_stages=node_stages,
        eval_data=eval_data,
        permset=permset,
        trunk_state=trunk_state,
        initial_state=initial_state,
        canary_ids=canary_ids,
    )


@dataclass
class FleetRuntime:
    """Live simulation objects one fleet run operates on.

    The event engine (:mod:`repro.fleet.async_sim`) drives one per run,
    whatever its mode, tier or hooks, so every run exercises literally
    the same Cloud, scheduler, and node machinery.
    """

    config: SystemConfig
    cloud: InSituCloud
    registry: ModelRegistry
    scheduler: FleetScheduler
    deployed_net: Sequential  # shared node-side classifier
    nodes: list[InSituNode]
    cloud_diagnoser: Diagnoser | None

    def eval_accuracy(self, eval_data: Dataset) -> float:
        """Accuracy of the Cloud model as it stands now on ``eval_data``.

        The engine scores the Cloud after every decision and at the
        end, mostly on weights that have not moved since the last score:
        there the prefix memo (:mod:`repro.nn.prefix_memo`) holds every
        image's conv rows, and only the FC tail runs again.
        """
        return evaluate(self.cloud.inference_net, eval_data)


def build_fleet_runtime(
    config: SystemConfig,
    assets: FleetAssets,
    *,
    canary_ids: tuple[int, ...] | None = None,
) -> FleetRuntime:
    """Construct the Cloud, scheduler, and nodes for one system variant.

    ``canary_ids`` overrides the asset-derived canary subset; the
    gateway event tier passes the canary gateway's children here so
    rollouts canary regionally instead of on the scenario's scattered
    sample.
    """
    scenario = assets.scenario
    base = scenario.base
    profiles = assets.profiles
    inference_spec = alexnet_spec()
    diag_spec = diagnosis_spec(inference_spec)

    cloud = build_cloud(base, assets.permset, inference_spec)
    cloud.context_net.load_state_dict(assets.trunk_state)
    cloud.inference_net.load_state_dict(assets.initial_state)

    registry = ModelRegistry()
    scheduler = FleetScheduler(
        cloud=cloud,
        registry=registry,
        guard=UpdateGuard(max_regression=scenario.max_regression),
        policy=scenario.scheduler_policy,
        canary_ids=(
            canary_ids if canary_ids is not None else assets.canary_ids
        ),
        upload_threshold=scenario.upload_threshold,
    )

    # One deployed network shared by every node: loading a node's current
    # version right before it runs keeps memory flat at fleet scale while
    # still letting the event mode hold different versions per node.
    deployed_net = build_classifier(
        base.num_classes, np.random.default_rng(base.seed + 5)
    )
    node_diagnoser = (
        make_diagnoser(base.diagnoser_kind, deployed_net, cloud, base)
        if config.diagnosis_location == "node"
        else None
    )
    cloud_diagnoser = (
        make_diagnoser(base.diagnoser_kind, cloud.inference_net, cloud, base)
        if config.diagnosis_location == "cloud"
        else None
    )
    nodes = [
        InSituNode(
            deployed_net,
            node_diagnoser,
            inference_spec=inference_spec,
            diagnosis_spec=diag_spec,
            gpu=profile.device,
        )
        for profile in profiles
    ]
    return FleetRuntime(
        config=config,
        cloud=cloud,
        registry=registry,
        scheduler=scheduler,
        deployed_net=deployed_net,
        nodes=nodes,
        cloud_diagnoser=cloud_diagnoser,
    )


@dataclass
class CloudStageOutcome:
    """What the Cloud did with one batch of pooled uploads."""

    pooled_for_training: int = 0
    updated: bool = False
    promoted: bool = False
    modeled_update_time_s: float = 0.0
    modeled_cloud_energy_j: float = 0.0
    push_bytes_per_node: dict[int, int] = field(default_factory=dict)
    push_unit_bytes: int = 0  # wire size of one model push
    rollout: RolloutResult | None = None


def cloud_initialize(
    stage_index: int,
    uploads: list[Dataset],
    *,
    runtime: FleetRuntime,
    base: Scenario,
    all_node_ids: tuple[int, ...],
) -> CloudStageOutcome:
    """Stage-0 protocol: pool every node's raw data, train v1, push to all."""
    cloud = runtime.cloud
    pool = Dataset.concat(uploads)
    cloud.archive = pool
    modeled_s, modeled_j = cloud.modeled_update_cost(
        len(pool), base.init_epochs, freeze_depth=0
    )
    version_state = cloud.model_state()
    runtime.registry.publish(
        version_state,
        {"stage": stage_index, "images": len(pool), "epochs": base.init_epochs},
    )
    push = model_state_bytes(version_state)
    outcome = CloudStageOutcome(
        pooled_for_training=len(pool),
        updated=True,
        promoted=True,
        modeled_update_time_s=modeled_s,
        modeled_cloud_energy_j=modeled_j,
        push_bytes_per_node={i: push for i in all_node_ids},
        push_unit_bytes=push,
    )
    _record_cloud_metrics(runtime, outcome, kind="init")
    return outcome


def cloud_try_update(
    stage_index: int,
    fleet_accuracy: float,
    canary_validation,
    *,
    runtime: FleetRuntime,
    base: Scenario,
    all_node_ids: tuple[int, ...],
) -> CloudStageOutcome:
    """Fire the scheduler policy against the pooled uploads, if it triggers.

    Uploads must already have been :meth:`FleetScheduler.offer`-ed.
    ``canary_validation`` is a zero-arg callable so the canary set is only
    materialized when a rollout actually happens.
    """
    cloud = runtime.cloud
    scheduler = runtime.scheduler
    outcome = CloudStageOutcome(
        push_bytes_per_node={i: 0 for i in all_node_ids}
    )
    if not scheduler.should_update(fleet_accuracy):
        return outcome
    pool = scheduler.drain()
    train_data = pool
    if runtime.cloud_diagnoser is not None:
        # System b: the Cloud pays an inference scan over every
        # uploaded image to find the valuable subset.
        scan_s, scan_j = cloud.modeled_scan_cost(len(pool))
        outcome.modeled_update_time_s += scan_s
        outcome.modeled_cloud_energy_j += scan_j
        flags = runtime.cloud_diagnoser.diagnose(pool)
        train_data = pool.subset(np.flatnonzero(flags))
    if len(train_data):
        rollout = scheduler.rollout(
            stage_index,
            train_data,
            canary_validation(),
            all_node_ids,
            weight_shared=runtime.config.weight_shared,
            epochs=base.update_epochs,
            lr=UPDATE_LR,
            pooled_images=len(pool),
        )
        outcome.updated = True
        outcome.promoted = rollout.promoted
        outcome.pooled_for_training = len(train_data)
        outcome.modeled_update_time_s += rollout.report.modeled_time_s
        outcome.modeled_cloud_energy_j += rollout.report.modeled_energy_j
        outcome.rollout = rollout
        push = model_state_bytes(cloud.model_state())
        outcome.push_unit_bytes = push
        for event in rollout.events:
            outcome.push_bytes_per_node[event.node_id] += push
        _record_cloud_metrics(runtime, outcome, kind="rollout")
    return outcome


def _record_cloud_metrics(
    runtime: FleetRuntime, outcome: CloudStageOutcome, *, kind: str
) -> None:
    """Account one Cloud update in the ambient registry (if any).

    Everything recorded here derives from modeled (virtual) cost and
    pooled counts, so the dump is identical across reruns and worker
    counts.
    """
    m = obs_metrics.active()
    if m is None:
        return
    sys_id = runtime.config.system_id
    m.counter("cloud.updates", kind=kind, system=sys_id).inc()
    if outcome.promoted:
        m.counter("cloud.promotions", system=sys_id).inc()
    m.counter("cloud.train_images", system=sys_id).inc(
        outcome.pooled_for_training
    )
    m.histogram("cloud.update_time_s", system=sys_id).observe(
        outcome.modeled_update_time_s
    )
    m.counter("cloud.push_bytes", system=sys_id).inc(
        sum(outcome.push_bytes_per_node.values())
    )


def reseed_diagnoser(
    diagnoser, base_seed: int, node_id: int, stage_index: int
) -> None:
    """Pin a diagnoser's randomness to ``(node, stage)``.

    Stochastic diagnosers (jigsaw sampling) historically consumed one RNG
    stream in whatever order nodes were processed, which couples results to
    scheduling.  Reseeding per (node, stage) makes every node's diagnosis a
    pure function of its identity — so serial, event-driven, and
    process-pool runs all see identical flags.  Deterministic diagnosers
    carry no ``rng`` attributes and are left untouched.
    """
    if diagnoser is None:
        return
    has_rng = hasattr(diagnoser, "rng")
    sampler = getattr(diagnoser, "sampler", None)
    if not has_rng and sampler is None:
        return
    children = np.random.SeedSequence(
        (base_seed, node_id, stage_index)
    ).spawn(2)
    if has_rng:
        diagnoser.rng = np.random.default_rng(children[0])
    if sampler is not None and hasattr(sampler, "rng"):
        sampler.rng = np.random.default_rng(children[1])




def node_stage(
    runtime: FleetRuntime,
    assets: FleetAssets,
    node_index: int,
    stage_index: int,
) -> NodeReport:
    """One node's stage against whatever its deployed net currently holds.

    The single per-node body of every fleet run: the event engine calls
    it inline and the pool workers call it on their forked copy of the
    runtime, so the ``NodeReport`` cannot depend on where a node ran.
    """
    node = runtime.nodes[node_index]
    reseed_diagnoser(
        node.diagnoser,
        assets.scenario.base.seed,
        assets.profiles[node_index].node_id,
        stage_index,
    )
    return node.process_stage(assets.node_stages[node_index][stage_index])


def run_fleet(
    config: SystemConfig,
    assets: FleetAssets,
    *,
    workers: int = 1,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FleetEventReport:
    """The paper's stage-by-stage protocol over the flat fleet.

    The event engine's barrier mode
    (:func:`~repro.fleet.async_sim.run_fleet_event` with
    ``barrier=True``): every node runs every stage, and a stage closes
    once the Cloud has updated and its pushes have landed.

    ``workers > 1`` runs each barrier round's node work on a
    :class:`repro.fleet.pool.FleetWorkerPool`, forked from this process
    with the run's runtime and ``assets`` already in memory.  Diagnosis
    randomness is seeded per (node, stage) and the engine emits every
    record in the parent, so any worker count gives the same report,
    trace and metrics.  The pool's workers are joined before this
    returns, whether the run completes or raises.  ``metrics`` is
    installed as the ambient registry for the run, as in
    :func:`~repro.fleet.async_sim.run_fleet_event`.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # Imported here: both modules import this one.
    from repro.fleet.async_sim import DirectEventTier, _EventFleet

    runtime = build_fleet_runtime(config, assets)
    pool = None
    if workers > 1:
        from repro.fleet.pool import FleetWorkerPool

        pool = FleetWorkerPool(runtime, assets, workers)
    try:
        with obs_metrics.use(metrics):
            return _EventFleet(
                config,
                assets,
                runtime,
                DirectEventTier(assets),
                horizon_s=None,
                barrier=True,
                tracer=tracer,
                pool=pool,
            ).run()
    finally:
        if pool is not None:
            pool.shutdown()

