"""End-to-end fleet simulation: N heterogeneous nodes, one Cloud.

This is ``core.simulation`` lifted to deployment scale.  The single-node
run answers "what does each Fig. 24 policy cost *per node*?"; the fleet
run answers the question production actually asks: what happens when N
nodes with different environments, boards, and radios share one backhaul
and one Cloud-side training budget?

The protocol per stage:

1. every node processes its own acquisition stage (inference + diagnosis,
   on its own device) against the currently deployed model version;
2. uploads contend for the shared backhaul (max-min fair, virtual time);
3. the Cloud pools uploads and the :class:`~repro.fleet.scheduler
   .FleetScheduler` decides whether to retrain, canary, and roll out —
   model push-downs travel (and are charged) over the same backhaul.

All four system variants run on identical per-node data and identical
initial weights, so fleet-level differences are pure policy — the same
discipline ``core.simulation.run_all_systems`` applies per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.fleet.pool import FleetWorkerPool

from repro.comm.link import JPEG_IMAGE_BYTES
from repro.comm.movement import DataMovementLedger
from repro.core.cloud import InSituCloud
from repro.core.node import InSituNode
from repro.core.registry import ModelRegistry, UpdateGuard
from repro.core.simulation import Scenario, build_cloud, make_diagnoser
from repro.core.systems import SYSTEMS, SystemConfig
from repro.data.cache import dataset_cache
from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator
from repro.data.stream import AcquisitionStage, IoTStream
from repro.diagnosis.diagnoser import Diagnoser
from repro.fleet.profiles import FleetScenario, NodeProfile
from repro.nn import Sequential
from repro.nn.config import default_dtype
from repro.nn.prefix_memo import params_digest
from repro.fleet.scheduler import FleetScheduler, RolloutResult
from repro.fleet.uplink import DirectTier, SharedUplink, model_state_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, make_event, make_span
from repro.models.layer_specs import alexnet_spec, diagnosis_spec
from repro.models.iot_models import build_classifier
from repro.selfsup.permutations import PermutationSet
from repro.transfer.finetune import evaluate

__all__ = [
    "fleet_base_scenario",
    "NodeStageRecord",
    "NodeTrajectory",
    "FleetStageRecord",
    "FleetReport",
    "FleetAssets",
    "FleetRuntime",
    "CloudStageOutcome",
    "build_fleet_runtime",
    "cloud_initialize",
    "cloud_try_update",
    "node_stage",
    "pooled_node_stage",
    "prepare_fleet_assets",
    "reseed_diagnoser",
    "run_fleet",
    "run_fleet_all_systems",
]


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


@dataclass(frozen=True)
class NodeStageRecord:
    """One node's view of one stage (deterministic fields only)."""

    stage_index: int
    node_id: int
    acquired: int
    uploaded: int
    accuracy_on_new: float
    upload_time_s: float  # under backhaul contention
    upload_solo_time_s: float  # same bytes, uncontended backhaul
    upload_energy_j: float
    node_compute_time_s: float
    node_compute_energy_j: float
    download_bytes: int
    download_energy_j: float


@dataclass
class NodeTrajectory:
    """Everything one node experienced over the whole run."""

    profile: NodeProfile
    records: list[NodeStageRecord] = field(default_factory=list)
    ledger: DataMovementLedger = field(
        default_factory=lambda: DataMovementLedger(image_bytes=JPEG_IMAGE_BYTES)
    )

    @property
    def total_upload_energy_j(self) -> float:
        return sum(r.upload_energy_j for r in self.records)

    @property
    def accuracy_trajectory(self) -> list[float]:
        return [r.accuracy_on_new for r in self.records]

    @property
    def contention_stretch(self) -> float:
        """Total contended upload time over total uncontended time."""
        solo = sum(r.upload_solo_time_s for r in self.records)
        if solo == 0:
            return 1.0
        return sum(r.upload_time_s for r in self.records) / solo


@dataclass(frozen=True)
class FleetStageRecord:
    """Aggregate bookkeeping for one stage across the fleet."""

    stage_index: int
    acquired: int
    uploaded: int
    pooled_for_training: int
    updated: bool
    promoted: bool
    fleet_accuracy_on_new: float  # mean node accuracy on fresh data
    eval_accuracy: float  # active model on the shared held-out set
    modeled_update_time_s: float
    modeled_cloud_energy_j: float
    upload_makespan_s: float
    download_bytes: int


@dataclass
class FleetReport:
    """Full outcome of one system variant's fleet run."""

    config: SystemConfig
    scenario: FleetScenario
    nodes: list[NodeTrajectory] = field(default_factory=list)
    stages: list[FleetStageRecord] = field(default_factory=list)
    rollouts: list[RolloutResult] = field(default_factory=list)
    ledger: DataMovementLedger = field(
        default_factory=lambda: DataMovementLedger(image_bytes=JPEG_IMAGE_BYTES)
    )
    registry: ModelRegistry = field(default_factory=ModelRegistry)

    @property
    def total_uploaded_bytes(self) -> int:
        return self.ledger.total_uploaded_bytes

    @property
    def total_downloaded_bytes(self) -> int:
        return self.ledger.total_downloaded_bytes

    @property
    def total_bytes_moved(self) -> int:
        return self.ledger.total_bytes_moved

    @property
    def total_update_time_s(self) -> float:
        return sum(s.modeled_update_time_s for s in self.stages)

    @property
    def total_cloud_energy_j(self) -> float:
        return sum(s.modeled_cloud_energy_j for s in self.stages)

    @property
    def total_transfer_energy_j(self) -> float:
        return sum(
            r.upload_energy_j + r.download_energy_j
            for t in self.nodes
            for r in t.records
        )

    @property
    def final_accuracy(self) -> float:
        return self.stages[-1].eval_accuracy if self.stages else 0.0

    @property
    def data_reduction_vs_full(self) -> float:
        return self.ledger.overall_reduction_vs_full()


@dataclass
class FleetAssets:
    """Shared, pre-generated inputs every fleet system run consumes."""

    scenario: FleetScenario
    profiles: list[NodeProfile]
    node_stages: list[list[AcquisitionStage]]  # [node][stage]
    eval_data: Dataset
    pretrain_data: Dataset
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
        base.image_size,
        base.num_classes,
        base.eval_images,
        base.eval_severity,
        base.num_perms,
        np.dtype(default_dtype()).str,
    )

    def build_eval() -> dict:
        # eval_data and permset consume one shared RNG stream, so they are
        # cached as a bundle; nothing downstream reads that stream after
        # the permutation set, so no end state needs to ride along.
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
    stage0_pool = Dataset.concat([stages[0].new_data for stages in node_stages])
    seed_cloud.initialize_inference(
        stage0_pool,
        epochs=base.init_epochs,
        batch_size=base.batch_size,
        lr=base.init_lr,
    )
    initial_state = seed_cloud.model_state()
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
        pretrain_data=pretrain_data,
        permset=permset,
        trunk_state=trunk_state,
        initial_state=initial_state,
        canary_ids=canary_ids,
    )


@dataclass
class FleetRuntime:
    """Live simulation objects one fleet run operates on.

    Shared by the lockstep :func:`run_fleet` and the event-driven
    :func:`repro.fleet.async_sim.run_fleet_event`, so both modes exercise
    literally the same Cloud, scheduler, and node machinery.
    """

    config: SystemConfig
    cloud: InSituCloud
    registry: ModelRegistry
    scheduler: FleetScheduler
    deployed_net: Sequential  # shared node-side classifier
    nodes: list[InSituNode]
    cloud_diagnoser: Diagnoser | None
    #: observability sink threaded through both fleet modes; ``None``
    #: keeps every instrumentation site a cheap no-op.
    metrics: MetricsRegistry | None = None
    _eval_memo: dict[tuple[int, bytes], float] = field(
        default_factory=dict, repr=False
    )

    def eval_accuracy(self, eval_data: Dataset) -> float:
        """Accuracy of the Cloud model as it stands now on ``eval_data``.

        Both engines score the Cloud after every stage / decision and at
        the end, mostly on weights that have not moved since the last
        score.  The memo is keyed on the parameter *bytes*, so however
        the weights got there (retrain, rollback, reconcile, head load)
        equal content is one forward sweep and different content never
        reads a stale score.  ``eval_data`` must outlive the runtime (a
        run's assets do): it is told apart by identity.
        """
        net = self.cloud.inference_net
        key = (id(eval_data), params_digest(net.layers))
        if key not in self._eval_memo:
            self._eval_memo[key] = evaluate(net, eval_data)
        return self._eval_memo[key]


def build_fleet_runtime(
    config: SystemConfig,
    assets: FleetAssets,
    *,
    metrics: MetricsRegistry | None = None,
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
    guard = UpdateGuard(
        validation_data=assets.eval_data,
        max_regression=scenario.max_regression,
    )
    scheduler = FleetScheduler(
        cloud=cloud,
        registry=registry,
        guard=guard,
        policy=scenario.scheduler_policy,
        canary_ids=(
            canary_ids if canary_ids is not None else assets.canary_ids
        ),
        upload_threshold=scenario.upload_threshold,
        accuracy_drop=scenario.accuracy_drop,
    )

    # One deployed network shared by every node: loading a node's current
    # version right before it runs keeps memory flat at fleet scale while
    # still letting the event mode hold different versions per node.
    deployed_net = build_classifier(
        base.num_classes,
        np.random.default_rng(base.seed + 5),
        width=base.width,
        hidden=base.hidden,
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
        metrics=metrics,
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


def rollback_attrs(outcome: CloudStageOutcome) -> dict:
    """Additive ``cloud/decision`` attrs explaining a canary rollback.

    Both engines (the lockstep stage loop and the event engine, with or
    without gateways or scenario hooks) emit their decision events
    through this one helper so the rollback ``cause`` / ``delta`` attrs
    stay byte-identical across flat and passthrough paths.  Empty for
    promotions and no-ops, so existing decision events keep their exact
    attr set.
    """
    if not outcome.updated or outcome.promoted or outcome.rollout is None:
        return {}
    decision = outcome.rollout.decision
    if decision.accepted:
        return {}
    return {
        "cause": "canary-regression",
        "delta": round(decision.delta, 6),
    }


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
    pool, pooled_count = scheduler.drain()
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
            batch_size=base.batch_size,
            lr=base.update_lr,
            pooled_images=pooled_count,
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
    """Account one Cloud update in the runtime's registry (if any).

    Everything recorded here derives from modeled (virtual) cost and
    pooled counts, so the dump is identical across reruns and worker
    counts.
    """
    m = runtime.metrics
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
    pure function of its identity — so the lockstep, event-driven, and
    process-pool paths all see identical flags.  Deterministic diagnosers
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
    *,
    trace_t0: float | None,
) -> tuple:
    """One node's stage against whatever its deployed net currently holds.

    The single per-node body of every lockstep run: the serial loop and
    the pool workers both call it, so ``(NodeReport, records)`` cannot
    depend on where a node ran — the parent merges the per-(node, stage)
    results in fixed node order, making reports and trace bytes
    identical for every worker count.

    ``records`` are the node's trace records stamped at virtual time
    ``trace_t0`` (``None`` = tracing off, no records).
    """
    node = runtime.nodes[node_index]
    profile = assets.profiles[node_index]
    reseed_diagnoser(
        node.diagnoser, assets.scenario.base.seed, profile.node_id, stage_index
    )
    node_report = node.process_stage(assets.node_stages[node_index][stage_index])
    if trace_t0 is None:
        return node_report, None
    compute_s = node_report.inference_time_s + node_report.diagnosis_time_s
    attrs = dict(
        node=profile.node_id,
        stage=stage_index,
        system=runtime.config.system_id,
    )
    return node_report, [
        make_span(
            "node",
            "compute",
            trace_t0,
            trace_t0 + compute_s,
            inference_s=node_report.inference_time_s,
            diagnosis_s=node_report.diagnosis_time_s,
            **attrs,
        ),
        make_event(
            "node",
            "diagnosis",
            trace_t0 + compute_s,
            acquired=node_report.acquired_images,
            flagged=node_report.flagged_images,
            **attrs,
        ),
    ]


def pooled_node_stage(
    pool: "FleetWorkerPool",
    stage_index: int,
    node_items: list[tuple[int, dict[str, np.ndarray]]],
    *,
    trace_t0: float | None = None,
) -> dict[int, tuple]:
    """Run one stage's per-node compute on the run's worker pool.

    ``node_items`` pairs each node index with the model state it should
    run under.  States are published to the pool (interned —
    republishing the same dict object returns the same token), so tasks
    carry ``(node_index, token)`` plus the trace stamps and each chunk
    carries the states its tokens name.  Returns
    ``{node_index: (NodeReport, records)}``; the stage loop iterates
    node indices in fixed order, which keeps reports and trace bytes
    identical to the serial path at any worker count.
    """
    from repro.fleet.pool import PoolTask

    tasks = [
        PoolTask(node_index=i, state=pool.publish(state), trace_t0=trace_t0)
        for i, state in node_items
    ]
    return pool.run_stage(stage_index, tasks)


def run_fleet(
    config: SystemConfig,
    assets: FleetAssets,
    *,
    workers: int = 1,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FleetReport:
    """Replay the whole flat fleet schedule for one system variant.

    ``workers > 1`` runs the per-node inference/diagnosis epochs on a
    :class:`repro.fleet.pool.FleetWorkerPool`: workers are forked from
    this process with the run's runtime and ``assets`` already in
    memory, and each stage ships per-worker chunks of small (node,
    token) work items together with the model weights they name.
    Results are keyed by node index and merged in fixed node order, and
    all diagnosis randomness is seeded per (node, stage), so every
    worker count produces bit-identical reports.  The pool is shut down
    — its workers joined — before returning, whether the run completes
    or raises.

    ``tracer`` collects virtual-time spans for the whole run (stage spans
    are stamped from the reconstructed lockstep timeline, so the stream is
    byte-identical across worker counts); ``metrics`` threads a registry
    through the runtime and the ambient :func:`repro.obs.metrics.use`
    scope.  Both default to off with zero overhead.

    Hierarchical fleets (a :class:`repro.topology.Topology`) run only on
    the event engine: ``run_fleet_event(..., barrier=True,
    topology=...)`` is their lockstep run.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    runtime = build_fleet_runtime(config, assets, metrics=metrics)
    pool = None
    if workers > 1:
        # Imported here: repro.fleet.pool imports this module.
        from repro.fleet.pool import FleetWorkerPool

        pool = FleetWorkerPool(runtime, assets, workers)
    try:
        with obs_metrics.use(metrics):
            return _run_fleet_schedule(
                config, assets, runtime, pool, tracer=tracer
            )
    finally:
        if pool is not None:
            pool.shutdown()


def _run_fleet_schedule(
    config: SystemConfig,
    assets: FleetAssets,
    runtime: FleetRuntime,
    pool: "FleetWorkerPool | None",
    *,
    tracer: Tracer | None = None,
) -> FleetReport:
    """The one lockstep stage loop, over the flat fleet.

    Transport ("node upload -> Cloud arrival" and "Cloud push -> node")
    is :class:`~repro.fleet.uplink.DirectTier`'s.  Everything else —
    node compute, upload selection, the Cloud step, records, ledgers,
    ``fleet.*`` metrics — is here and nowhere else.  Every node takes
    part in every stage: the paper's protocol, with no extension seam.
    """
    scenario = assets.scenario
    base = scenario.base
    profiles = assets.profiles
    registry = runtime.registry
    scheduler = runtime.scheduler
    sys_id = config.system_id
    if tracer is None:
        tracer = Tracer(enabled=False)
    uplink = DirectTier(config, assets, SharedUplink(scenario.backhaul_bps))

    report = FleetReport(config=config, scenario=scenario, registry=registry)
    report.nodes = [NodeTrajectory(profile=p) for p in profiles]
    index_of = {p.node_id: i for i, p in enumerate(profiles)}
    num_stages = len(assets.node_stages[0])
    nodes = tuple(range(len(profiles)))
    node_ids = tuple(p.node_id for p in profiles)
    # The model state each node runs.  A landed push moves a node to the
    # registry's active state, and a canary rollout reaches only some
    # nodes, so versions can diverge across the fleet.
    node_states = [assets.initial_state] * len(profiles)
    # Virtual stage cursor: spans are stamped from the same barrier
    # timeline lockstep_timeline() reconstructs, so the trace stream is a
    # pure function of the report — identical for any worker count.
    cursor = 0.0

    for s in range(num_stages):
        is_initial = s == 0
        stage_start = cursor

        # --- node compute ---------------------------------------------
        trace_t0 = stage_start if tracer.enabled else None
        if pool is None:
            by_index = {}
            loaded = None
            for i in nodes:
                if node_states[i] is not loaded:
                    loaded = node_states[i]
                    runtime.deployed_net.load_state_dict(loaded)
                by_index[i] = node_stage(
                    runtime, assets, i, s, trace_t0=trace_t0
                )
        else:
            by_index = pooled_node_stage(
                pool,
                s,
                [(i, node_states[i]) for i in nodes],
                trace_t0=trace_t0,
            )
        node_reports = {}
        for i in nodes:
            node_reports[i], records = by_index[i]
            if records is not None:
                tracer.extend(records)

        # --- uploads --------------------------------------------------
        # Systems without node-side diagnosis ship the raw stage data, not
        # the flagged subset; stage 0 is the initialization upload for all.
        uploads: dict[int, Dataset] = {}
        upload_counts: dict[int, int] = {}
        for i in nodes:
            if is_initial or config.uploads_everything:
                uploads[i] = assets.node_stages[i][s].new_data
                upload_counts[i] = node_reports[i].acquired_images
            else:
                uploads[i] = node_reports[i].upload_data
                upload_counts[i] = len(uploads[i])
        compute_times = {
            i: r.inference_time_s + r.diagnosis_time_s
            for i, r in node_reports.items()
        }
        uploads_start = stage_start + max(compute_times.values(), default=0.0)
        up = uplink.upload(
            s, nodes, uploads, upload_counts, uploads_start, tracer=tracer
        )
        fleet_accuracy = float(
            np.mean([node_reports[i].accuracy_before_update for i in nodes])
        )

        # --- cloud side ----------------------------------------------
        if is_initial:
            outcome = cloud_initialize(
                s,
                [e.data for e in up.entries],
                runtime=runtime,
                base=base,
                all_node_ids=node_ids,
            )
        else:
            for entry in up.entries:
                scheduler.offer(entry.stage_index, entry.node_id, entry.data)
            canaries = scheduler.canaries_among(node_ids)
            outcome = cloud_try_update(
                s,
                fleet_accuracy,
                lambda: Dataset.concat(
                    [
                        assets.node_stages[index_of[c]][s].new_data
                        for c in canaries
                    ]
                ),
                runtime=runtime,
                base=base,
                all_node_ids=node_ids,
            )
        push_bytes = outcome.push_bytes_per_node

        # --- stage timeline tail: cloud update, then model push-down ---
        update_end = up.arrival_s + outcome.modeled_update_time_s
        if outcome.modeled_update_time_s > 0:
            tracer.span(
                "cloud",
                "init" if is_initial else "update",
                up.arrival_s,
                update_end,
                stage=s,
                system=sys_id,
                pooled=outcome.pooled_for_training,
                promoted=outcome.promoted,
            )
        tracer.event(
            "cloud",
            "decision",
            update_end,
            stage=s,
            system=sys_id,
            updated=outcome.updated,
            promoted=outcome.promoted,
            **rollback_attrs(outcome),
        )
        cursor = update_end + uplink.push(
            s, nodes, push_bytes, update_end, tracer=tracer
        )
        for i in nodes:
            if push_bytes[profiles[i].node_id]:
                node_states[i] = registry.active.state

        # --- per-node records -----------------------------------------
        acquired = sum(r.acquired_images for r in node_reports.values())
        uploaded = sum(upload_counts.values())
        pushed_bytes = 0
        for i in nodes:
            node_report = node_reports[i]
            link = profiles[i].link
            pushed = push_bytes[profiles[i].node_id]
            pushed_bytes += pushed
            trajectory = report.nodes[i]
            trajectory.records.append(
                NodeStageRecord(
                    stage_index=s,
                    node_id=profiles[i].node_id,
                    acquired=node_report.acquired_images,
                    uploaded=upload_counts[i],
                    accuracy_on_new=node_report.accuracy_before_update,
                    upload_time_s=up.times[i],
                    upload_solo_time_s=up.solo_times[i],
                    upload_energy_j=link.image_upload_energy_j(
                        upload_counts[i]
                    ),
                    node_compute_time_s=compute_times[i],
                    node_compute_energy_j=node_report.node_energy_j,
                    download_bytes=pushed,
                    download_energy_j=link.model_push_energy_j(pushed),
                )
            )
            trajectory.ledger.record(
                s, node_report.acquired_images, upload_counts[i]
            )
            if pushed:
                trajectory.ledger.record_download(s, pushed)
            report.ledger.record(
                s, node_report.acquired_images, upload_counts[i]
            )
        if pushed_bytes:
            report.ledger.record_download(s, pushed_bytes)

        report.stages.append(
            FleetStageRecord(
                stage_index=s,
                acquired=acquired,
                uploaded=uploaded,
                pooled_for_training=outcome.pooled_for_training,
                updated=outcome.updated,
                promoted=outcome.promoted,
                fleet_accuracy_on_new=fleet_accuracy,
                eval_accuracy=runtime.eval_accuracy(assets.eval_data),
                modeled_update_time_s=outcome.modeled_update_time_s,
                modeled_cloud_energy_j=outcome.modeled_cloud_energy_j,
                upload_makespan_s=up.makespan_s,
                download_bytes=pushed_bytes,
            )
        )
        m = runtime.metrics
        if m is not None:
            m.counter("fleet.stages", system=sys_id).inc()
            m.counter("fleet.images.acquired", system=sys_id).inc(acquired)
            m.counter("fleet.images.flagged", system=sys_id).inc(
                sum(r.flagged_images for r in node_reports.values())
            )
            m.counter("fleet.images.uploaded", system=sys_id).inc(uploaded)
            hist = m.histogram("fleet.upload_time_s", system=sys_id)
            for i in nodes:
                hist.observe(up.times[i])
            snap = report.ledger.snapshot()
            m.gauge("fleet.bytes.uploaded", system=sys_id).set(
                snap.uploaded_bytes
            )
            m.gauge("fleet.bytes.downloaded", system=sys_id).set(
                snap.downloaded_bytes
            )
    report.rollouts = list(scheduler.history)
    return report


def run_fleet_all_systems(
    scenario: FleetScenario,
    *,
    workers: int = 1,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> dict[str, FleetReport]:
    """Run every Fig. 24 variant over the same fleet, data, and weights.

    A shared ``tracer``/``metrics`` collects all four variants into one
    stream; every record carries a ``system`` attribute or label, so the
    variants stay separable downstream.

    ``workers > 1`` forks each variant its own workers (~10 ms per
    variant against runs of seconds); see :func:`run_fleet`.
    """
    assets = prepare_fleet_assets(scenario)
    return {
        config.system_id: run_fleet(
            config,
            assets,
            workers=workers,
            tracer=tracer,
            metrics=metrics,
        )
        for config in SYSTEMS
    }
