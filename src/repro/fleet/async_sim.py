"""The fleet engine: node and Cloud processes on the ``repro.events`` kernel.

The paper's system is asynchronous — each node flags and uploads on its
own schedule while the Cloud retrains and pushes updates concurrently.
This module simulates exactly that in virtual time:

* every node is a kernel **process** looping acquisition epochs (sense ->
  infer/diagnose -> upload) at its own pace;
* uploads are **dynamic flows** on the shared backhaul
  (:class:`~repro.events.FlowLink`): flows join and leave mid-transfer and
  the max-min fair rates are recomputed at every arrival/completion;
* the Cloud is a process that pools arrivals, retrains in virtual time,
  and pushes canary/fleet rollouts down the (symmetric) backhaul as flows
  — all while fast nodes keep inferring and uploading.

Two reference behaviors anchor the model:

* ``barrier=True`` re-inserts the epoch barrier: every node waits until
  the Cloud has closed the round, which is the paper's stage-by-stage
  protocol.  :func:`~repro.fleet.simulation.run_fleet` is this mode over
  the flat fleet, Table II / Fig. 25 (:func:`run_all_systems`) are this
  mode over a one-node fleet, and it is the lockstep run of every
  hierarchy and scenario;
* ``horizon_s`` bounds the run in virtual time instead of epoch count:
  nodes cycle their acquisition schedule until the horizon, so a WiFi
  node completes strictly more epochs than an LTE neighbor — the
  behavior the barrier structurally hides.

There is one engine, :class:`_EventFleet`; what a topology or a
scenario changes is its *tier* (transport) or *hooks* (per-round
behaviour) argument, never the node or Cloud processes.  ``run_fleet``
may also hand it a worker pool, which runs each barrier round's node
work in forked processes; the engine emits every record itself.

Determinism: everything runs on the deterministic kernel and all
randomness derives from the scenario seed, so a given (assets, config,
mode) always produces the identical report.

Metrics: the engine, its links and its tiers hold no registry.  Each
recording site reads the ambient one (:func:`repro.obs.metrics.active`),
and :func:`run_fleet_event` / :func:`~repro.fleet.simulation.run_fleet`
install their ``metrics=`` argument around the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.link import JPEG_IMAGE_BYTES, NetworkLink
from repro.comm.movement import DataMovementLedger
from repro.core.registry import ModelRegistry
from repro.core.simulation import Scenario
from repro.core.systems import SYSTEMS, SystemConfig
from repro.data.datasets import Dataset
from repro.events import FlowLink, Simulator, Store
from repro.fleet.profiles import FleetScenario, NodeProfile
from repro.fleet.scheduler import RolloutResult
from repro.fleet.simulation import (
    CloudStageOutcome,
    FleetAssets,
    FleetRuntime,
    build_fleet_runtime,
    cloud_initialize,
    cloud_try_update,
    node_stage,
    prepare_assets,
)
from repro.fleet.uplink import BACKHAUL_BPS
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "DirectEventTier",
    "EpochRecord",
    "EventHooks",
    "NodeEventTrajectory",
    "CloudUpdateRecord",
    "FleetEventReport",
    "run_all_systems",
    "run_fleet_event",
]


@dataclass(frozen=True)
class EpochRecord:
    """One completed acquisition epoch at one node (event mode)."""

    epoch: int
    stage_index: int  # index into the node's pre-generated stage list
    node_id: int
    start_s: float
    acquired: int
    uploaded: int
    accuracy_on_new: float
    compute_time_s: float
    upload_start_s: float
    upload_done_s: float  # flow completion, access latency included
    upload_energy_j: float
    node_compute_energy_j: float

    @property
    def upload_bytes(self) -> int:
        return self.uploaded * JPEG_IMAGE_BYTES

    @property
    def upload_wait_s(self) -> float:
        """Time the node sat blocked on the uplink for this epoch."""
        return self.upload_done_s - self.upload_start_s


@dataclass
class NodeEventTrajectory:
    """Everything one node experienced over an event-driven run."""

    profile: NodeProfile
    records: list[EpochRecord] = field(default_factory=list)
    ledger: DataMovementLedger = field(
        default_factory=lambda: DataMovementLedger(image_bytes=JPEG_IMAGE_BYTES)
    )
    download_energy_j: float = 0.0
    finish_s: float = 0.0

    @property
    def download_bytes(self) -> int:
        """Model bytes this node downloaded (its ledger's count)."""
        return self.ledger.total_downloaded_bytes

    @property
    def epochs_completed(self) -> int:
        return len(self.records)

    @property
    def blocked_on_uplink_s(self) -> float:
        return sum(r.upload_wait_s for r in self.records)

    @property
    def accuracy_trajectory(self) -> list[float]:
        return [r.accuracy_on_new for r in self.records]

    @property
    def total_upload_energy_j(self) -> float:
        return sum(r.upload_energy_j for r in self.records)


@dataclass(frozen=True)
class CloudUpdateRecord:
    """One Cloud-side update (initialization or guarded rollout).

    ``kind="scan"`` is a round in which system b's Cloud scanned the pool
    and flagged nothing: it trained nothing, but the scan's time and
    energy are spent all the same.
    """

    kind: str  # "init" | "rollout" | "scan"
    stage_index: int
    trigger_s: float
    complete_s: float
    pooled_for_training: int
    promoted: bool
    modeled_time_s: float
    modeled_energy_j: float
    eval_accuracy: float


@dataclass
class FleetEventReport:
    """Full outcome of one event-driven fleet run."""

    config: SystemConfig
    scenario: FleetScenario
    mode: str  # "event" | "event-barrier"
    horizon_s: float | None
    nodes: list[NodeEventTrajectory] = field(default_factory=list)
    updates: list[CloudUpdateRecord] = field(default_factory=list)
    rollouts: list[RolloutResult] = field(default_factory=list)
    registry: ModelRegistry = field(default_factory=ModelRegistry)
    ledger: DataMovementLedger = field(
        default_factory=lambda: DataMovementLedger(image_bytes=JPEG_IMAGE_BYTES)
    )
    makespan_s: float = 0.0
    final_eval_accuracy: float = 0.0
    #: hierarchical runs only: the executed repro.topology.Topology, the
    #: per-flush WAN records, any images still parked at gateways when
    #: the run ended, and the images each gateway's second opinion
    #: settled.  Flat runs leave all four at their defaults.
    topology: object | None = None
    gateway_flushes: list = field(default_factory=list)
    gateway_leftover_images: dict[int, int] = field(default_factory=dict)
    gateway_resolved_images: dict[int, int] = field(default_factory=dict)

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
        return sum(u.modeled_time_s for u in self.updates)

    @property
    def total_cloud_energy_j(self) -> float:
        return sum(u.modeled_energy_j for u in self.updates)

    @property
    def epochs_by_node(self) -> dict[int, int]:
        return {t.profile.node_id: t.epochs_completed for t in self.nodes}


class _Arrival:
    """One node's upload, delivered to the Cloud when its flow completes."""

    __slots__ = ("node_id", "epoch", "stage_index", "data", "accuracy")

    def __init__(self, node_id, epoch, stage_index, data, accuracy):
        self.node_id = node_id
        self.epoch = epoch
        self.stage_index = stage_index
        self.data = data
        self.accuracy = accuracy


class EventHooks:
    """Per-round extension points of the event engine.

    The base class is the plain fleet: every node runs every epoch and
    nothing happens beyond the paper's protocol.  ``repro.scenario``
    overrides all four to add churn, rejoin reconciliation, and per-group
    heads.  A new per-round *behaviour* belongs here; a new *transport*
    belongs in an event tier.
    """

    #: True keeps the Cloud strictly round-based even without the node
    #: barrier: hooks that park nodes on round events need rounds to exist.
    round_based = False

    def alive(self, i: int, s: int) -> bool:
        """Does node index ``i`` take part in round ``s``?"""
        return True

    def before_epoch(self, engine: "_EventFleet", i: int, s: int):
        """Kernel generator run by node ``i`` before it senses epoch ``s``."""
        yield from ()

    def after_deliver(
        self, engine: "_EventFleet", r: int, alive_ids, outcome
    ):
        """Kernel generator run by the Cloud once round ``r``'s pushes land."""
        yield from ()

    def close_round(self, engine: "_EventFleet", r: int, alive_ids) -> None:
        """Called as round ``r`` closes, before its barrier event fires."""


class DirectEventTier:
    """Every node rides the shared backhaul straight to the Cloud.

    The event engine's view of transport is "node upload -> Cloud
    arrival" and "Cloud push -> node" as kernel generators;
    ``repro.topology`` supplies the other implementation of this surface
    (gateway processes between the nodes and the backhaul).  Like the
    hooks, a tier is handed the engine per call and keeps no reference
    to it: once the run closes its kernel processes, the engine is freed
    without waiting for the cycle GC.
    """

    #: ``tier`` attribute on node records / attrs on ``cloud/*`` records;
    #: the flat fleet carries neither.
    node_tag: str | None = None
    cloud_attrs: dict = {}
    #: canary subset override for the runtime (None = the assets' sample)
    canary_ids: tuple[int, ...] | None = None

    def __init__(self, assets: FleetAssets) -> None:
        self.profiles = assets.profiles
        #: arrivals of a later round than the one being collected (only
        #: without the node barrier can a fast node run ahead)
        self._pending: dict[int, list] = {}

    def start(self, engine: "_EventFleet") -> None:
        """Spawn the tier's own kernel processes; the direct tier has none."""

    def finish(self, report: FleetEventReport) -> None:
        """Tier-level results for the report; the direct tier has none."""

    def node_link(self, i: int) -> NetworkLink:
        """The link node ``i``'s own hop rides (what its radio pays for)."""
        return self.profiles[i].link

    def transport(self, engine, i, stage, epoch, upload_data, count, accuracy):
        """Move one epoch's upload off node ``i`` and deliver it cloudward."""
        profile = self.profiles[i]
        upload_start = engine.sim.now
        yield engine.uplink.transfer(
            count * JPEG_IMAGE_BYTES,
            profile.link.bandwidth_bps,
            latency_s=profile.link.latency_s,
            tag=profile.node_id,
        )
        if count:
            engine.tracer.span(
                "net",
                "upload",
                upload_start,
                engine.sim.now,
                node=profile.node_id,
                stage=stage.index,
                epoch=epoch,
                system=engine.config.system_id,
                bytes=count * JPEG_IMAGE_BYTES,
            )
        engine.arrivals.put(
            _Arrival(profile.node_id, epoch, stage.index, upload_data, accuracy)
        )

    def collect_round(self, engine, round_index: int, alive_ids: tuple[int, ...]):
        """One arrival per alive node for this round, plus their accuracy."""
        got = self._pending.pop(round_index, [])
        while len(got) < len(alive_ids):
            arrival = yield engine.arrivals.get()
            if arrival.epoch == round_index:
                got.append(arrival)
            else:
                self._pending.setdefault(arrival.epoch, []).append(arrival)
        got.sort(key=lambda a: a.node_id)
        return got, float(np.mean([a.accuracy for a in got]))

    def push_wave(self, engine, pushes, state, stage_hint: int):
        """Push ``state`` to every ``(node_id, bytes)`` at once, as flows."""
        procs = [
            engine.sim.process(
                engine.download(
                    engine.index_of[node_id], num_bytes, state, stage_hint
                )
            )
            for node_id, num_bytes in pushes
        ]
        for proc in procs:
            yield proc


def _rollback_attrs(outcome: CloudStageOutcome) -> dict:
    """Additive ``cloud/decision`` attrs explaining a canary rollback.

    Empty for promotions and no-ops, so those decision events keep their
    exact attr set.
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


class _EventFleet:
    """The one event engine: node and Cloud kernel processes of a fleet run.

    ``tier`` owns transport ("node upload -> Cloud arrival" and "Cloud
    push -> node": :class:`DirectEventTier`, or the gateway tier
    ``repro.topology`` supplies); ``hooks`` own per-round behaviour beyond
    the paper's protocol (:class:`EventHooks`).  The two are independent.
    Everything else — the node loop, upload selection, both Cloud
    policies, model push-downs, records, ledgers, ``fleet.*`` metrics —
    is here and nowhere else.
    """

    def __init__(
        self,
        config: SystemConfig,
        assets: FleetAssets,
        runtime: FleetRuntime,
        tier,
        *,
        horizon_s: float | None,
        barrier: bool,
        tracer: Tracer | None = None,
        hooks: EventHooks | None = None,
        pool=None,
    ) -> None:
        if horizon_s is not None and horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        self.assets = assets
        self.scenario = assets.scenario
        self.base = self.scenario.base
        self.config = config
        self.runtime = runtime
        self.tier = tier
        self.hooks = hooks if hooks is not None else EventHooks()
        #: is the Cloud round-based (vs the free-running async policy)?
        self.round_based = barrier or self.hooks.round_based
        self.horizon_s = horizon_s
        self.barrier = barrier
        #: a :class:`~repro.fleet.pool.FleetWorkerPool` for the node work
        #: of each round (``run_fleet`` only), and the pooled reports of
        #: the round its nodes are taking
        self.pool = pool
        self._pooled: dict[int, dict] = {}
        #: the state dict the shared deployed net holds (serial runs)
        self._loaded = None
        self.profiles = assets.profiles
        self.all_node_ids = tuple(p.node_id for p in self.profiles)
        self.index_of = {p.node_id: i for i, p in enumerate(self.profiles)}
        # A disabled Tracer instead of None keeps every emit site a plain
        # call; spans are stamped with the kernel clock, so the stream is
        # as deterministic as the report itself.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)

        # The backhaul is symmetric: each direction carries the full
        # capacity, each flow capped by its node's access link.
        self.sim = Simulator()
        self.uplink = FlowLink(self.sim, BACKHAUL_BPS, name="uplink")
        self.downlink = FlowLink(self.sim, BACKHAUL_BPS, name="downlink")
        self.arrivals = Store(self.sim)

        self.report = FleetEventReport(
            config=config,
            scenario=self.scenario,
            mode="event-barrier" if barrier else "event",
            horizon_s=horizon_s,
            registry=self.runtime.registry,
        )
        self.report.nodes = [NodeEventTrajectory(profile=p) for p in self.profiles]

        # Per-node deployed model versions: nodes may transiently run
        # different states (canaries, in-flight pushes) in event mode.
        self.node_states = [assets.initial_state] * len(self.profiles)
        self.last_accuracy: dict[int, float] = {}
        self.last_data: dict[int, Dataset] = {
            p.node_id: assets.node_stages[i][0].new_data
            for i, p in enumerate(self.profiles)
        }
        self._round_events: dict[int, object] = {}

    # ------------------------------------------------------------------
    # Node processes
    # ------------------------------------------------------------------
    def _node_proc(self, i: int):
        stages = self.assets.node_stages[i]
        epoch = 0
        while True:
            if not self.barrier:
                # Barrier mode delegates continuation to the Cloud so all
                # nodes stop on the same round.
                if self.horizon_s is not None:
                    if self.sim.now >= self.horizon_s:
                        break
                elif epoch >= len(stages):
                    break
            if not self.hooks.alive(i, epoch):
                # A down node contributes nothing this round and must not
                # race ahead of it — even async nodes park here, because
                # the round that excludes them defines when they rejoin.
                keep_going = yield self.round_event(epoch)
            else:
                yield from self.hooks.before_epoch(self, i, epoch)
                stage = stages[epoch % len(stages)]
                outcome = yield from self._node_epoch_body(i, stage, epoch)
                if self.barrier:
                    # An epoch only commits once the fleet-wide round
                    # closes: a horizon that freezes the fleet mid-round
                    # must not count the fast nodes' half-finished round.
                    keep_going = yield self.round_event(epoch)
                self._commit_epoch(i, epoch, stage, outcome)
            if self.barrier and not keep_going:
                break
            epoch += 1
        self.report.nodes[i].finish_s = self.sim.now

    def _commit_epoch(self, i: int, epoch: int, stage, outcome) -> None:
        """Record one finished epoch (``_node_epoch_body``'s result)."""
        start, node_report, compute_s, count, upload_start, upload_done = outcome
        trajectory = self.report.nodes[i]
        trajectory.records.append(
            EpochRecord(
                epoch=epoch,
                stage_index=stage.index,
                node_id=self.profiles[i].node_id,
                start_s=start,
                acquired=node_report.acquired_images,
                uploaded=count,
                accuracy_on_new=node_report.accuracy_before_update,
                compute_time_s=compute_s,
                upload_start_s=upload_start,
                upload_done_s=upload_done,
                upload_energy_j=self.tier.node_link(i).image_upload_energy_j(
                    count
                ),
                node_compute_energy_j=node_report.node_energy_j,
            )
        )
        trajectory.ledger.record(epoch, node_report.acquired_images, count)
        self.report.ledger.record(epoch, node_report.acquired_images, count)

    def _node_epoch_body(self, i: int, stage, epoch: int):
        """One node epoch minus round commit: sense, compute, upload.

        Returns ``(start, node_report, compute_s, count, upload_start,
        upload_done)`` for :meth:`_commit_epoch`.
        """
        profile = self.profiles[i]
        start = self.sim.now
        node_report = self._node_report(i, stage.index, epoch)
        compute_s = (
            node_report.inference_time_s + node_report.diagnosis_time_s
        )
        yield self.sim.timeout(compute_s)
        tag = self.tier.node_tag
        attrs = dict(
            node=profile.node_id,
            stage=stage.index,
            epoch=epoch,
            system=self.config.system_id,
            **({} if tag is None else {"tier": tag}),
        )
        self.tracer.span(
            "node",
            "compute",
            start,
            self.sim.now,
            inference_s=node_report.inference_time_s,
            diagnosis_s=node_report.diagnosis_time_s,
            **attrs,
        )
        self.tracer.event(
            "node",
            "diagnosis",
            self.sim.now,
            acquired=node_report.acquired_images,
            flagged=node_report.flagged_images,
            **attrs,
        )
        # Epoch 0 is the initialization upload for every system; after
        # that, diagnosis-based systems ship only the flagged subset.
        if epoch == 0 or self.config.uploads_everything:
            upload_data = stage.new_data
            count = node_report.acquired_images
        else:
            upload_data = node_report.upload_data
            count = len(upload_data)
        upload_start = self.sim.now
        yield from self.tier.transport(
            self,
            i,
            stage,
            epoch,
            upload_data,
            count,
            node_report.accuracy_before_update,
        )
        upload_done = self.sim.now
        m = obs_metrics.active()
        if m is not None:
            sys_id = self.config.system_id
            m.counter("fleet.epochs", system=sys_id).inc()
            m.counter("fleet.images.acquired", system=sys_id).inc(
                node_report.acquired_images
            )
            m.counter("fleet.images.flagged", system=sys_id).inc(
                node_report.flagged_images
            )
            m.counter("fleet.images.uploaded", system=sys_id).inc(count)
            m.histogram("fleet.upload_time_s", system=sys_id).observe(
                upload_done - upload_start
            )
        self.last_accuracy[profile.node_id] = (
            node_report.accuracy_before_update
        )
        self.last_data[profile.node_id] = stage.new_data
        return start, node_report, compute_s, count, upload_start, upload_done

    def _node_report(self, i: int, stage_index: int, epoch: int):
        """Node ``i``'s inference + diagnosis against its current version."""
        if self.pool is None:
            # State dicts are never written after they are built, so the
            # net already holding this one skips the load.
            if self.node_states[i] is not self._loaded:
                self._loaded = self.node_states[i]
                self.runtime.deployed_net.load_state_dict(self._loaded)
            return node_stage(self.runtime, self.assets, i, stage_index)
        # Pooled runs are flat barrier runs: a round starts once every push
        # has landed, so the first node to enter it runs the whole round.
        if epoch not in self._pooled:
            from repro.fleet.pool import PoolTask

            self._pooled[epoch] = self.pool.run_stage(
                stage_index,
                [
                    PoolTask(j, self.pool.publish(state))
                    for j, state in enumerate(self.node_states)
                ],
            )
        return self._pooled[epoch].pop(i)

    def round_event(self, round_index: int):
        """The event that fires (with "keep going?") as a round closes."""
        ev = self._round_events.get(round_index)
        if ev is None:
            ev = self.sim.event()
            self._round_events[round_index] = ev
        return ev

    # ------------------------------------------------------------------
    # Cloud processes
    # ------------------------------------------------------------------
    def _record_update(
        self,
        kind: str,
        trigger_s: float,
        outcome: CloudStageOutcome,
        *,
        stage: int,
    ) -> None:
        """Record a Cloud step that trained, as ``kind``, or only scanned."""
        if not outcome.updated:
            if outcome.modeled_update_time_s == 0:
                return
            kind = "scan"
        if self.sim.now > trigger_s:
            self.tracer.span(
                "cloud",
                kind,
                trigger_s,
                self.sim.now,
                stage=stage,
                system=self.config.system_id,
                pooled=outcome.pooled_for_training,
                promoted=outcome.promoted,
                **self.tier.cloud_attrs,
            )
        self.tracer.event(
            "cloud",
            "decision",
            self.sim.now,
            stage=stage,
            system=self.config.system_id,
            updated=outcome.updated,
            promoted=outcome.promoted,
            **_rollback_attrs(outcome),
            **self.tier.cloud_attrs,
        )
        self.report.updates.append(
            CloudUpdateRecord(
                kind=kind,
                stage_index=stage,
                trigger_s=trigger_s,
                complete_s=self.sim.now,
                pooled_for_training=outcome.pooled_for_training,
                promoted=outcome.promoted,
                modeled_time_s=outcome.modeled_update_time_s,
                modeled_energy_j=outcome.modeled_cloud_energy_j,
                eval_accuracy=self.runtime.eval_accuracy(
                    self.assets.eval_data
                ),
            )
        )

    def _cloud_async(self):
        """Event-driven Cloud: pool arrivals, retrain, roll out — no barrier."""
        # Initialization waits for every node's first (full) upload, then
        # trains v1 and pushes it fleet-wide — the one synchronization
        # point the paper's protocol itself requires.
        arrivals = []
        for _ in self.profiles:
            arrivals.append((yield self.arrivals.get()))
        arrivals.sort(key=lambda a: a.node_id)
        trigger = self.sim.now
        outcome = cloud_initialize(
            0,
            [a.data for a in arrivals],
            runtime=self.runtime,
            base=self.base,
            all_node_ids=self.all_node_ids,
        )
        yield self.sim.timeout(outcome.modeled_update_time_s)
        self._record_update("init", trigger, outcome, stage=0)
        yield from self._deliver_outcome(outcome, stage_hint=0)
        while True:
            arrival = yield self.arrivals.get()
            # Drain the whole inbox: uploads landing at the same instant
            # (or while the Cloud was busy) pool into one trigger check,
            # so synchronized fleets retrain once per wave, not per node.
            batch = [arrival]
            while len(self.arrivals):
                batch.append((yield self.arrivals.get()))
            batch.sort(key=lambda a: a.node_id)
            for a in batch:
                self.runtime.scheduler.offer(a.epoch, a.node_id, a.data)
            latest_epoch = max(a.epoch for a in batch)
            # Keep firing while the policy still triggers: uploads that
            # landed during a retrain are pooled and may trigger another.
            while True:
                fleet_accuracy = float(
                    np.mean(list(self.last_accuracy.values()))
                )
                trigger = self.sim.now
                outcome = cloud_try_update(
                    latest_epoch,
                    fleet_accuracy,
                    lambda: Dataset.concat(
                        [
                            self.last_data[c]
                            for c in self.runtime.scheduler.canary_ids
                        ]
                    ),
                    runtime=self.runtime,
                    base=self.base,
                    all_node_ids=self.all_node_ids,
                )
                if outcome.modeled_update_time_s > 0:
                    yield self.sim.timeout(outcome.modeled_update_time_s)
                self._record_update(
                    "rollout", trigger, outcome, stage=latest_epoch
                )
                if not outcome.updated:
                    break
                yield from self._deliver_outcome(
                    outcome, stage_hint=latest_epoch
                )

    def _cloud_rounds(self):
        """Round-based Cloud: one pooled update per fleet-wide round.

        Sees each round's alive subset as the whole fleet.  With the node
        barrier this is the paper's protocol; with a horizon the rounds
        cycle the acquisition schedule until the clock runs out.
        """
        num_stages = len(self.assets.node_stages[0])
        round_index = 0
        while True:
            alive_ids = tuple(
                p.node_id
                for i, p in enumerate(self.profiles)
                if self.hooks.alive(i, round_index)
            )
            arrivals, fleet_accuracy = yield from self.tier.collect_round(
                self, round_index, alive_ids
            )
            trigger = self.sim.now
            if round_index == 0:
                outcome = cloud_initialize(
                    0,
                    [a.data for a in arrivals],
                    runtime=self.runtime,
                    base=self.base,
                    all_node_ids=alive_ids,
                )
            else:
                stage_slot = round_index % num_stages
                for a in arrivals:
                    self.runtime.scheduler.offer(a.epoch, a.node_id, a.data)
                canaries = self.runtime.scheduler.canaries_among(alive_ids)
                outcome = cloud_try_update(
                    round_index,
                    fleet_accuracy,
                    lambda: Dataset.concat(
                        [
                            self.assets.node_stages[self.index_of[c]][
                                stage_slot
                            ].new_data
                            for c in canaries
                        ]
                    ),
                    runtime=self.runtime,
                    base=self.base,
                    all_node_ids=alive_ids,
                )
            if outcome.modeled_update_time_s > 0:
                yield self.sim.timeout(outcome.modeled_update_time_s)
            self._record_update(
                "init" if round_index == 0 else "rollout",
                trigger,
                outcome,
                stage=round_index,
            )
            yield from self._deliver_outcome(outcome, stage_hint=round_index)
            yield from self.hooks.after_deliver(
                self, round_index, alive_ids, outcome
            )
            self.hooks.close_round(self, round_index, alive_ids)
            if self.horizon_s is not None:
                keep_going = self.sim.now < self.horizon_s
            else:
                keep_going = round_index + 1 < num_stages
            self.round_event(round_index).succeed(keep_going)
            if not keep_going:
                return
            round_index += 1

    # ------------------------------------------------------------------
    # Model push-downs as flows
    # ------------------------------------------------------------------
    def _deliver_outcome(self, outcome: CloudStageOutcome, *, stage_hint: int):
        """Push the outcome's model bytes down through the tier.

        Canary pushes go first (that deployment is the point of a
        canary); the fleet or rollback wave follows once every canary
        flow lands.  Nodes switch to the delivered state only when their
        own flow completes, so slow-link nodes run stale versions longer.
        """
        # The registry's active version is what every push carries: the
        # promoted candidate, or the restored version on a rollback.
        state = self.runtime.registry.active.state
        rollout = outcome.rollout
        if rollout is None:
            pushes = [
                (node_id, num_bytes)
                for node_id, num_bytes in outcome.push_bytes_per_node.items()
                if num_bytes > 0
            ]
            yield from self.tier.push_wave(self, pushes, state, stage_hint)
            return
        unit = outcome.push_unit_bytes
        canaries = [
            (e.node_id, unit) for e in rollout.events if e.kind == "canary"
        ]
        followers = [
            (e.node_id, unit) for e in rollout.events if e.kind != "canary"
        ]
        yield from self.tier.push_wave(self, canaries, state, stage_hint)
        if followers:
            yield from self.tier.push_wave(self, followers, state, stage_hint)

    def download(self, i, num_bytes, state, stage, name="push", **attrs):
        """One model download to node ``i`` over the shared backhaul.

        The flow, its ``net/<name>`` span, and the landing — every
        push-down that rides a node's own link (rollout waves, head
        pushes, rejoin reconciliation) is this one generator.
        """
        profile = self.profiles[i]
        start = self.sim.now
        yield self.downlink.transfer(
            num_bytes,
            profile.link.bandwidth_bps,
            latency_s=profile.link.latency_s,
            tag=profile.node_id,
        )
        self.tracer.span(
            "net",
            name,
            start,
            self.sim.now,
            node=profile.node_id,
            stage=stage,
            system=self.config.system_id,
            bytes=num_bytes,
            **attrs,
        )
        self.land_download(i, num_bytes, state, stage)

    def land_download(self, i: int, num_bytes: int, state, stage: int) -> None:
        """A model download finished at node ``i``: swap state, charge it."""
        self.node_states[i] = state
        trajectory = self.report.nodes[i]
        trajectory.download_energy_j += self.tier.node_link(
            i
        ).model_push_energy_j(num_bytes)
        trajectory.ledger.record_download(stage, num_bytes)
        self.report.ledger.record_download(stage, num_bytes)

    # ------------------------------------------------------------------
    def run(self) -> FleetEventReport:
        node_procs = [
            self.sim.process(self._node_proc(i))
            for i in range(len(self.profiles))
        ]
        # The Cloud starts before the tier's own processes, so a round is
        # always opened (``collect_round``) before any of them enters it.
        self.sim.process(
            self._cloud_rounds() if self.round_based else self._cloud_async()
        )
        self.tier.start(self)
        self.report.makespan_s = self.sim.run(until=self.horizon_s)
        for trajectory, proc in zip(self.report.nodes, node_procs):
            if not proc.triggered:
                # Frozen mid-epoch by the horizon: it ran to the end.
                trajectory.finish_s = self.report.makespan_s
        self.tier.finish(self.report)
        self.report.rollouts = list(self.runtime.scheduler.history)
        self.report.final_eval_accuracy = self.runtime.eval_accuracy(
            self.assets.eval_data
        )
        m = obs_metrics.active()
        if m is not None:
            sys_id = self.config.system_id
            snap = self.report.ledger.snapshot()
            m.gauge("fleet.bytes.uploaded", system=sys_id).set(
                snap.uploaded_bytes
            )
            m.gauge("fleet.bytes.downloaded", system=sys_id).set(
                snap.downloaded_bytes
            )
        # The free-running Cloud, async gateways and whatever a horizon
        # froze are still suspended; their frames hold this engine.
        self.sim.close()
        return self.report


def run_fleet_event(
    config: SystemConfig,
    assets: FleetAssets,
    *,
    horizon_s: float | None = None,
    barrier: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    topology=None,
) -> FleetEventReport:
    """Run one system variant's fleet asynchronously in virtual time.

    Parameters
    ----------
    config, assets:
        The system variant and the fleet's pre-generated inputs; every
        mode runs on identical data and initial weights.
    horizon_s:
        Virtual-time budget.  When set, nodes cycle their acquisition
        schedule until the horizon (fast nodes complete more epochs);
        when ``None``, every node runs its schedule exactly once and the
        run ends when the last event drains.
    barrier:
        Re-insert the fleet-wide epoch barrier: the paper's
        stage-by-stage protocol.  Over the flat fleet this is the run
        :func:`~repro.fleet.simulation.run_fleet` drives.
    tracer, metrics:
        Optional observability sinks.  Spans are stamped with the kernel
        clock (``Simulator.now``), so a given (assets, config, mode)
        produces a byte-identical trace stream.  ``metrics`` is installed
        as the ambient registry (:func:`repro.obs.metrics.use`) for the
        whole run, which is how every recording site reaches it; with
        ``None`` the sites record into whatever registry the caller
        installed, if any.
    topology:
        A :class:`repro.topology.Topology` interposing gateway processes
        between the nodes and the Cloud; gateway flushes become flows on
        the shared backhaul.  The same engine runs, with the topology's
        event tier in place of the direct one; ``None`` runs the direct
        tier.  This is the only entry point for hierarchical fleets;
        ``barrier=True`` is their lockstep run.
    """
    if topology is not None:
        topology.validate_for(assets.profiles)
        tier = topology.event_tier(config, assets)
    else:
        tier = DirectEventTier(assets)
    runtime = build_fleet_runtime(config, assets, canary_ids=tier.canary_ids)
    with obs_metrics.use(metrics):
        report = _EventFleet(
            config,
            assets,
            runtime,
            tier,
            horizon_s=horizon_s,
            barrier=barrier,
            tracer=tracer,
        ).run()
    report.topology = topology
    return report


def _run_system(job: tuple[SystemConfig, FleetAssets]) -> FleetEventReport:
    """One variant's barrier run (a forked worker's job)."""
    config, assets = job
    return run_fleet_event(config, assets, barrier=True)


def run_all_systems(scenario: Scenario) -> dict[str, FleetEventReport]:
    """Table II / Fig. 25: every Fig. 24 variant on one node's stream.

    Four barrier runs over the one-node fleet :func:`~repro.fleet
    .simulation.prepare_assets` builds, on identical data and initial
    weights.  Per stage ``s``, ``nodes[0].records[s]`` holds the movement
    and upload energy, and the ``updates`` with ``stage_index == s`` the
    Cloud's modeled time, energy and eval accuracy.

    The assets are prepared once; the four runs are independent and go to
    :func:`~repro.fleet.pool.fork_map`, one forked worker per free core
    (:func:`~repro.fleet.pool.fork_workers`), so the reports equal a
    one-after-another run's.
    """
    # Imported here: multiprocessing is paid by a run, not by importing
    # the fleet package.
    from repro.fleet.pool import fork_map, fork_workers

    assets = prepare_assets(scenario)
    reports = fork_map(
        _run_system,
        [(config, assets) for config in SYSTEMS],
        fork_workers(len(SYSTEMS)),
    )
    return {config.system_id: report for config, report in zip(SYSTEMS, reports)}
