"""End-to-end incremental-update simulation (Table II and Fig. 25).

Replays the paper's evaluation protocol: an initial model is trained on the
first acquisition stage, then the archive grows stage by stage
(100k -> 200k -> 400k -> 800k -> 1200k, scaled) and each IoT system variant
updates its model per its own policy.  Every variant sees *identical* data
and starts from *identical* initial weights so the differences are pure
policy.

Per stage and per system the simulation records data movement, modeled
Cloud update time/energy (Titan-X costing of the full-size network), node
transfer energy, and measured accuracy of the actually-trained IoT-scale
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.link import JPEG_IMAGE_BYTES, WIFI, NetworkLink
from repro.comm.movement import DataMovementLedger
from repro.core.cloud import InSituCloud
from repro.core.systems import SYSTEMS, SystemConfig
from repro.data.cache import dataset_cache
from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator
from repro.data.stream import PAPER_SCHEDULE_K, AcquisitionStage, IoTStream
from repro.diagnosis.diagnoser import (
    InferenceConfidenceDiagnoser,
    JigsawDiagnoser,
    OracleDiagnoser,
)
from repro.models.layer_specs import NetworkSpec, alexnet_spec
from repro.nn import accuracy
from repro.nn.config import default_dtype
from repro.selfsup.jigsaw import JigsawSampler
from repro.selfsup.permutations import PermutationSet
from repro.transfer.finetune import evaluate, predict_logits

__all__ = [
    "Scenario",
    "StageRecord",
    "SystemRunResult",
    "ScenarioAssets",
    "prepare_assets",
    "build_cloud",
    "make_diagnoser",
    "run_system",
    "run_all_systems",
]


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one end-to-end experiment."""

    num_classes: int = 6
    image_size: int = 48
    width: float = 1.0
    hidden: int = 128
    stream_scale: float = 0.4
    schedule_k: tuple[int, ...] = PAPER_SCHEDULE_K
    severities: tuple[float, ...] | None = None
    pretrain_images: int = 300
    pretrain_epochs: int = 4
    init_epochs: int = 8
    update_epochs: int = 3
    batch_size: int = 32
    init_lr: float = 0.01
    update_lr: float = 0.008
    eval_images: int = 200
    eval_severity: float = 0.45
    num_perms: int = 12
    shared_depth: int = 3
    diagnoser_kind: str = "oracle"  # "oracle" | "confidence" | "jigsaw"
    confidence_threshold: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.diagnoser_kind not in ("oracle", "confidence", "jigsaw"):
            raise ValueError(f"unknown diagnoser {self.diagnoser_kind!r}")


@dataclass
class ScenarioAssets:
    """Shared, pre-generated inputs every system run consumes."""

    scenario: Scenario
    generator: ImageGenerator
    stages: list[AcquisitionStage]
    pretrain_data: Dataset
    eval_data: Dataset
    permset: PermutationSet
    cost_spec: NetworkSpec


@dataclass(frozen=True)
class StageRecord:
    """One system's bookkeeping for one update stage."""

    stage_index: int
    cumulative_count: int
    acquired: int
    uploaded: int
    trained_on: int
    accuracy_before: float
    accuracy_after: float
    modeled_update_time_s: float
    modeled_cloud_energy_j: float
    transfer_energy_j: float
    wall_time_s: float


@dataclass
class SystemRunResult:
    """Full trajectory of one IoT system variant over the schedule."""

    config: SystemConfig
    stages: list[StageRecord] = field(default_factory=list)
    ledger: DataMovementLedger = field(
        default_factory=lambda: DataMovementLedger(image_bytes=JPEG_IMAGE_BYTES)
    )

    @property
    def normalized_movement(self) -> list[float]:
        """Table II row for this system (per-stage upload fraction)."""
        return self.ledger.normalized_per_stage()

    @property
    def total_update_time_s(self) -> float:
        return sum(s.modeled_update_time_s for s in self.stages)

    @property
    def total_cloud_energy_j(self) -> float:
        return sum(s.modeled_cloud_energy_j for s in self.stages)

    @property
    def total_transfer_energy_j(self) -> float:
        return sum(s.transfer_energy_j for s in self.stages)

    @property
    def total_energy_j(self) -> float:
        return self.total_cloud_energy_j + self.total_transfer_energy_j

    @property
    def final_accuracy(self) -> float:
        return self.stages[-1].accuracy_after if self.stages else 0.0


def _data_cache_key(scenario: Scenario) -> tuple:
    """Every scenario field :func:`_generate_scenario_data` reads.

    Training hyperparameters (epochs, lrs, widths, diagnoser settings) are
    deliberately absent: scenarios differing only in those share one cache
    entry.  The framework default dtype is included because datasets cast
    to it on construction.
    """
    return (
        "core-assets",
        scenario.seed,
        scenario.image_size,
        scenario.num_classes,
        scenario.stream_scale,
        scenario.schedule_k,
        scenario.severities,
        scenario.pretrain_images,
        scenario.eval_images,
        scenario.eval_severity,
        scenario.num_perms,
        np.dtype(default_dtype()).str,
    )


def _generate_scenario_data(scenario: Scenario) -> dict:
    """The dataset-generation segment of :func:`prepare_assets`.

    Self-contained: consumes only the RNG it builds from ``scenario.seed``.
    The generator's end-of-segment stream position rides along in
    ``rng_state`` so a cache hit restores it exactly.
    """
    rng = np.random.default_rng(scenario.seed)
    generator = ImageGenerator(
        scenario.image_size, scenario.num_classes, rng=rng
    )
    stream = IoTStream(
        generator,
        scale=scenario.stream_scale,
        schedule_k=scenario.schedule_k,
        severities=scenario.severities,
        rng=rng,
    )
    stages = stream.stages()
    pretrain_data = Dataset.concat(
        [s.new_data for s in stages[: max(1, len(stages) // 2)]]
    ).take(scenario.pretrain_images)
    eval_data = make_dataset(
        scenario.eval_images,
        generator=generator,
        drift=DriftModel(scenario.eval_severity, rng=rng),
        rng=rng,
    )
    permset = PermutationSet.generate(scenario.num_perms, rng=rng)
    return {
        "stages": stages,
        "pretrain_data": pretrain_data,
        "eval_data": eval_data,
        "permset": permset,
        "rng_state": rng.bit_generator.state,
    }


def prepare_assets(scenario: Scenario) -> ScenarioAssets:
    """Generate (or fetch from the seed-keyed cache) a scenario's data.

    Cache hits are bit-identical to a fresh generation — including the
    position of the returned generator's RNG stream — so downstream runs
    cannot tell whether the data was regenerated or replayed.
    """
    data = dataset_cache.get_or_build(
        _data_cache_key(scenario), lambda: _generate_scenario_data(scenario)
    )
    rng = np.random.default_rng(scenario.seed)
    rng.bit_generator.state = data["rng_state"]
    generator = ImageGenerator(
        scenario.image_size, scenario.num_classes, rng=rng
    )
    return ScenarioAssets(
        scenario=scenario,
        generator=generator,
        stages=data["stages"],
        pretrain_data=data["pretrain_data"].as_unlabeled(),
        eval_data=data["eval_data"],
        permset=data["permset"],
        cost_spec=alexnet_spec(),
    )


def build_cloud(
    base: Scenario, permset: PermutationSet, cost_spec: NetworkSpec
) -> InSituCloud:
    """The scenario's Cloud, weights freshly drawn from ``seed + 1``."""
    return InSituCloud(
        base.num_classes,
        permset,
        cost_spec=cost_spec,
        shared_depth=base.shared_depth,
        width=base.width,
        hidden=base.hidden,
        rng=np.random.default_rng(base.seed + 1),
    )


def make_diagnoser(kind: str, net, cloud: InSituCloud, base: Scenario):
    """The ``kind`` diagnoser scoring ``net`` (jigsaw scores the Cloud's
    context net; its streams are ``seed + 2`` / ``seed + 3``)."""
    if kind == "oracle":
        return OracleDiagnoser(net)
    if kind == "confidence":
        return InferenceConfidenceDiagnoser(
            net, threshold=base.confidence_threshold
        )
    sampler = JigsawSampler(
        cloud.permset, rng=np.random.default_rng(base.seed + 2)
    )
    return JigsawDiagnoser(
        cloud.context_net,
        sampler,
        trials=2,
        rng=np.random.default_rng(base.seed + 3),
    )


def run_system(
    config: SystemConfig,
    assets: ScenarioAssets,
    *,
    link: NetworkLink = WIFI,
    pretrained_trunk_state: dict | None = None,
    initial_inference_state: dict | None = None,
) -> SystemRunResult:
    """Replay the whole schedule for one system variant.

    ``pretrained_trunk_state`` and ``initial_inference_state`` let the
    caller share the unsupervised pre-training and the (policy-identical)
    stage-0 initialization across all four systems; pass None to compute
    them inside this run.
    """
    s = assets.scenario
    cloud = build_cloud(s, assets.permset, assets.cost_spec)
    if pretrained_trunk_state is not None:
        cloud.context_net.load_state_dict(pretrained_trunk_state)
    else:
        cloud.unsupervised_pretrain(
            assets.pretrain_data,
            epochs=s.pretrain_epochs,
            batch_size=s.batch_size,
        )

    result = SystemRunResult(config=config)
    diagnoser = make_diagnoser(
        s.diagnoser_kind, cloud.inference_net, cloud, s
    )

    for stage in assets.stages:
        data = stage.new_data
        logits = predict_logits(cloud.inference_net, data)
        acc_before = accuracy(logits, data.labels)
        is_initial = stage.index == 0

        # --- selection -------------------------------------------------
        if is_initial or config.diagnosis_location == "none":
            selected = data
        else:
            flags = diagnoser.flags_given_logits(
                data, cloud.inference_net, logits
            )
            selected = data.subset(np.flatnonzero(flags))

        # --- movement --------------------------------------------------
        uploaded_count = (
            len(data)
            if (is_initial or config.uploads_everything)
            else len(selected)
        )
        result.ledger.record(stage.index, len(data), uploaded_count)
        transfer_j = link.image_upload_energy_j(uploaded_count)

        # --- cloud update ----------------------------------------------
        if is_initial:
            if initial_inference_state is not None:
                cloud.inference_net.load_state_dict(initial_inference_state)
                wall = 0.0
            else:
                init = cloud.initialize_inference(
                    data,
                    epochs=s.init_epochs,
                    batch_size=s.batch_size,
                    lr=s.init_lr,
                )
                wall = init.wall_time_s
            modeled_s, modeled_j = cloud.modeled_update_cost(
                len(data), s.init_epochs, freeze_depth=0
            )
            trained_on = len(data)
            cloud.archive = data  # stage-0 data seeds the Cloud archive
        elif len(selected) == 0:
            modeled_s = modeled_j = wall = 0.0
            trained_on = 0
        else:
            report = cloud.incremental_update(
                selected,
                weight_shared=config.weight_shared,
                epochs=s.update_epochs,
                batch_size=s.batch_size,
                lr=s.update_lr,
            )
            modeled_s = report.modeled_time_s
            modeled_j = report.modeled_energy_j
            wall = report.wall_time_s
            trained_on = len(selected)

        # Cloud-side diagnosis (system b) pays an inference pass over all
        # uploaded data to find the valuable subset.
        if config.diagnosis_location == "cloud" and not is_initial:
            scan_s = (
                len(data)
                * assets.cost_spec.total_ops
                / cloud.cost_model.sustained_ops
            )
            modeled_s += scan_s
            modeled_j += cloud.cost_model.training_energy_j(scan_s)

        acc_after = evaluate(cloud.inference_net, assets.eval_data)
        result.stages.append(
            StageRecord(
                stage_index=stage.index,
                cumulative_count=stage.cumulative_count,
                acquired=len(data),
                uploaded=uploaded_count,
                trained_on=trained_on,
                accuracy_before=acc_before,
                accuracy_after=acc_after,
                modeled_update_time_s=modeled_s,
                modeled_cloud_energy_j=modeled_j,
                transfer_energy_j=transfer_j,
                wall_time_s=wall,
            )
        )
    return result


def run_all_systems(
    scenario: Scenario, *, link: NetworkLink = WIFI
) -> dict[str, SystemRunResult]:
    """Run every Fig. 24 variant on identical data and initial weights."""
    assets = prepare_assets(scenario)
    # Share the unsupervised pre-training and the stage-0 initialization:
    # both are policy-identical across the four systems.
    seed_cloud = build_cloud(scenario, assets.permset, assets.cost_spec)
    seed_cloud.unsupervised_pretrain(
        assets.pretrain_data,
        epochs=scenario.pretrain_epochs,
        batch_size=scenario.batch_size,
    )
    trunk_state = seed_cloud.context_net.state_dict()
    seed_cloud.initialize_inference(
        assets.stages[0].new_data,
        epochs=scenario.init_epochs,
        batch_size=scenario.batch_size,
        lr=scenario.init_lr,
    )
    initial_state = seed_cloud.model_state()
    return {
        config.system_id: run_system(
            config,
            assets,
            link=link,
            pretrained_trunk_state=trunk_state,
            initial_inference_state=initial_state,
        )
        for config in SYSTEMS
    }
