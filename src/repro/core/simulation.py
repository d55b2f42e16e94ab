"""The paper's evaluation scenario and its single-node data stream.

:class:`Scenario` fixes everything one end-to-end experiment needs: the
acquisition schedule (100k -> 200k -> 400k -> 800k -> 1200k, scaled), the
IoT-scale model, and the training and diagnosis knobs.  Every system
variant sees *identical* data and starts from *identical* initial weights,
so the differences between them are pure policy.

This module holds what a scenario itself determines: its one-stream data
(:func:`scenario_data`), its Cloud (:func:`build_cloud`) and its
diagnoser (:func:`make_diagnoser`).  The runs live in ``repro.fleet``:
Table II and Fig. 25 are four one-node fleet runs
(:func:`repro.fleet.run_all_systems`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cloud import InSituCloud
from repro.data.cache import dataset_cache
from repro.data.datasets import Dataset, make_dataset
from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator
from repro.data.stream import PAPER_SCHEDULE_K, IoTStream
from repro.diagnosis.diagnoser import (
    InferenceConfidenceDiagnoser,
    JigsawDiagnoser,
    OracleDiagnoser,
)
from repro.models.layer_specs import NetworkSpec
from repro.nn.config import default_dtype
from repro.selfsup.jigsaw import JigsawSampler
from repro.selfsup.permutations import PermutationSet

__all__ = [
    "Scenario",
    "scenario_data",
    "build_cloud",
    "make_diagnoser",
    "NUM_PERMS",
]

#: jigsaw permutation classes every scenario's context network solves
NUM_PERMS = 12


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one end-to-end experiment."""

    num_classes: int = 6
    stream_scale: float = 0.4
    schedule_k: tuple[int, ...] = PAPER_SCHEDULE_K
    severities: tuple[float, ...] | None = None
    pretrain_images: int = 300
    pretrain_epochs: int = 4
    init_epochs: int = 8
    update_epochs: int = 3
    eval_images: int = 200
    eval_severity: float = 0.45
    diagnoser_kind: str = "oracle"  # "oracle" | "confidence" | "jigsaw"
    confidence_threshold: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.diagnoser_kind not in ("oracle", "confidence", "jigsaw"):
            raise ValueError(f"unknown diagnoser {self.diagnoser_kind!r}")


def scenario_data(scenario: Scenario) -> dict:
    """The scenario's one stream, memoized on the seed-keyed cache.

    ``{"stages", "pretrain_data", "eval_data", "permset"}``: the
    acquisition stages, the (labeled) pre-training sample of the first
    half of them, the drifted held-out set and the jigsaw permutations.
    The segment consumes only the RNG it builds from ``scenario.seed`` and
    nothing reads that stream afterwards, so no end state rides along.
    The key holds every field the segment reads; training knobs (epochs,
    diagnoser settings) are deliberately absent, so
    scenarios differing only in those share one entry.  The framework
    default dtype is in it because datasets cast to it on construction.
    """
    key = (
        "core-assets",
        scenario.seed,
        scenario.num_classes,
        scenario.stream_scale,
        scenario.schedule_k,
        scenario.severities,
        scenario.pretrain_images,
        scenario.eval_images,
        scenario.eval_severity,
        np.dtype(default_dtype()).str,
    )

    def build() -> dict:
        rng = np.random.default_rng(scenario.seed)
        generator = ImageGenerator(num_classes=scenario.num_classes, rng=rng)
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
        permset = PermutationSet.generate(NUM_PERMS, rng=rng)
        return {
            "stages": stages,
            "pretrain_data": pretrain_data,
            "eval_data": eval_data,
            "permset": permset,
        }

    return dataset_cache.get_or_build(key, build)


def build_cloud(
    base: Scenario, permset: PermutationSet, cost_spec: NetworkSpec
) -> InSituCloud:
    """The scenario's Cloud, weights freshly drawn from ``seed + 1``."""
    return InSituCloud(
        base.num_classes,
        permset,
        cost_spec=cost_spec,
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
