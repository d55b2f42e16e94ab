"""The In-situ AI node: co-located inference and diagnosis tasks.

The node wraps a deployed inference network and a diagnoser, processes each
acquisition stage locally, and decides what to upload.  Timing and energy of
the node's work are modeled against the full-size network specs on the
configured device (the trainable IoT-scale network provides the *decisions*;
the layer-shape specs provide the *costs*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costing import GPUSingleRunningCost, TaskCost
from repro.data.datasets import Dataset
from repro.data.stream import AcquisitionStage
from repro.diagnosis.diagnoser import Diagnoser
from repro.hw.specs import GPUSpec
from repro.models.layer_specs import NetworkSpec
from repro.nn import Sequential, accuracy
from repro.transfer.finetune import predict_logits

__all__ = ["NodeReport", "InSituNode"]


@dataclass(frozen=True)
class NodeReport:
    """What happened at the node during one acquisition stage."""

    stage_index: int
    acquired_images: int
    accuracy_before_update: float
    inference_time_s: float
    diagnosis_time_s: float
    node_energy_j: float
    upload_data: Dataset  # the flagged images

    @property
    def flagged_images(self) -> int:
        return len(self.upload_data)

    @property
    def flagged_fraction(self) -> float:
        if self.acquired_images == 0:
            return 0.0
        return self.flagged_images / self.acquired_images


class InSituNode:
    """An edge node running the inference and diagnosis tasks.

    Parameters
    ----------
    inference_net:
        The deployed trainable classifier (IoT scale).
    diagnoser:
        Flags unrecognized samples for upload; None disables on-node
        diagnosis (traditional IoT systems upload everything).
    inference_spec / diagnosis_spec:
        Full-size layer-shape specs used to model time and energy.
    gpu:
        The node device (Single-running mode costing).
    inference_batch / diagnosis_batch:
        Batch sizes chosen by the mode planner.
    """

    def __init__(
        self,
        inference_net: Sequential,
        diagnoser: Diagnoser | None,
        *,
        inference_spec: NetworkSpec,
        diagnosis_spec: NetworkSpec,
        gpu: GPUSpec,
        inference_batch: int = 4,
        diagnosis_batch: int = 32,
    ) -> None:
        self.inference_net = inference_net
        self.diagnoser = diagnoser
        self.costing = GPUSingleRunningCost(
            inference_spec,
            diagnosis_spec,
            gpu,
            inference_batch=inference_batch,
            diagnosis_batch=diagnosis_batch,
        )

    def deploy(self, state: dict[str, np.ndarray]) -> None:
        """Install an updated model pushed down from the Cloud."""
        self.inference_net.load_state_dict(state)

    def process_stage(self, stage: AcquisitionStage) -> NodeReport:
        """Run inference + diagnosis over a stage's new data.

        Returns the report including the upload set: everything when no
        diagnoser is deployed (Fig. 24 a/b), only flagged samples otherwise
        (Fig. 24 c/d).
        """
        data = stage.new_data
        # The two tasks are co-located so that they share work: the
        # inference pass runs once and the diagnoser reads its output.
        logits = predict_logits(self.inference_net, data)
        if self.diagnoser is None:
            flags = np.ones(len(data), dtype=bool)
        else:
            flags = self.diagnoser.flags_given_logits(
                data, self.inference_net, logits
            )
        upload = data.subset(np.flatnonzero(flags))
        inference = self.costing.inference_cost(len(data))
        diagnosis = (
            self.costing.diagnosis_cost(len(data))
            if self.diagnoser is not None
            else TaskCost(0.0, 0.0)
        )
        return NodeReport(
            stage_index=stage.index,
            acquired_images=len(data),
            accuracy_before_update=accuracy(logits, data.labels),
            inference_time_s=inference.seconds,
            diagnosis_time_s=diagnosis.seconds,
            node_energy_j=inference.joules + diagnosis.joules,
            upload_data=upload,
        )
