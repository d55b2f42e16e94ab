"""The In-situ AI Cloud: pre-training, transfer, and incremental updates.

The Cloud owns the master copies of both networks.  Its three jobs, in the
order Fig. 4 introduces them:

1. **Unsupervised pre-training** of the context (jigsaw) network on raw,
   unlabeled IoT data.
2. **Transfer learning**: copy the first *n* conv layers into the inference
   network and train the rest on a limited amount of labeled data.
3. **Incremental updates**: fine-tune on the data uploaded from the node,
   with the weight-sharing freeze plan deciding how much of the network the
   update touches.

Every update also produces *modeled* Cloud cost (Titan-X time and energy
from full-size op counts) alongside the actual wall-clock training at IoT
scale — the modeled numbers are what the Fig. 25 comparison reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.hw.energy import TrainingCostModel
from repro.hw.specs import GPUSpec, TITAN_X
from repro.models.iot_models import CONV_LAYER_NAMES, build_classifier
from repro.models.layer_specs import NetworkSpec
from repro.nn import Sequential
from repro.selfsup.context_net import ContextNetwork
from repro.selfsup.jigsaw import JigsawSampler
from repro.selfsup.permutations import PermutationSet
from repro.selfsup.pretrain import build_context_network, pretrain
from repro.transfer.distill import distill_classifier
from repro.transfer.finetune import TrainResult, train_classifier
from repro.transfer.surgery import FreezePlan, transfer_conv_weights

__all__ = ["CloudUpdateReport", "InSituCloud"]


@dataclass(frozen=True)
class CloudUpdateReport:
    """One incremental update's cost and outcome."""

    images_used: int
    epochs: int
    wall_time_s: float
    modeled_time_s: float
    modeled_energy_j: float
    train_result: TrainResult


class InSituCloud:
    """Cloud-side controller for one deployment.

    Parameters
    ----------
    num_classes:
        Inference classes.
    permset:
        Permutation set shared with the node's diagnosis task.
    cost_spec:
        Full-size network spec used to model update cost.
    shared_depth:
        How many conv layers are weight-shared between the unsupervised and
        inference networks (the paper settles on 3).
    training_device:
        Cloud GPU spec (Titan X by default).
    """

    def __init__(
        self,
        num_classes: int,
        permset: PermutationSet,
        *,
        cost_spec: NetworkSpec,
        shared_depth: int = 3,
        width: float = 1.0,
        hidden: int = 128,
        training_device: GPUSpec = TITAN_X,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.num_classes = num_classes
        self.permset = permset
        self.cost_spec = cost_spec
        self.shared_depth = shared_depth
        self.width = width
        self.hidden = hidden
        # Class-incremental knobs (scenario engine): a distill_weight > 0
        # plus a non-empty exemplar buffer switches incremental updates to
        # exemplar-replay distillation against the pre-update teacher.
        self.distill_weight = 0.0
        self.distill_temperature = 2.0
        self.exemplar_buffer = None
        self._teacher: Sequential | None = None
        self.context_net: ContextNetwork = build_context_network(
            permset, width=width, rng=self.rng
        )
        self.inference_net: Sequential = build_classifier(
            num_classes, self.rng, width=width, hidden=hidden
        )
        self.cost_model = TrainingCostModel(training_device)
        self.archive: Dataset | None = None

    # ------------------------------------------------------------------
    # Cost modeling
    # ------------------------------------------------------------------
    def _forward_ops_split(self, freeze_depth: int) -> tuple[float, float]:
        """(total forward ops, trainable forward ops) per full-size image."""
        total = float(self.cost_spec.total_ops)
        frozen_names = set(CONV_LAYER_NAMES[:freeze_depth])
        frozen = sum(
            s.ops for s in self.cost_spec.layers if s.name in frozen_names
        )
        return total, total - float(frozen)

    def modeled_update_cost(
        self, images: int, epochs: int, freeze_depth: int
    ) -> tuple[float, float]:
        """Titan-X (seconds, joules) for an update of this size."""
        total, trainable = self._forward_ops_split(freeze_depth)
        seconds = self.cost_model.training_time_s(
            images=images,
            epochs=epochs,
            forward_ops=total,
            trainable_forward_ops=trainable,
        )
        return seconds, self.cost_model.training_energy_j(seconds)

    def modeled_scan_cost(self, images: int) -> tuple[float, float]:
        """Titan-X (seconds, joules) for one inference pass over ``images``.

        System b's Cloud-side diagnosis pays this over every uploaded image
        to find the valuable subset.
        """
        ops = images * self.cost_spec.total_ops
        seconds = ops / self.cost_model.sustained_ops
        return seconds, self.cost_model.training_energy_j(seconds)

    # ------------------------------------------------------------------
    # The three Cloud jobs
    # ------------------------------------------------------------------
    def unsupervised_pretrain(
        self,
        raw: Dataset,
        *,
        epochs: int = 4,
        batch_size: int = 32,
        lr: float = 0.01,
    ) -> float:
        """Pre-train the context network on unlabeled data.

        Returns the final permutation accuracy — the paper shows inference
        accuracy is proportional to it (Fig. 5).
        """
        sampler = JigsawSampler(self.permset, rng=self.rng)
        result = pretrain(
            self.context_net,
            raw.images,
            sampler,
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
            rng=self.rng,
        )
        return result.final_accuracy

    def initialize_inference(
        self,
        labeled: Dataset,
        *,
        epochs: int = 8,
        batch_size: int = 32,
        lr: float = 0.01,
        eval_data: Dataset | None = None,
        use_transfer: bool = True,
    ) -> TrainResult:
        """Transfer-learn the initial inference model on limited labels.

        The labeled data is retained in the Cloud archive — it seeds the
        replay pool later incremental updates draw from.
        """
        if use_transfer:
            transfer_conv_weights(
                self.context_net.trunk, self.inference_net, self.shared_depth
            )
        result = train_classifier(
            self.inference_net,
            labeled,
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
            rng=self.rng,
            eval_data=eval_data,
        )
        self.archive = (
            labeled
            if self.archive is None
            else Dataset.concat([self.archive, labeled])
        )
        return result

    def incremental_update(
        self,
        uploaded: Dataset,
        *,
        weight_shared: bool,
        epochs: int = 3,
        batch_size: int = 32,
        lr: float = 0.01,
        eval_data: Dataset | None = None,
        replay_fraction: float = 1.0,
    ) -> CloudUpdateReport:
        """Fine-tune the inference model on newly uploaded data.

        ``weight_shared`` is the In-situ AI optimization: lock the shared
        conv layers so only the last conv layers and the FCN head retrain.

        The Cloud mixes a replay sample from its archive of previously
        uploaded images (``replay_fraction`` of the new batch's size) into
        each update — the archive already lives in the Cloud, so replay
        costs no extra data movement, only training compute (which the
        modeled cost includes).
        """
        if len(uploaded) == 0:
            raise ValueError("incremental update needs uploaded data")
        if replay_fraction < 0:
            raise ValueError("replay_fraction must be >= 0")
        freeze_depth = self.shared_depth if weight_shared else 0
        plan = FreezePlan(freeze_depth)
        train_set = uploaded
        if self.archive is not None and replay_fraction > 0:
            count = min(
                len(self.archive), int(round(replay_fraction * len(uploaded)))
            )
            if count:
                idx = self.rng.choice(len(self.archive), size=count, replace=False)
                train_set = Dataset.concat(
                    [uploaded, self.archive.subset(idx)]
                )
        self.archive = (
            uploaded
            if self.archive is None
            else Dataset.concat([self.archive, uploaded])
        )
        distilling = (
            self.distill_weight > 0
            and self.exemplar_buffer is not None
            and len(self.exemplar_buffer) > 0
        )
        if distilling:
            # Mix every retained exemplar into the update and hold the
            # student near the pre-update teacher on softened outputs —
            # the class-incremental forgetting guard.
            train_set = Dataset.concat(
                [train_set, self.exemplar_buffer.data]
            )
            teacher = self._teacher_net()
            teacher.load_state_dict(self.inference_net.state_dict())
            result = distill_classifier(
                self.inference_net,
                train_set,
                teacher=teacher,
                distill_weight=self.distill_weight,
                temperature=self.distill_temperature,
                epochs=epochs,
                batch_size=batch_size,
                lr=lr,
                rng=self.rng,
                eval_data=eval_data,
                freeze_plan=plan,
            )
        else:
            result = train_classifier(
                self.inference_net,
                train_set,
                epochs=epochs,
                batch_size=batch_size,
                lr=lr,
                rng=self.rng,
                eval_data=eval_data,
                freeze_plan=plan,
            )
        if self.exemplar_buffer is not None:
            self.exemplar_buffer.add(uploaded)
        modeled_s, modeled_j = self.modeled_update_cost(
            len(train_set), epochs, freeze_depth
        )
        return CloudUpdateReport(
            images_used=len(uploaded),
            epochs=epochs,
            wall_time_s=result.wall_time_s,
            modeled_time_s=modeled_s,
            modeled_energy_j=modeled_j,
            train_result=result,
        )

    def guarded_update(
        self,
        uploaded: Dataset,
        guard,
        *,
        weight_shared: bool,
        registry=None,
        **kwargs,
    ) -> tuple[CloudUpdateReport, "GuardDecision"]:
        """Incremental update with an acceptance test and optional registry.

        Runs :meth:`incremental_update`, then asks the
        :class:`~repro.core.registry.UpdateGuard` whether the new model may
        ship.  On rejection the weights roll back to the pre-update state;
        on acceptance the new state is published to ``registry`` (when
        given) and becomes what :meth:`model_state` returns.
        """
        previous = self.inference_net.state_dict()
        report = self.incremental_update(
            uploaded, weight_shared=weight_shared, **kwargs
        )
        decision = guard.check(self.inference_net, previous)
        if decision.accepted and registry is not None:
            registry.publish(
                self.inference_net.state_dict(),
                {"images": report.images_used, "epochs": report.epochs},
            )
        return report, decision

    def model_state(self) -> dict[str, np.ndarray]:
        """State dict to push down to the node."""
        return self.inference_net.state_dict()

    def _teacher_net(self) -> Sequential:
        """Scratch network reused as the frozen distillation teacher.

        Built lazily with a fixed seed; its initialization weights are
        irrelevant because every use overwrites them via
        ``load_state_dict`` before predicting.
        """
        if self._teacher is None:
            self._teacher = build_classifier(
                self.num_classes,
                np.random.default_rng(0),
                width=self.width,
                hidden=self.hidden,
            )
        return self._teacher
