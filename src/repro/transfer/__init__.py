"""Transfer learning, fine-tuning, distillation and the exemplar buffer."""

from repro.transfer.distill import DistillationLoss, distill_classifier
from repro.transfer.finetune import (
    TrainResult,
    evaluate,
    evaluate_on_classes,
    predict_logits,
    split_at_frozen_prefix,
    train_classifier,
)
from repro.transfer.incremental import ReplayBuffer
from repro.transfer.surgery import (
    FreezePlan,
    reinitialize_above,
    transfer_conv_weights,
)

__all__ = [
    "DistillationLoss",
    "FreezePlan",
    "ReplayBuffer",
    "TrainResult",
    "distill_classifier",
    "evaluate",
    "evaluate_on_classes",
    "predict_logits",
    "reinitialize_above",
    "split_at_frozen_prefix",
    "train_classifier",
    "transfer_conv_weights",
]
