"""Transfer learning and incremental model updates."""

from repro.transfer.distill import DistillationLoss, distill_classifier
from repro.transfer.finetune import (
    TrainResult,
    evaluate,
    evaluate_on_classes,
    predict_logits,
    split_at_frozen_prefix,
    train_classifier,
)
from repro.transfer.incremental import (
    ReplayBuffer,
    UpdateOutcome,
    incremental_update,
)
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
    "UpdateOutcome",
    "distill_classifier",
    "evaluate",
    "evaluate_on_classes",
    "incremental_update",
    "predict_logits",
    "reinitialize_above",
    "split_at_frozen_prefix",
    "train_classifier",
    "transfer_conv_weights",
]
