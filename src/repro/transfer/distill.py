"""Knowledge-distillation fine-tuning for class-incremental updates.

When a stream introduces new class groups mid-run, naive fine-tuning on
the new arrivals catastrophically forgets the old groups.  The standard
remedy (LwF / iCaRL-style, cf. the IncrementalLearner exemplars in
SNIPPETS.md and the on-device-learning papers in PAPERS.md) is to keep a
small exemplar buffer of old-group samples and add a distillation term
that holds the student's softened predictions close to the pre-update
teacher's.

The combined objective per batch of size ``B`` is::

    L = CE(student, labels) + w * T^2 * H(softmax(teacher/T), softmax(student/T))

whose logit gradient is ``(p - y)/B + w * T * (q_s - q_t)/B`` — both
terms are computed here in closed form and summed into one backward
pass, matching the repo's fused-loss idiom.

:func:`distill_classifier` trains through fine-tuning's SGD loop and its one
pass over a frozen prefix, with this loss and a teacher forward per minibatch.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.nn import Sequential, prefix_memo
from repro.nn.activations import softmax
from repro.obs.clock import perf_counter
from repro.transfer.finetune import (
    TrainResult,
    _frozen_prefix_rows,
    _sgd_epochs,
    split_at_frozen_prefix,
    trainable_tail,
)
from repro.transfer.surgery import FreezePlan

__all__ = ["DistillationLoss", "distill_classifier"]


class DistillationLoss:
    """Fused cross-entropy + softened teacher cross-entropy.

    ``forward`` returns the combined mean loss; ``backward`` returns its
    gradient w.r.t. the *student* logits.  The distillation term carries
    the conventional ``T^2`` factor so its gradient magnitude stays
    comparable across temperatures.
    """

    def __init__(self, distill_weight: float, temperature: float = 2.0) -> None:
        if distill_weight < 0:
            raise ValueError("distill_weight must be >= 0")
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        self.distill_weight = distill_weight
        self.temperature = temperature
        self._cache = None

    def forward(
        self,
        student_logits: np.ndarray,
        teacher_logits: np.ndarray,
        labels: np.ndarray,
    ) -> float:
        labels = np.asarray(labels)
        if student_logits.shape != teacher_logits.shape:
            raise ValueError("student/teacher logits shapes differ")
        if labels.shape != (student_logits.shape[0],):
            raise ValueError("labels shape does not match batch")
        probs = softmax(student_logits, axis=1)
        picked = probs[np.arange(len(labels)), labels]
        hard = float(-np.log(np.clip(picked, 1e-12, None)).mean())
        t = self.temperature
        soft_student = softmax(student_logits / t, axis=1)
        soft_teacher = softmax(teacher_logits / t, axis=1)
        soft = float(
            -(soft_teacher * np.log(np.clip(soft_student, 1e-12, None)))
            .sum(axis=1)
            .mean()
        )
        self._cache = (probs, soft_student, soft_teacher, labels)
        return hard + self.distill_weight * t * t * soft

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, soft_student, soft_teacher, labels = self._cache
        self._cache = None
        batch = len(labels)
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        # d/dz of T^2 * H(q_t, softmax(z/T)) = T * (q_s - q_t)
        grad += (
            self.distill_weight
            * self.temperature
            * (soft_student - soft_teacher)
        )
        return grad / batch

    def __call__(self, student_logits, teacher_logits, labels) -> float:
        return self.forward(student_logits, teacher_logits, labels)


def distill_classifier(
    net: Sequential,
    train_data: Dataset,
    *,
    teacher: Sequential,
    distill_weight: float = 1.0,
    temperature: float = 2.0,
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 0.01,
    rng: np.random.Generator | None = None,
    freeze_plan: FreezePlan | None = None,
) -> TrainResult:
    """Fine-tune ``net`` under the combined hard + distillation loss.

    ``teacher`` is a frozen snapshot of the pre-update model; its logits are
    recomputed per minibatch.  A frozen prefix of ``net`` that the teacher
    shares byte for byte (system d's locked conv block) runs once over the
    dataset, as in :func:`~repro.transfer.finetune.train_classifier`, and
    both tails read its rows; backward and the optimizer see the student's
    tail only.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(train_data) == 0:
        raise ValueError("cannot distill on an empty dataset")
    rng = rng if rng is not None else np.random.default_rng(0)
    if freeze_plan is not None:
        freeze_plan.apply(net)

    started = perf_counter()
    result = TrainResult(network=net)
    boundary = split_at_frozen_prefix(net)
    if prefix_memo.params_digest(net.layers[:boundary]) != (
        prefix_memo.params_digest(teacher.layers[:boundary])
    ):
        boundary = 0  # nothing byte-equal to run once for both
    inputs = _frozen_prefix_rows(net, boundary, train_data.images)
    labels = train_data.labels
    with trainable_tail(net, boundary) as student, trainable_tail(
        teacher, boundary
    ) as teacher_tail:

        def minibatch(idx: np.ndarray) -> tuple[np.ndarray, ...]:
            x = inputs[idx]
            return x, teacher_tail.predict(x), labels[idx]

        _sgd_epochs(
            student,
            result,
            minibatch,
            DistillationLoss(distill_weight, temperature),
            samples=len(labels),
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
            rng=rng,
        )
    result.wall_time_s = perf_counter() - started
    return result
