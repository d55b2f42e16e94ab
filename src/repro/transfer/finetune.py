"""Supervised training / fine-tuning with frozen-prefix acceleration, and
the one minibatch SGD loop that the Cloud's three jobs (Fig. 4) share:
pre-training, fine-tuning and distillation.

When the first *n* conv layers are locked, their activations for a fixed
dataset never change, so the trainer computes them once and trains only the
tail on cached features.  This is the mechanism behind the paper's observed
1.7X fine-tuning speedup for CONV-3 sharing (Fig. 6) and the reduced model
update time of In-situ AI (Fig. 25).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.data.datasets import Dataset
from repro.nn import SGD, CrossEntropyLoss, Sequential, accuracy, prefix_memo
from repro.obs import metrics as obs_metrics
from repro.obs.clock import perf_counter
from repro.transfer.surgery import FreezePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.selfsup.context_net import ContextNetwork

__all__ = [
    "TrainResult",
    "evaluate_on_classes",
    "predict_logits",
    "reuse_depths",
    "split_at_frozen_prefix",
    "train_classifier",
    "trainable_tail",
]


@dataclass
class TrainResult:
    """Outcome of a training run: fine-tuning, distillation or jigsaw
    pre-training (whose ``network`` is the ``ContextNetwork`` and whose
    per-epoch accuracy is the permutation accuracy on its own images)."""

    network: Sequential | ContextNetwork
    losses: list[float] = field(default_factory=list)
    eval_accuracies: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    sample_steps: int = 0
    #: multiply-accumulate-ish work units actually spent (frozen prefix
    #: forward passes counted once, not once per epoch)
    compute_units: float = 0.0

    @property
    def final_accuracy(self) -> float:
        return self.eval_accuracies[-1] if self.eval_accuracies else 0.0


def split_at_frozen_prefix(net: Sequential) -> int:
    """Index of the first layer that must run during training.

    Layers before the index form a frozen prefix: every parameterized layer
    in it is frozen.  Stateless layers (ReLU, pooling) belong to the prefix
    as long as no trainable layer precedes them.
    """
    boundary = 0
    for i, layer in enumerate(net.layers):
        if layer.parameters:
            if layer.frozen:
                boundary = i + 1
            else:
                break
    return _block_end(net, boundary)


def _block_end(net: Sequential, boundary: int) -> int:
    """``boundary`` extended across the stateless layers that follow it."""
    while boundary < len(net.layers) and not net.layers[boundary].parameters:
        boundary += 1
    # Never swallow the whole network: the head must remain trainable.
    return min(boundary, max(0, len(net.layers) - 1))


def reuse_depths(net: Sequential) -> tuple[int, ...]:
    """Prefix lengths at which sweeps consult :mod:`repro.nn.prefix_memo`:
    where the freeze plans in use split the network — the end of the CONV-3
    block system d locks, and of the CONV-5 trunk head updates lock."""
    return tuple(
        _block_end(net, i + 1)
        for i, layer in enumerate(net.layers)
        if layer.name in ("conv3", "conv5")
    )


@contextmanager
def trainable_tail(net: Sequential, boundary: int) -> Iterator[Sequential]:
    """``net`` from layer ``boundary`` on, as the network a trainer steps.

    The tail shares its layers with ``net``, and ``Sequential`` marks its
    first conv ``skip_input_grad``.  The mark is scoped to the block: left
    set, a later full-network backward under a shallower freeze plan
    would silently feed zeros to the layers below the old boundary.
    """
    tail_head = net.layers[boundary]
    skip_before = getattr(tail_head, "skip_input_grad", None)
    try:
        yield Sequential(net.layers[boundary:], net.shape_at(boundary))
    finally:
        if skip_before is not None:
            tail_head.skip_input_grad = skip_before


def _layer_work(layer, batch: int) -> float:
    """Rough forward work estimate in parameter-touches per batch."""
    return float(layer.num_parameters) * batch


def _frozen_prefix_rows(
    net: Sequential, boundary: int, images: np.ndarray
) -> np.ndarray:
    """``net.layers[:boundary]`` on ``images``, in inference mode: one pass
    over the dataset, rows stored at the reuse depths inside the prefix, or
    none if sweeps already made every image's rows."""
    depths = [d for d in reuse_depths(net) if d <= boundary]
    return prefix_memo.infer(net.layers[:boundary], depths, images)


def _sgd_epochs(
    model: Sequential | ContextNetwork,
    result: TrainResult,
    minibatch: Callable[[np.ndarray], tuple],
    loss_fn,
    *,
    samples: int,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    score: Callable[[], float] | None = None,
) -> None:
    """The one minibatch SGD loop: :func:`train_classifier`,
    :func:`~repro.transfer.distill.distill_classifier` and
    :func:`~repro.selfsup.pretrain.pretrain` differ only in ``minibatch``,
    ``loss_fn`` and ``score``.

    Each epoch slices one ``rng.permutation(samples)`` into ``batch_size``
    minibatches; ``minibatch(idx)`` returns ``(inputs, *loss_args)`` and the
    step descends ``loss_fn(model(inputs), *loss_args)``.  Records each
    epoch's mean loss, the samples stepped and, given ``score``, its value
    after every epoch in ``result.eval_accuracies``.
    """
    optimizer = SGD(model.parameters, lr=lr)
    batches = max(1, len(range(0, samples, batch_size)))
    for _ in range(epochs):
        order = rng.permutation(samples)
        epoch_loss = 0.0
        for start in range(0, samples, batch_size):
            idx = order[start : start + batch_size]
            x, *loss_args = minibatch(idx)
            logits = model.forward(x, training=True)
            epoch_loss += loss_fn(logits, *loss_args)
            model.zero_grad()
            model.backward(loss_fn.backward())
            optimizer.step()
            result.sample_steps += len(idx)
        result.losses.append(epoch_loss / batches)
        if score is not None:
            result.eval_accuracies.append(score())


def train_classifier(
    net: Sequential,
    train_data: Dataset,
    *,
    epochs: int = 5,
    batch_size: int = 32,
    lr: float = 0.02,
    rng: np.random.Generator | None = None,
    eval_data: Dataset | None = None,
    freeze_plan: FreezePlan | None = None,
) -> TrainResult:
    """Train or fine-tune an inference network.

    If ``freeze_plan`` locks a prefix of conv layers, the prefix runs
    exactly once over the dataset and the optimization loop touches only
    the tail.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(train_data) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = rng if rng is not None else np.random.default_rng(0)
    if freeze_plan is not None:
        freeze_plan.apply(net)

    # Host wall time for reporting only (sanctioned obs.clock source);
    # simulated time always comes from the cost models.
    started = perf_counter()
    result = TrainResult(network=net)
    boundary = split_at_frozen_prefix(net)
    inputs = _frozen_prefix_rows(net, boundary, train_data.images)
    labels = train_data.labels
    for layer in net.layers[:boundary]:
        result.compute_units += _layer_work(layer, len(train_data))

    with trainable_tail(net, boundary) as trainable:
        _sgd_epochs(
            trainable,
            result,
            lambda idx: (inputs[idx], labels[idx]),
            CrossEntropyLoss(),
            samples=len(labels),
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
            rng=rng,
            score=None if eval_data is None else lambda: evaluate(net, eval_data),
        )
        # Forward + ~2x backward over the trainable portion only.
        for layer in trainable.layers:
            result.compute_units += 3.0 * _layer_work(layer, result.sample_steps)
    result.wall_time_s = perf_counter() - started
    registry = obs_metrics.active()
    if registry is not None:
        registry.counter("train.runs").inc()
        registry.counter("train.epochs").inc(epochs)
        registry.counter("train.samples").inc(result.sample_steps)
        loss_hist = registry.histogram("train.epoch_loss")
        for loss in result.losses:
            loss_hist.observe(loss)
    return result


def predict_logits(net: Sequential, data: Dataset) -> np.ndarray:
    """Inference-mode logits of every sample, in dataset order, swept in
    128-image slices.

    The one forward sweep :func:`evaluate` and the logit-reading
    diagnosers are built on: a caller that needs both the accuracy and
    the flags of the same (weights, data) runs it once and hands the
    result to each.
    """
    if len(data) == 0:  # nothing to concatenate; a diagnoser flags nothing
        return np.zeros((0, *net.output_shape), dtype=data.images.dtype)
    with net.reusing_prefix(reuse_depths(net)):
        return np.concatenate(
            [net.predict(x) for x, _ in data.batches(128)]
        )


def evaluate(net: Sequential, data: Dataset) -> float:
    """Top-1 accuracy of the network on a dataset."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = predict_logits(net, data)
    return accuracy(logits, data.labels)


def evaluate_on_classes(net: Sequential, data: Dataset, classes) -> float:
    """Top-1 accuracy restricted to samples whose label is in ``classes``.

    The class-incremental scenarios report per-phase accuracy this way:
    the eval set stays fixed across phases, and each class group's slice
    is scored separately so forgetting on early groups is visible.
    """
    mask = np.isin(data.labels, np.asarray(sorted(classes), dtype=np.int64))
    if not mask.any():
        raise ValueError(f"eval data contains no samples of classes {classes}")
    subset = data.subset(np.flatnonzero(mask))
    return evaluate(net, subset)
