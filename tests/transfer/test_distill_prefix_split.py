"""``distill_classifier`` split at the frozen prefix equals the unsplit loop.

The old formulation — teacher and student each run the whole network on every
minibatch, backward walks every layer — is kept here as the reference: the
split one must reproduce its losses, parameters and accuracies bit for bit,
at every freeze depth and when the teacher's prefix is not the student's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ImageGenerator, make_dataset
from repro.data.datasets import Dataset
from repro.models import build_classifier
from repro.nn import SGD, Conv2D, prefix_memo
from repro.transfer import FreezePlan, evaluate
from repro.transfer.distill import DistillationLoss, distill_classifier


def unsplit_distill(net, train_data, *, teacher, freeze_plan, epochs, batch_size, rng):
    """``distill_classifier`` as it was before the split, defaults included."""
    freeze_plan.apply(net)
    loss_fn = DistillationLoss(1.0, 2.0)
    optimizer = SGD(net.parameters, lr=0.01, momentum=0.9)
    inputs, labels = train_data.images, train_data.labels
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(labels), batch_size):
            idx = order[start : start + batch_size]
            x, y = inputs[idx], labels[idx]
            teacher_logits = teacher.predict(x)
            logits = net.forward(x, training=True)
            epoch_loss += loss_fn(logits, teacher_logits, y)
            batches += 1
            net.zero_grad()
            net.backward(loss_fn.backward())
            optimizer.step()
        losses.append(epoch_loss / max(1, batches))
    return losses


@pytest.fixture(scope="module")
def data() -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(21)
    generator = ImageGenerator(image_size=48, num_classes=4, rng=rng)
    return (
        make_dataset(40, generator=generator, rng=rng),
        make_dataset(24, generator=generator, rng=rng),
    )


def student_and_teacher(teacher_prefix_differs: bool = False):
    student = build_classifier(4, np.random.default_rng(1))
    teacher = build_classifier(4, np.random.default_rng(1))
    teacher["fc8"].bias.data[...] = [0.3, -0.2, 0.1, 0.0]  # an older head
    if teacher_prefix_differs:
        teacher["conv2"].weight.data[0, 0, 0, 0] += 0.25
    return student, teacher


def count_conv_calls(monkeypatch) -> dict[str, list[str]]:
    """Names of the convs whose forward / backward run from here on."""
    calls: dict[str, list[str]] = {"forward": [], "backward": []}
    for method in calls:
        original = getattr(Conv2D, method)

        def counting(self, *args, _original=original, _seen=calls[method], **kw):
            _seen.append(self.name)
            return _original(self, *args, **kw)

        monkeypatch.setattr(Conv2D, method, counting)
    return calls


@pytest.mark.parametrize(
    "depth,teacher_prefix_differs",
    [(0, False), (3, False), (5, False), (3, True), (5, True)],
)
def test_equals_the_unsplit_formulation(data, depth, teacher_prefix_differs):
    train_data, eval_data = data
    kwargs = dict(freeze_plan=FreezePlan(depth), epochs=2, batch_size=16)
    old_net, old_teacher = student_and_teacher(teacher_prefix_differs)
    prefix_memo.clear()
    old_losses = unsplit_distill(
        old_net,
        train_data,
        teacher=old_teacher,
        rng=np.random.default_rng(3),
        **kwargs,
    )
    new_net, new_teacher = student_and_teacher(teacher_prefix_differs)
    prefix_memo.clear()
    result = distill_classifier(
        new_net,
        train_data,
        teacher=new_teacher,
        rng=np.random.default_rng(3),
        **kwargs,
    )
    assert result.losses == old_losses
    assert evaluate(new_net, eval_data) == evaluate(old_net, eval_data)
    assert result.sample_steps == 2 * len(train_data)
    for old, new in zip(old_net.parameters, new_net.parameters, strict=True):
        assert np.array_equal(old.data, new.data), old.name
    for old, new in zip(
        old_teacher.parameters, new_teacher.parameters, strict=True
    ):
        assert np.array_equal(old.data, new.data), old.name


@pytest.mark.parametrize("depth", [3, 5])
def test_shared_prefix_runs_once_and_is_never_walked_back(
    data, depth, monkeypatch
):
    train_data, _ = data
    student, teacher = student_and_teacher()
    calls = count_conv_calls(monkeypatch)
    distill_classifier(
        student,
        train_data,
        teacher=teacher,
        epochs=1,
        batch_size=16,
        rng=np.random.default_rng(3),
        freeze_plan=FreezePlan(depth),
    )
    minibatches = 3  # 40 rows in 16s
    for i in range(1, 6):
        shared = i <= depth
        assert calls["forward"].count(f"conv{i}") == minibatches * (
            1 if shared else 2
        )
        assert calls["backward"].count(f"conv{i}") == (
            0 if shared else minibatches
        )


def test_a_differing_teacher_prefix_falls_back_to_two_passes(data, monkeypatch):
    train_data, _ = data
    student, teacher = student_and_teacher(teacher_prefix_differs=True)
    calls = count_conv_calls(monkeypatch)
    distill_classifier(
        student,
        train_data,
        teacher=teacher,
        epochs=1,
        batch_size=16,
        rng=np.random.default_rng(3),
        freeze_plan=FreezePlan(3),
    )
    assert calls["forward"].count("conv1") == 2 * 3


class TestSkipMarkIsScoped:
    """The distill twin of ``test_tail_training_does_not_leak_skip_input_grad``."""

    def test_tail_distillation_does_not_leak_skip_input_grad(self, data):
        train_data, _ = data
        student, teacher = student_and_teacher()
        distill_classifier(
            student,
            train_data,
            teacher=teacher,
            epochs=1,
            rng=np.random.default_rng(3),
            freeze_plan=FreezePlan(3),
        )
        for net in (student, teacher):
            assert net["conv4"].skip_input_grad is False
            assert net["conv1"].skip_input_grad is True  # its own first layer

        student.unfreeze_all()
        x = train_data.images[:4]
        logits = student.forward(x, training=True)
        student.zero_grad()
        student.backward(np.ones_like(logits))
        assert np.any(student["conv1"].weight.grad != 0.0)

    def test_skip_input_grad_restored_when_distillation_raises(self, data):
        train_data, _ = data
        student, teacher = student_and_teacher()
        broken = Dataset(train_data.images, np.full(len(train_data), 99))
        with pytest.raises(IndexError):
            distill_classifier(
                student,
                broken,
                teacher=teacher,
                epochs=1,
                rng=np.random.default_rng(3),
                freeze_plan=FreezePlan(3),
            )
        for net in (student, teacher):
            assert net["conv4"].skip_input_grad is False
