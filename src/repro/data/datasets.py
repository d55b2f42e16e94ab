"""Dataset container and batching utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.data.drift import DriftModel
from repro.data.images import ImageGenerator
from repro.nn.config import default_dtype

__all__ = ["Dataset", "make_dataset"]


@dataclass
class Dataset:
    """A labeled image set in NCHW layout.

    ``labels`` may be hidden from consumers (``labeled=False``) to model the
    unlabeled raw IoT data that unsupervised pre-training consumes; the
    ground truth is still carried so experiments can score accuracy.
    """

    images: np.ndarray
    labels: np.ndarray
    labeled: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=default_dtype())
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.images.shape[0]} images"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(
            self.images[indices],
            self.labels[indices],
            labeled=self.labeled,
            meta=dict(self.meta),
        )

    def take(self, count: int) -> "Dataset":
        """First ``count`` samples (acquisition order)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return self.subset(np.arange(min(count, len(self))))

    def as_unlabeled(self) -> "Dataset":
        """A view that consumers must treat as unlabeled raw IoT data."""
        return Dataset(self.images, self.labels, labeled=False, meta=dict(self.meta))

    def batches(
        self, batch_size: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate (images, labels) minibatches in dataset order.

        The batches are views of the dataset's arrays (an evaluation sweep
        reads them in place).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for start in range(0, len(self), batch_size):
            yield (
                self.images[start : start + batch_size],
                self.labels[start : start + batch_size],
            )

    @staticmethod
    def concat(parts: Sequence["Dataset"]) -> "Dataset":
        if not parts:
            raise ValueError("cannot concat zero datasets")
        return Dataset(
            np.concatenate([p.images for p in parts]),
            np.concatenate([p.labels for p in parts]),
            labeled=all(p.labeled for p in parts),
        )


def make_dataset(
    count: int,
    *,
    generator: ImageGenerator,
    drift: DriftModel | None = None,
    rng: np.random.Generator,
    classes: tuple[int, ...] | None = None,
) -> Dataset:
    """Generate ``count`` images with uniform class balance.

    ``drift=None`` produces ideal (Cloud-training-style) data; a
    :class:`DriftModel` produces in-situ conditions.  ``classes``
    restricts sampling to a subset of class ids (class-incremental
    streams); ``None`` keeps the full label space and is bit-identical
    to the historical behaviour.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if classes is None:
        labels = rng.integers(0, generator.num_classes, size=count)
    else:
        pool = np.asarray(sorted(classes), dtype=np.int64)
        if pool.size == 0:
            raise ValueError("classes must be non-empty when given")
        if pool.min() < 0 or pool.max() >= generator.num_classes:
            raise ValueError("classes out of range for this generator")
        labels = pool[rng.integers(0, pool.size, size=count)]
    images = generator.batch(labels)
    if drift is not None:
        images = drift.apply_batch(images)
    severity = drift.severity if drift is not None else 0.0
    return Dataset(images, labels, meta={"drift_severity": severity})
