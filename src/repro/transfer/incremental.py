"""The exemplar buffer of class-incremental updates.

The Cloud's incremental update (:meth:`repro.core.cloud.InSituCloud
.incremental_update`) fine-tunes the deployed model on newly uploaded data
and mixes in a replay sample from its archive.  A scenario with a
class-incremental stream also keeps a capacity-bounded reservoir of earlier
uploads here, and distills against the pre-update model on all of it, so
the classes an update no longer sees are not forgotten.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Reservoir of previously uploaded samples mixed into each update."""

    def __init__(self, capacity: int, *, rng: np.random.Generator) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.rng = rng
        self._data: Dataset | None = None

    def __len__(self) -> int:
        return 0 if self._data is None else len(self._data)

    @property
    def data(self) -> Dataset | None:
        """The whole buffer.

        Exemplar-replay distillation mixes *every* retained exemplar into
        the update (the buffer is already capacity-bounded), so drawing a
        random subset would only add nondeterminism surface.
        """
        return self._data

    def add(self, data: Dataset) -> None:
        """Keep ``data``; over capacity, keep a uniform random subset."""
        if self.capacity == 0 or len(data) == 0:
            return
        merged = (
            data if self._data is None else Dataset.concat([self._data, data])
        )
        if len(merged) > self.capacity:
            keep = self.rng.choice(len(merged), size=self.capacity, replace=False)
            merged = merged.subset(np.sort(keep))
        self._data = merged
