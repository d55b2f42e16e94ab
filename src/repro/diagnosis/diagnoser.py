"""Autonomous IoT data diagnosis (the paper's "diagnosis task").

The diagnosis task decides, on the node, which newly acquired samples are
*valuable* — i.e. likely unrecognized by the current inference model — and
therefore worth uploading to the Cloud for incremental training.  The paper
deploys the unsupervised context network for this job; this module provides
that diagnoser plus the baselines the ablation benches compare against:

* :class:`JigsawDiagnoser` — the paper's design: a sample whose jigsaw
  puzzles the unsupervised network cannot solve confidently is flagged.
* :class:`InferenceConfidenceDiagnoser` — softmax-confidence thresholding on
  the inference network itself.
* :class:`OracleDiagnoser` — ground-truth misclassification (the "incorrect
  predictions" criterion of Fig. 7; an upper bound, not deployable).
* :class:`RandomDiagnoser` — uniform random selection at a fixed budget.

All diagnosers share one contract: ``flags(dataset)`` returns a boolean mask
with True for unrecognized/valuable samples.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.datasets import Dataset
from repro.nn import Sequential, softmax
from repro.obs import metrics as obs_metrics
from repro.selfsup.context_net import ContextNetwork
from repro.selfsup.jigsaw import JigsawSampler
from repro.transfer.finetune import predict_logits

__all__ = [
    "Diagnoser",
    "JigsawDiagnoser",
    "InferenceConfidenceDiagnoser",
    "OracleDiagnoser",
    "RandomDiagnoser",
]


class Diagnoser:
    """Interface: mark which samples are unrecognized (upload-worthy)."""

    def flags(self, data: Dataset) -> np.ndarray:
        raise NotImplementedError

    def flags_given_logits(
        self, data: Dataset, net: Sequential, logits: np.ndarray
    ) -> np.ndarray:
        """:meth:`flags` for a caller holding ``predict_logits(net, data)``.

        The node's inference task has just run that pass.  A diagnoser
        that reads the same network's logits (oracle, confidence) takes
        them instead of repeating it; every other diagnoser ignores them.
        """
        return self.flags(data)

    def diagnose(self, data: Dataset) -> np.ndarray:
        """``flags`` plus flag-rate accounting into the ambient metrics.

        The mask is identical to :meth:`flags`; the only addition is the
        scanned/flagged counters, recorded per diagnoser class so the
        upload-selectivity of each design is visible in one dump.
        """
        mask = self.flags(data)
        registry = obs_metrics.active()
        if registry is not None:
            kind = type(self).__name__
            registry.counter("diagnosis.scanned", diagnoser=kind).inc(
                len(data)
            )
            registry.counter("diagnosis.flagged", diagnoser=kind).inc(
                int(np.count_nonzero(mask))
            )
        return mask


class JigsawDiagnoser(Diagnoser):
    """Diagnosis through the unsupervised context network.

    Each image is turned into ``trials`` jigsaw puzzles with known
    permutations; the sample counts as *recognized* when the network solves
    at least ``min_correct`` of them.  Failing the spatial-context task
    indicates the trunk's features do not describe the image well — the same
    features the inference network relies on — so the sample is valuable.

    Per ``batch_size`` slice the trunk runs once, on the unshuffled tiles;
    each trial reorders the nine feature rows into the head
    (:meth:`~repro.selfsup.context_net.ContextNetwork.puzzle_logits`), which
    gives the logits of ``trials`` shuffled passes bit for bit.

    ``score`` exposes the underlying mean-confidence signal for threshold
    calibration (see :mod:`repro.diagnosis.policy`).
    """

    def __init__(
        self,
        network: ContextNetwork,
        sampler: JigsawSampler,
        *,
        trials: int = 2,
        min_correct: int | None = None,
        rng: np.random.Generator | None = None,
        batch_size: int = 64,
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.network = network
        self.sampler = sampler
        self.trials = trials
        self.min_correct = min_correct if min_correct is not None else trials
        if not 1 <= self.min_correct <= trials:
            raise ValueError("min_correct must be in [1, trials]")
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.batch_size = batch_size

    def _puzzles(
        self, images: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        return self.network.puzzle_logits(
            images, self.sampler, trials=self.trials, batch_size=self.batch_size
        )

    def flags(self, data: Dataset) -> np.ndarray:
        counts = np.zeros(len(data), dtype=np.int64)
        for start, logits, labels in self._puzzles(data.images):
            counts[start : start + len(labels)] += logits.argmax(axis=1) == labels
        return counts < self.min_correct

    def score(self, data: Dataset) -> np.ndarray:
        """Mean correct-permutation probability per image (high = recognized)."""
        scores = np.zeros(len(data))
        for start, logits, labels in self._puzzles(data.images):
            probs = softmax(logits, axis=1)
            rows = np.arange(len(labels))
            scores[start : start + len(labels)] += probs[rows, labels]
        return scores / self.trials


class _LogitDiagnoser(Diagnoser):
    """Base of the diagnosers that read the inference network's own logits.

    Their pass is :func:`~repro.transfer.finetune.predict_logits` — the
    slices :func:`~repro.transfer.finetune.evaluate` runs — so logits a
    caller already computed for ``self.network`` are the very arrays the
    diagnoser would compute, and the flags cannot differ.
    """

    def __init__(self, network: Sequential) -> None:
        self.network = network

    def _logits(self, data: Dataset, logits: np.ndarray | None) -> np.ndarray:
        return predict_logits(self.network, data) if logits is None else logits

    def flags(
        self, data: Dataset, logits: np.ndarray | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def flags_given_logits(
        self, data: Dataset, net: Sequential, logits: np.ndarray
    ) -> np.ndarray:
        return self.flags(data, logits if net is self.network else None)


class InferenceConfidenceDiagnoser(_LogitDiagnoser):
    """Flag samples whose inference softmax confidence is below a threshold."""

    def __init__(self, network: Sequential, threshold: float = 0.6) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        super().__init__(network)
        self.threshold = threshold

    def score(
        self, data: Dataset, logits: np.ndarray | None = None
    ) -> np.ndarray:
        """Top softmax probability per sample (high = recognized)."""
        # The scores stay in the precision the threshold is given in.
        scores = np.zeros(len(data))
        scores[...] = softmax(self._logits(data, logits), axis=1).max(axis=1)
        return scores

    def flags(
        self, data: Dataset, logits: np.ndarray | None = None
    ) -> np.ndarray:
        return self.score(data, logits) < self.threshold


class OracleDiagnoser(_LogitDiagnoser):
    """Ground-truth misclassification — the ideal "unrecognized" criterion.

    Requires labels, so it is an experimental upper bound (it is exactly the
    selection rule Fig. 7 uses when it builds Net-Err from the images the
    model got wrong).
    """

    def flags(
        self, data: Dataset, logits: np.ndarray | None = None
    ) -> np.ndarray:
        return self._logits(data, logits).argmax(axis=1) != data.labels


class RandomDiagnoser(Diagnoser):
    """Upload a uniform random fraction — the naive budget baseline."""

    def __init__(self, fraction: float, *, rng: np.random.Generator) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.rng = rng

    def flags(self, data: Dataset) -> np.ndarray:
        return self.rng.random(len(data)) < self.fraction
