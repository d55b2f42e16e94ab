"""Unsupervised pre-training via spatial-context (jigsaw) prediction."""

from repro.selfsup.context_net import ContextNetwork, build_context_head
from repro.selfsup.jigsaw import JigsawSampler
from repro.selfsup.permutations import PermutationSet, max_hamming_permutations
from repro.selfsup.pretrain import (
    build_context_network,
    permutation_accuracy,
    pretrain,
)

__all__ = [
    "ContextNetwork",
    "JigsawSampler",
    "PermutationSet",
    "build_context_head",
    "build_context_network",
    "max_hamming_permutations",
    "permutation_accuracy",
    "pretrain",
]
