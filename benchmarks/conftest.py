"""Shared fixtures for the paper-reproduction benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation.  Heavy artifacts (trained networks, the four-system simulation)
are session-scoped so running the whole suite does each expensive step once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Scenario
from repro.data import DriftModel, ImageGenerator, make_dataset
from repro.fleet import run_all_systems
from repro.models import alexnet_spec, diagnosis_spec, vgg16_spec
from repro.reports import format_table
from repro.selfsup import (
    JigsawSampler,
    PermutationSet,
    build_context_network,
    pretrain,
)


@pytest.fixture(scope="session")
def tables():
    """Print a paper-style table (:func:`repro.reports.format_table`)."""
    return lambda title, header, rows: print(
        "\n" + format_table(title, header, rows)
    )


@pytest.fixture(scope="session")
def alexnet():
    return alexnet_spec()


@pytest.fixture(scope="session")
def alexnet_diag(alexnet):
    return diagnosis_spec(alexnet)


@pytest.fixture(scope="session")
def vggnet():
    return vgg16_spec()


@pytest.fixture
def bench_generator():
    """A fresh, identically-seeded generator per bench.

    Function-scoped on purpose: the generator carries mutable RNG state, so
    sharing one across benches would make results depend on execution
    order.
    """
    return ImageGenerator(48, 4, rng=np.random.default_rng(100))


@pytest.fixture(scope="session")
def bench_datasets():
    """Ideal train/test plus a drifted test set (Table I-style split)."""
    generator = ImageGenerator(48, 4, rng=np.random.default_rng(100))
    rng = np.random.default_rng(101)
    train = make_dataset(260, generator=generator, rng=rng)
    test_ideal = make_dataset(160, generator=generator, rng=rng)
    test_drift = make_dataset(
        160,
        generator=generator,
        drift=DriftModel(0.6, rng=rng),
        rng=rng,
    )
    return train, test_ideal, test_drift


@pytest.fixture(scope="session")
def pretrained_context():
    """One well-trained and one weakly-trained context network.

    Fig. 5 compares transfer from a 71%-accurate and an 88%-accurate
    unsupervised network; these are the IoT-scale counterparts.
    """
    rng = np.random.default_rng(200)
    generator = ImageGenerator(48, 4, rng=rng)
    permset = PermutationSet.generate(8, rng=rng)
    sampler = JigsawSampler(permset, rng=rng)
    images = make_dataset(
        320, generator=generator, drift=DriftModel(0.3, rng=rng), rng=rng
    ).images

    weak = build_context_network(permset, rng=np.random.default_rng(201))
    weak_result = pretrain(
        weak, images, sampler, epochs=1, lr=0.01,
        rng=np.random.default_rng(202),
    )
    strong = build_context_network(permset, rng=np.random.default_rng(201))
    strong_result = pretrain(
        strong, images, sampler, epochs=6, lr=0.01,
        rng=np.random.default_rng(202),
    )
    return {
        "permset": permset,
        "weak": weak,
        "weak_acc": weak_result.final_accuracy,
        "strong": strong,
        "strong_acc": strong_result.final_accuracy,
    }


@pytest.fixture(scope="session")
def system_results():
    """The four-system end-to-end run shared by Table II and Fig. 25.

    One barrier event run per system over a one-node fleet, oracle
    diagnoser: ``{system_id: FleetEventReport}``.
    """
    scenario = Scenario(
        num_classes=4,
        stream_scale=1.0,
        severities=(0.3, 0.4, 0.35, 0.45, 0.4),
        eval_severity=0.4,
        seed=0,
    )
    return run_all_systems(scenario)
