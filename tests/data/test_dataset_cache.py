"""The seed-keyed dataset cache hands out one frozen payload.

A miss builds the payload once and marks every array it holds read-only;
every later hit returns that same object.  A stray in-place write raises
instead of silently changing what later hits see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.simulation import Scenario, scenario_data
from repro.data.cache import DatasetCache, dataset_cache


def _arrays(payload: dict) -> list[np.ndarray]:
    stages = payload["stages"]
    return [
        *(a for s in stages for a in (s.new_data.images, s.new_data.labels)),
        payload["pretrain_data"].images,
        payload["eval_data"].images,
        payload["eval_data"].labels,
        payload["permset"].perms,
    ]


def test_payload_arrays_are_read_only_and_a_hit_returns_them():
    cache = DatasetCache()
    built = []

    def build():
        built.append(1)
        return {"data": [np.arange(6.0)], "pair": (np.ones(2), {"n": np.zeros(3)})}

    first = cache.get_or_build("k", build)
    snapshot = first["data"][0].tobytes()
    second = cache.get_or_build("k", build)
    assert built == [1] and (cache.hits, cache.misses) == (1, 1)
    assert second is first
    assert second["data"][0].tobytes() == snapshot
    for array in (first["data"][0], first["pair"][0], first["pair"][1]["n"]):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    assert cache.get_or_build("k", build)["data"][0].tobytes() == snapshot


def test_scenario_data_is_shared_and_frozen():
    scenario = Scenario(seed=3, stream_scale=0.02, eval_images=16, pretrain_images=8)
    cold = scenario_data(scenario)
    hits = dataset_cache.hits
    warm = scenario_data(scenario)
    assert dataset_cache.hits == hits + 1 and warm is cold
    assert all(not a.flags.writeable for a in _arrays(cold))
    with pytest.raises(ValueError, match="read-only"):
        cold["stages"][0].new_data.images[0, 0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        warm["eval_data"].labels[0] = 1
