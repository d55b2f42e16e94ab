"""Cross-commit pins for the fleet engine's consumers.

``test_determinism_guard.py`` pins a handful of flat-path numbers across
commits.  This module records, per consumer, hashes of everything a run
emits — the JSONL trace (in emission order and order-free), the metrics
dump, and every report field — so a refactor of the engine shows up as a
named diff instead of passing silently.

The lockstep consumer, ``flat`` (``run_fleet`` system ``d``: the event
engine's barrier mode over the flat fleet), runs at ``workers=1`` and
``workers=2`` against the same golden.

The six event consumers (``EVENT_CONSUMERS``) pin the event engine the
same way, through ``run_fleet_event`` / ``run_scenario_event``: flat
async, flat barrier under a horizon that cycles the schedule and freezes
a round half-way, the same hierarchical topology async under a horizon
and barrier, and ``TINY_ALL_YAML`` event-barrier and event-async.

Two of them are also what a lockstep request runs, and each replaced a
lockstep consumer that recorded the very same hashes for what both
runs share, so those pins carried over unchanged:

* ``event_scenario_barrier`` — an ``engine: lockstep`` scenario; the
  lockstep ``scenario`` consumer had the same ``registry``,
  ``rollouts``, ``stage_info`` and ``scenario_outcome``;
* ``event_topology_barrier`` — every hierarchical lockstep run
  (``python -m repro fleet --topology fan-out``); the lockstep
  ``topology`` consumer (``run_fleet(topology=...)``, at any worker
  count) had the same ``registry`` and ``rollouts``.

The pins depend on the BLAS thread count.  They were recorded with
OpenBLAS unpinned on two cores; unpinned and 2, 3, 4 and 8 threads all
pass, but ``OPENBLAS_NUM_THREADS=1`` moves ``event_flat_async/registry``.
Run this module with BLAS unpinned, as CI does; the benchmark harness
pins one thread, so its digests compare only with other one-thread runs.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/fleet/test_lockstep_goldens.py

and paste the printed dict over ``GOLDENS`` — then say in CHANGES.md
which keys moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.systems import system_by_id
from repro.fleet.async_sim import run_fleet_event
from repro.fleet.profiles import FleetScenario
from repro.fleet.simulation import (
    fleet_base_scenario,
    prepare_fleet_assets,
    run_fleet,
)
from repro.obs import MetricsRegistry, Tracer
from repro.scenario import (
    load_spec,
    prepare_scenario_assets,
    run_scenario_event,
)
from repro.topology import AggregationPolicy, Topology

NUM_NODES = 4

# ``flat/registry`` and ``flat/rollouts`` were recorded at commit 589884d
# (PR 12) on the lockstep stage loop.  When ``run_fleet`` became the event
# engine's barrier mode the rest of ``flat`` was re-recorded: its report
# shape is the event engine's (``nodes``, ``updates``, ``gateway_*``), its
# fleet ledger logs 25 rows instead of 20 with equal totals (a push that
# lands before the node commits its round gets a download-only row), and
# its trace and metrics are the event engine's records.  Every new value equals what the
# parent commit's ``run_fleet_event(barrier=True)`` gives on these assets.
#
# The ``event_*`` consumers were recorded at commit 7dac000 (PR 13), before
# the event engines were composed into one; the composition moved nothing.
# Re-pinned since (each verified against the parent recording):
# * event_topology_*/trace, trace_sorted — the engine now stamps
#   ``tier="edge"`` on node/* and ``tier="cloud"`` on cloud/* records and
#   ``offered`` on gateway/second_opinion, as the stage loop always did;
#   with those attrs dropped both hash to the parent value.
# * event_topology_*/metrics — the gateway tier now emits the
#   ``topology.images.resolved`` counter; with it dropped, the parent value.
# * event_flat_barrier_horizon/nodes, event_topology_async_horizon/nodes —
#   nodes the horizon froze mid-epoch now report ``finish_s = makespan_s``
#   instead of 0.0; with ``finish_s`` zeroed both hash to the parent value.
# * event_*/updates — ``CloudUpdateRecord`` carries the ``stage_index`` the
#   engine already stamped on its ``cloud/*`` trace records; with that
#   field dropped every one hashes to the parent value.
# The event_scenario_* consumers carry no ``metrics`` pin: a scenario run
# takes no metrics registry (no command ever passed one), so there is no
# dump to hash.  Every other key of theirs is unchanged.
GOLDENS: dict[str, dict[str, str]] = {
    "flat": {
        "trace": (
            "4a3c0fab84e6bb4a12274ebd1636f5be2c630295e934aaeb7ae163dd40a01f1c"
        ),
        "trace_sorted": (
            "d24bd425f3346ac20519e2cb7a8862bd4f55fdebae800884459c9f5e1fedddc0"
        ),
        "metrics": (
            "3ff51402ce4fdc2d90d5c3f1b80a8d7dedeb68eec63f29cef383517f953aa8a9"
        ),
        "nodes": (
            "d322a0c6836070255b0feac3b2263e474e14ef8160ed9b3efc1a244f5af62c14"
        ),
        "updates": (
            "87bad255be2ae63044ef5bad0a75b82d4773217b070706f5ab0f39c85f6818aa"
        ),
        "gateway_flushes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "gateway_leftover_images": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "03409983c26b39dc3d02f3f66e9d562af8e87f37d2e3b45c8253eb730473cd96"
        ),
        "registry": (
            "539e86e50ed2564f37ffe22341333e37c804fc553240f7710748705981946c98"
        ),
        "rollouts": (
            "4737af0b2ee058b16538456f825e3414c042518f13eecb7182c48e4d5b3b664a"
        ),
    },
    "event_flat_async": {
        "trace": (
            "fbfd59f01eb8458ca3ce92045d735e72655a3ddff2d71d63be9919d2bf3514d1"
        ),
        "trace_sorted": (
            "4586b99cc40b0ce76c2098d88a44c11a487dfce8a2305d3b22a2cbbdcb9b25d1"
        ),
        "metrics": (
            "119272f57844063086ca12657785954aadee8aa988f739d0e30b3c6ef5f5d93e"
        ),
        "nodes": (
            "dbac97cadd75f90846061e901734ef6e187188411a78b97751d8aff2c8623a34"
        ),
        "updates": (
            "1a070fad90f09d0bbdf2940eecd985bd3ed81d6d93d40d0c4aca838c233de778"
        ),
        "gateway_flushes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "gateway_leftover_images": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "33905fa0b3a1762fb62eb2ff92f2dd84c84bd85e68581f1f62fae2ebe7dfa59f"
        ),
        "registry": (
            "7f709c9c294e2b878168b7b224c7dfd9ee57504293848c333153a48d9320ad5c"
        ),
        "rollouts": (
            "3590cb409be787a89079d83b1b91dc55250c781a3d8728625f8693e2eb7b6ee0"
        ),
    },
    "event_flat_barrier_horizon": {
        "trace": (
            "371e8e9821b0caca181d1d3a3c3f5d6720b3171ca7484850c1b07c6b084c2460"
        ),
        "trace_sorted": (
            "d23574062512eae880e102f64de9ca2cb71238730fc09d1ba1da1008259a9544"
        ),
        "metrics": (
            "34a63e8a0874ba500c1aed4afb781b748f1a3a76db97a0988451cbb63b419fb8"
        ),
        "nodes": (
            "28b2c37c291ebd78f0e076c639b8f434d1bcc66b539e902a416276b599ea67b1"
        ),
        "updates": (
            "b7163d71a14890d4fb7627940e7b3e8346cbe0d75d920146264d9ec0e5deb85a"
        ),
        "gateway_flushes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "gateway_leftover_images": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "baed3e99271b23a76108119046596c0d201b0d848aa5098ea14979f580ee16b2"
        ),
        "registry": (
            "c8bf69aaa8268071a727b19fbfe29e94eb38a9eca279414c957630d0900d3ff2"
        ),
        "rollouts": (
            "85596d1c38efdbf956970b7639d1d75ee8a9ac09ce5b7b6a7c7b001a002a9521"
        ),
    },
    "event_topology_async_horizon": {
        "trace": (
            "bd5c12a2576c14054c26ceb9109086a32e4240dff69de5f7e5ca3938c7864b44"
        ),
        "trace_sorted": (
            "544e584e28215722ebb67697d282b10c85e86d5beb092ececa137b8ab00b01f4"
        ),
        "metrics": (
            "208a9d2a7b6b87ee0af2681254133a36784f59da139bc247941583bb709e8253"
        ),
        "nodes": (
            "75e23d76fef6a770a391a8ae8967682a2694eed63cdef857ef99bf0782db9991"
        ),
        "updates": (
            "2455f1a11abb8a9285a2da297dc06a7fdd9f8a1dafd93e0450da65cd0f902027"
        ),
        "gateway_flushes": (
            "0d2500a94957fd2c5ebb995e4ab23cdb4d9ba6cc56f4ce07af43afe6eb1e6b83"
        ),
        "gateway_leftover_images": (
            "f76f1efd26cdc36d4b9aeb81758d56255bf460b1edc88a38bd980c8f0afbdcba"
        ),
        "ledgers": (
            "7261edc81fc8749031ee098c8aadd6001c2983fffa87f6f1dc2826ee932f9e31"
        ),
        "registry": (
            "3c72e5f91a89780149c2c87a5fd4c614e42cc06007c5ea3e49088d119039b229"
        ),
        "rollouts": (
            "19304310d86ed6eb221fa16734bd9a613934265727a255669cd83267afc05b88"
        ),
    },
    "event_topology_barrier": {
        "trace": (
            "5466284d4e39c1667b57eb5202c4e8e48a2ba652d1c1ed9997c14217742643ff"
        ),
        "trace_sorted": (
            "7c3af625c47fb733a5e77410e10504121849ba0cb6f47a5e27db52350a57131f"
        ),
        "metrics": (
            "40252a8daefac0f0a2eb6c9f5b1806a890caf71ff14af5159309a0a4032a18aa"
        ),
        "nodes": (
            "812a46688a4b0341d2f6db087245033b36fc61f9013c51e2c067e466e104888e"
        ),
        "updates": (
            "2e583dfae86d08022437bec92a3f7065719abf7b5854cec0cffef3b55b9891dd"
        ),
        "gateway_flushes": (
            "aa8f9cff36fb73084e9b874fcc09ab0ae964e3ed58bf3c3f8c54a5a293dbd6d5"
        ),
        "gateway_leftover_images": (
            "92a411fab11f72faf1c3131a31c1cdd18e25050d9ec156d75f373467e6a30d3c"
        ),
        "ledgers": (
            "303580ba64cd56a7aed4962fe63d874da19081364e87573ce0b632baa9af97ca"
        ),
        "registry": (
            "ad487eff1dc40a3a7b44f519c64c17c058f6db2d0954dcbe2aa590c3f8a9b89c"
        ),
        "rollouts": (
            "7b1ec0f7dda1e9eacd4dae1feaddd020537fde97b23e2e96fe794b4deca20ee7"
        ),
    },
    "event_scenario_barrier": {
        "trace": (
            "43823e9bce29c774b4d8ceb99542cb5fdc2ef78d3c9a2a512efdcda50049f82e"
        ),
        "trace_sorted": (
            "89d76d72a0698c37ac43ec65c671730b3fe9752800869bba07e11f082f73e694"
        ),
        "nodes": (
            "e23aa33dd2ceaaf2981ea58cdf88424eebf52bf1342c67452391fda9a0cffbe5"
        ),
        "updates": (
            "4ac91b065baf9986c747ababe139ebed80b0cd6921357ba7a0203f7b0c304197"
        ),
        "gateway_flushes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "gateway_leftover_images": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "afc0d23a0b2a2b33d68f83306041c39bb574b658b6b91e84061789b69cce0385"
        ),
        "registry": (
            "6a531623cff3d0b927e8eb9f9fafe0c7001698d0b307ce055f24a01d4bbd33c8"
        ),
        "rollouts": (
            "f15a69ce2563b79ee053bf16073918fff20e14996fcff424c4b7db8162dbe813"
        ),
        "stage_info": (
            "97799302ff1d2b80a51bf6f2295ef5cfa9e544a66d84c977dc2796d034573266"
        ),
        "scenario_outcome": (
            "d07303adb9423aebc93d205cff4d98a8109e144ca92ce3f12bfed255e69816a6"
        ),
    },
    "event_scenario_async": {
        "trace": (
            "091a9c74b302f6da9c78d845884b1754f2781345e8d384965eed3f1391e831a0"
        ),
        "trace_sorted": (
            "5242fd7ed6971dd6e038fbe0c79553cc7219559327a2da89e52ba3b9eca5ce04"
        ),
        "nodes": (
            "13bf7b7f65c0f1c569db982ec9ee1857c2971cdc0b7d14dddb12f145be551a0a"
        ),
        "updates": (
            "87eae96a242f87db96d9e5e80f0e63601e08804ec147a0c12921d0764c80670f"
        ),
        "gateway_flushes": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "gateway_leftover_images": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "c1428b2b14a0147404e811e029ac99fe4597908515a16d2eb3f0cc6e9e308423"
        ),
        "registry": (
            "6a531623cff3d0b927e8eb9f9fafe0c7001698d0b307ce055f24a01d4bbd33c8"
        ),
        "rollouts": (
            "f15a69ce2563b79ee053bf16073918fff20e14996fcff424c4b7db8162dbe813"
        ),
        "stage_info": (
            "97799302ff1d2b80a51bf6f2295ef5cfa9e544a66d84c977dc2796d034573266"
        ),
        "scenario_outcome": (
            "d07303adb9423aebc93d205cff4d98a8109e144ca92ce3f12bfed255e69816a6"
        ),
    },
}


def _scenario_yaml() -> str:
    """``TINY_ALL_YAML`` from the scenario suite's conftest, by path."""
    path = Path(__file__).parents[1] / "scenario" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_scenario_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TINY_ALL_YAML


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _digest(payload) -> str:
    """sha256 of the canonical JSON; floats keep their exact repr."""
    return _sha(json.dumps(payload, sort_keys=True, default=_plain))


def _state_sha(state: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


def _event_parts(report) -> dict[str, str]:
    """One digest per report component, so a diff names what moved."""
    return {
        "nodes": _digest(
            [
                {
                    "records": [
                        {**asdict(r), "upload_bytes": r.upload_bytes}
                        for r in n.records
                    ],
                    "download_bytes": n.download_bytes,
                    "download_energy_j": n.download_energy_j,
                    "finish_s": n.finish_s,
                }
                for n in report.nodes
            ]
        ),
        "updates": _digest(
            {
                "updates": [asdict(u) for u in report.updates],
                "makespan_s": report.makespan_s,
                "final_eval_accuracy": report.final_eval_accuracy,
            }
        ),
        "gateway_flushes": _digest([asdict(f) for f in report.gateway_flushes]),
        "gateway_leftover_images": _digest(
            sorted(report.gateway_leftover_images.items())
        ),
        **_ledger_parts(report),
    }


def _ledger_parts(report) -> dict[str, str]:
    """The ledgers, the registry, and the rollouts."""
    registry = report.registry
    return {
        "ledgers": _digest(
            [
                [asdict(ledger.snapshot()), [asdict(m) for m in ledger.stages]]
                for ledger in [report.ledger] + [n.ledger for n in report.nodes]
            ]
        ),
        "registry": _digest(
            {
                "active": registry.active.version,
                "versions": [
                    [v.version, v.track, v.metadata, _state_sha(v.state)]
                    for v in registry.versions()
                ],
            }
        ),
        "rollouts": _digest(
            [
                {
                    "stage": r.stage_index,
                    "promoted": r.promoted,
                    "canary_ids": r.canary_ids,
                    "decision": asdict(r.decision),
                    "events": [asdict(e) for e in r.events],
                    "pooled_images": r.pooled_images,
                    "images_used": r.report.images_used,
                    "epochs": r.report.epochs,
                    "modeled_time_s": r.report.modeled_time_s,
                    "modeled_energy_j": r.report.modeled_energy_j,
                }
                for r in report.rollouts
            ]
        ),
    }


def _scenario_parts(report) -> dict[str, str]:
    parts = _event_parts(report.fleet)
    parts["stage_info"] = _digest([asdict(i) for i in report.stage_info])
    parts["scenario_outcome"] = _digest(
        {
            "head_updates": [asdict(u) for u in report.head_updates],
            "final_eval_accuracy": report.final_eval_accuracy,
            "phase_accuracies": report.phase_accuracies,
            "head_accuracies": report.head_accuracies,
        }
    )
    return parts


def _observed(parts: dict[str, str], tracer: Tracer, metrics=None) -> dict[str, str]:
    """Trace, metrics (fleet runs only: scenario runs record none) and parts."""
    trace = tracer.to_jsonl()
    observed = {
        "trace": _sha(trace),
        "trace_sorted": _sha("".join(sorted(trace.splitlines(keepends=True)))),
    }
    if metrics is not None:
        observed["metrics"] = _sha(json.dumps(metrics.to_dict(), sort_keys=True))
    return {**observed, **parts}


def small_fleet() -> FleetScenario:
    base = fleet_base_scenario(
        stream_scale=0.02,
        pretrain_images=32,
        pretrain_epochs=1,
        init_epochs=2,
        update_epochs=1,
        eval_images=32,
    )
    return FleetScenario(base=base, num_nodes=NUM_NODES, seed=7)


def hier_topology() -> Topology:
    return Topology.fan_out(
        NUM_NODES,
        2,
        aggregation=AggregationPolicy(flush_images=8, max_age_stages=2),
        second_opinion_fraction=0.5,
        per_transfer_overhead_bytes=2_000,
    )


@pytest.fixture(scope="module")
def fleet_assets():
    return prepare_fleet_assets(small_fleet())


@pytest.fixture(scope="module")
def scenario_inputs():
    spec = load_spec(_scenario_yaml(), filename="tiny.yaml")
    return spec, prepare_scenario_assets(spec)


def observe_flat(assets, workers: int) -> dict[str, str]:
    tracer, metrics = Tracer(), MetricsRegistry()
    report = run_fleet(
        system_by_id("d"), assets, workers=workers, tracer=tracer, metrics=metrics
    )
    return _observed(_event_parts(report), tracer, metrics)


#: name -> ("fleet" | "scenario", engine kwargs); the fleet ones run
#: system ``d`` on ``small_fleet()``, the scenario ones ``TINY_ALL_YAML``
EVENT_CONSUMERS: dict[str, tuple[str, dict]] = {
    "event_flat_async": ("fleet", {}),
    "event_flat_barrier_horizon": ("fleet", {"barrier": True, "horizon_s": 9.0}),
    "event_topology_async_horizon": ("fleet", {"hier": True, "horizon_s": 1.0}),
    "event_topology_barrier": ("fleet", {"hier": True, "barrier": True}),
    "event_scenario_barrier": ("scenario", {"barrier": True}),
    "event_scenario_async": ("scenario", {"barrier": False}),
}


def observe_event(case: str, assets, inputs) -> dict[str, str]:
    kind, kwargs = EVENT_CONSUMERS[case]
    tracer, metrics = Tracer(), MetricsRegistry()
    if kind == "scenario":
        spec, scenario_assets = inputs
        report = run_scenario_event(
            spec, assets=scenario_assets, tracer=tracer, **kwargs
        )
        return _observed(_scenario_parts(report), tracer)
    kwargs = dict(kwargs)
    topology = hier_topology() if kwargs.pop("hier", False) else None
    report = run_fleet_event(
        system_by_id("d"),
        assets,
        tracer=tracer,
        metrics=metrics,
        topology=topology,
        **kwargs,
    )
    return _observed(_event_parts(report), tracer, metrics)


def _assert_matches(case: str, observed: dict[str, str]) -> None:
    moved = sorted(k for k in GOLDENS[case] if observed.get(k) != GOLDENS[case][k])
    assert not moved and observed.keys() == GOLDENS[case].keys(), (
        f"{case} goldens moved: {moved}"
    )


@pytest.mark.parametrize("workers", [1, 2])
class TestLockstepGoldens:
    def test_flat(self, fleet_assets, workers):
        _assert_matches("flat", observe_flat(fleet_assets, workers))


def test_flat_golden_through_the_cli_entry_point(fleet_assets):
    """``python -m repro fleet --mode lockstep`` (flat) calls
    ``run_fleet_event(barrier=True)``, not ``run_fleet``: its report, trace
    and metrics must stay ``run_fleet``'s, the entry point the benchmark
    harness times."""
    tracer, metrics = Tracer(), MetricsRegistry()
    report = run_fleet_event(
        system_by_id("d"), fleet_assets, barrier=True, tracer=tracer, metrics=metrics
    )
    _assert_matches("flat", _observed(_event_parts(report), tracer, metrics))


@pytest.mark.parametrize("case", sorted(EVENT_CONSUMERS))
def test_event_goldens(case, fleet_assets, scenario_inputs):
    _assert_matches(case, observe_event(case, fleet_assets, scenario_inputs))


#: TINY_ALL_YAML's fleet with no ``processes:`` block, so no hook fires
PROCESS_FREE_YAML = """\
scenario:
  name: process-free
  seed: 3
  engine: lockstep
  barrier: true

fleet:
  nodes: 3
  stages: 4
  base:
    stream_scale: 0.02
    pretrain_images: 32
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 1
    eval_images: 32
"""


class TestProcessFreeScenarioIsFlat:
    """Tier-1 twin of ``BENCH_scenario.json``'s control-identity check.

    A scenario with no process runs exactly the flat event-barrier fleet:
    same report, and the same trace once the per-round ``scenario``
    records are set aside.
    """

    def test_same_report_and_trace(self):
        spec = load_spec(PROCESS_FREE_YAML, filename="process-free.yaml")
        assets = prepare_scenario_assets(spec)
        flat_tracer = Tracer()
        flat = run_fleet_event(
            system_by_id("d"), assets, barrier=True, tracer=flat_tracer
        )
        tracer = Tracer()
        scenario = run_scenario_event(
            spec, assets=assets, barrier=True, tracer=tracer
        )
        assert _event_parts(scenario.fleet) == _event_parts(flat)
        tracer.records = [r for r in tracer.records if r.cat != "scenario"]
        assert tracer.to_jsonl() == flat_tracer.to_jsonl()
        assert all(
            info.alive == (0, 1, 2) and not info.reconciled
            for info in scenario.stage_info
        )


if __name__ == "__main__":
    fleet = prepare_fleet_assets(small_fleet())
    spec = load_spec(_scenario_yaml(), filename="tiny.yaml")
    scenario = (spec, prepare_scenario_assets(spec))
    print(
        json.dumps(
            {
                "flat": observe_flat(fleet, 1),
                **{
                    case: observe_event(case, fleet, scenario)
                    for case in EVENT_CONSUMERS
                },
            },
            indent=4,
        )
    )
