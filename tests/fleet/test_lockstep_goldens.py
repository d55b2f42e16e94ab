"""Cross-commit pins for the three lockstep consumers.

``test_determinism_guard.py`` pins a handful of flat-path numbers across
commits; the hierarchical and scenario lockstep runs were only ever
compared against *themselves* (rerun, worker count, event-barrier).  This
module records, per consumer, hashes of everything a run emits — the
JSONL trace (in emission order and order-free), the metrics dump, and
every report field — so a refactor of the stage loop shows up as a
named diff instead of passing silently.

The three consumers:

* ``flat`` — ``run_fleet`` system ``d``;
* ``topology`` — ``run_fleet(topology=Topology.fan_out(...))`` with
  aggregation, second opinion, and per-transfer overhead all active;
* ``scenario`` — ``run_scenario_lockstep`` on the scenario suite's
  ``TINY_ALL_YAML`` (churn + class phases + per-node heads).

Each runs at ``workers=1`` and ``workers=2`` against the same golden.
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
    run_scenario_lockstep,
)
from repro.topology import AggregationPolicy, Topology

NUM_NODES = 4

# Recorded at commit 589884d (PR 12), before the stage loops were folded.
# Re-pinned since (each verified against the parent recording):
# * topology/trace — folding the loops put each stage's cloud/update +
#   cloud/decision records ahead of its net/push records, as the flat and
#   scenario paths always had them; trace_sorted did not move.
# * scenario/metrics — the loop now emits fleet.images.flagged and
#   fleet.upload_time_s for scenario runs like every other engine; with
#   those two names dropped the dump hashes to the parent value.
# * scenario/node_records — a rejoining node's NodeStageRecord now
#   includes its reconcile download (download_bytes, download_energy_j),
#   so a node's records sum to its ledger; no other field moved.
GOLDENS: dict[str, dict[str, str]] = {
    "flat": {
        "trace": (
            "2585c724594c54b3bc975b7868165e953fad5a371df437d8cd6775d9b930ee6f"
        ),
        "trace_sorted": (
            "32e916fdf1d29b10721b44735030bc79014c836b0e8aa04f08e89f17ba4271f3"
        ),
        "metrics": (
            "7f13684d90f029561d4838b74d248ec6ce7c810977f97c51d13254a9c794df6d"
        ),
        "node_records": (
            "4c7e269ee778db158e3e95c16f72a17d267f74df55d9d80ceaaa0b03458b1cec"
        ),
        "stages": (
            "d4299b7313c5e0c114b503303ac625d7af51e5235a7058f792f898aba788b3e6"
        ),
        "gateway_stages": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "25e06cd1a99a7bf159adb38a12c39597dac737d8b55a4c35530b8cca852272fa"
        ),
        "registry": (
            "539e86e50ed2564f37ffe22341333e37c804fc553240f7710748705981946c98"
        ),
        "rollouts": (
            "4737af0b2ee058b16538456f825e3414c042518f13eecb7182c48e4d5b3b664a"
        ),
    },
    "topology": {
        "trace": (
            "ecb411de751c6c5920e4cb1cf873690d14bb0677e48fa75539aede66d82a172c"
        ),
        "trace_sorted": (
            "1bdda874f2343032d24dd602d6630e3374c5ed4a3cbc5d9b110828a782b64f5a"
        ),
        "metrics": (
            "eb3d4d40b93ff0afc93f8a469ced265c33db1d7d4f67b7f80a6aec761d37396a"
        ),
        "node_records": (
            "0cb957151c52b61bb89752877bad3475963ca37b27bab55b10d90484855bed70"
        ),
        "stages": (
            "f0c580c078d358d081fad215aff8a5dcf9d5b59baa1f9dba88c63e553bb54c87"
        ),
        "gateway_stages": (
            "67f792697298cca839ca63058d5c21a545d1c69ee8334e4a32384230ab1b08c2"
        ),
        "ledgers": (
            "e0a029410816ceabffe1157bfc9549c1199fe6bf164ceb9c98d8acd0dd39d0b6"
        ),
        "registry": (
            "ad487eff1dc40a3a7b44f519c64c17c058f6db2d0954dcbe2aa590c3f8a9b89c"
        ),
        "rollouts": (
            "7b1ec0f7dda1e9eacd4dae1feaddd020537fde97b23e2e96fe794b4deca20ee7"
        ),
    },
    "scenario": {
        "trace": (
            "eb5af7e95e3c2e686785899f1dbae7fe24881f9c1482b7af6c88f1c47352a711"
        ),
        "trace_sorted": (
            "8bf00b817eecdf894eafee7e9dc65332df1f5138f4c3865b9331332fb4a3259b"
        ),
        "metrics": (
            "cd629134d859b3da4f08baa0e1ff1b356612de2d3e558ac98954626040e85370"
        ),
        "node_records": (
            "722ac04a7a758521acf172ebc55bc752b7481681bee947e915c354ec3c311009"
        ),
        "stages": (
            "6fb3544d9a5edf59edbd16d9ec1a908f0dc9b03d7b47c0fb91b4956cc9ec6033"
        ),
        "gateway_stages": (
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
        ),
        "ledgers": (
            "8fa1118729208cf36bd98d1d5c4ca48ed0af12d408d000b9e29b4b9c5bf7140d"
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


def _fleet_parts(report) -> dict[str, str]:
    """One digest per report component, so a diff names what moved."""
    registry = report.registry
    return {
        "node_records": _digest(
            [[asdict(r) for r in n.records] for n in report.nodes]
        ),
        "stages": _digest([asdict(s) for s in report.stages]),
        "gateway_stages": _digest([asdict(g) for g in report.gateway_stages]),
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
    parts = _fleet_parts(report.fleet)
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


def _observed(parts: dict[str, str], tracer: Tracer, metrics) -> dict[str, str]:
    trace = tracer.to_jsonl()
    return {
        "trace": _sha(trace),
        "trace_sorted": _sha("".join(sorted(trace.splitlines(keepends=True)))),
        "metrics": _sha(json.dumps(metrics.to_dict(), sort_keys=True)),
        **parts,
    }


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
    return _observed(_fleet_parts(report), tracer, metrics)


def observe_topology(assets, workers: int) -> dict[str, str]:
    tracer, metrics = Tracer(), MetricsRegistry()
    report = run_fleet(
        system_by_id("d"),
        assets,
        workers=workers,
        tracer=tracer,
        metrics=metrics,
        topology=hier_topology(),
    )
    return _observed(_fleet_parts(report), tracer, metrics)


def observe_scenario(inputs, workers: int) -> dict[str, str]:
    spec, assets = inputs
    tracer, metrics = Tracer(), MetricsRegistry()
    report = run_scenario_lockstep(
        spec, assets=assets, workers=workers, tracer=tracer, metrics=metrics
    )
    return _observed(_scenario_parts(report), tracer, metrics)


def _assert_matches(case: str, observed: dict[str, str]) -> None:
    moved = sorted(k for k in GOLDENS[case] if observed.get(k) != GOLDENS[case][k])
    assert not moved and observed.keys() == GOLDENS[case].keys(), (
        f"{case} lockstep goldens moved: {moved}"
    )


@pytest.mark.parametrize("workers", [1, 2])
class TestLockstepGoldens:
    def test_flat(self, fleet_assets, workers):
        _assert_matches("flat", observe_flat(fleet_assets, workers))

    def test_topology(self, fleet_assets, workers):
        _assert_matches("topology", observe_topology(fleet_assets, workers))

    def test_scenario(self, scenario_inputs, workers):
        _assert_matches("scenario", observe_scenario(scenario_inputs, workers))


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
    """Lockstep twin of ``BENCH_scenario.json``'s control-identity check."""

    def test_same_report_metrics_and_trace(self):
        spec = load_spec(PROCESS_FREE_YAML, filename="process-free.yaml")
        assets = prepare_scenario_assets(spec)
        flat_tracer, flat_metrics = Tracer(), MetricsRegistry()
        flat = run_fleet(
            system_by_id("d"), assets, tracer=flat_tracer, metrics=flat_metrics
        )
        tracer, metrics = Tracer(), MetricsRegistry()
        scenario = run_scenario_lockstep(
            spec, assets=assets, tracer=tracer, metrics=metrics
        )
        assert _fleet_parts(scenario.fleet) == _fleet_parts(flat)
        assert metrics.to_dict() == flat_metrics.to_dict()
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
                "topology": observe_topology(fleet, 1),
                "scenario": observe_scenario(scenario, 1),
            },
            indent=4,
        )
    )
