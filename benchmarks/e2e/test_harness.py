"""Self-test of the benchmark harness (``pytest benchmarks/e2e -q``).

Outside tier-1's ``testpaths`` on purpose: it tests the yardstick, not
the system.  No engine runs here — the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks
import layers
import tracing
import workloads

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _recorder() -> tuple[tracing.SpanRecorder, FakeClock]:
    clock = FakeClock()
    return tracing.SpanRecorder(clock=clock), clock


def test_self_time_is_duration_minus_direct_children():
    recorder, clock = _recorder()

    def leaf():
        clock.advance(2.0)

    leaf = recorder.wrap("leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(1.0)
        leaf()

    middle = recorder.wrap("middle", middle)
    with recorder.span("root"):
        clock.advance(0.5)
        middle()
        leaf()
    stats = tracing.aggregate(recorder.spans)
    assert stats["leaf"].calls == 3
    assert stats["leaf"].self_s == pytest.approx(6.0)
    assert stats["middle"].self_s == pytest.approx(2.0)
    assert stats["middle"].incl_s == pytest.approx(6.0)
    assert stats["root"].self_s == pytest.approx(0.5)
    assert stats["root"].incl_s == pytest.approx(8.5)
    # Self times partition the root's duration: nothing counted twice.
    assert sum(s.self_s for s in stats.values()) == pytest.approx(8.5)


def test_recursion_counts_inclusive_time_once():
    recorder, clock = _recorder()

    def descend(depth: int) -> None:
        clock.advance(1.0)
        if depth:
            descend(depth - 1)

    descend = recorder.wrap("descend", descend)
    descend(3)
    stats = tracing.aggregate(recorder.spans)
    assert stats["descend"].calls == 4
    assert stats["descend"].self_s == pytest.approx(4.0)
    assert stats["descend"].incl_s == pytest.approx(4.0)  # not 4+3+2+1


def test_parent_links_follow_generator_resumption():
    """A call made inside a generator belongs to whoever resumed it."""
    recorder, clock = _recorder()
    work = recorder.wrap("work", lambda: clock.advance(1.0))

    def process():
        work()
        yield
        work()

    gen = process()
    with recorder.span("first"):
        next(gen)
    with recorder.span("second"):
        next(gen, None)
    names = [row[tracing.NAME] for row in recorder.spans]
    parents = [row[tracing.PARENT] for row in recorder.spans]
    assert names == ["first", "work", "second", "work"]
    assert parents == [-1, 0, -1, 2]


def test_span_closes_and_stack_unwinds_when_the_callable_raises():
    recorder, clock = _recorder()

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    boom = recorder.wrap("boom", boom)
    with pytest.raises(ValueError):
        with recorder.span("root"):
            boom()
    assert [row[tracing.END] for row in recorder.spans] == [1.0, 1.0]
    with recorder.span("after"):
        pass
    assert recorder.spans[-1][tracing.PARENT] == -1


def test_run_id_is_stamped_per_phase_and_observer_sees_results():
    recorder, _ = _recorder()
    seen = []
    double = recorder.wrap("double", lambda x: 2 * x, lambda counters, r: seen.append(r))
    double(1)
    recorder.run_id = "run"
    double(2)
    assert [row[tracing.RUN_ID] for row in recorder.spans] == ["setup", "run"]
    assert seen == [2, 4]


def _fake_modules(monkeypatch):
    """``repro_fake.lib`` defines f and a class; ``repro_fake.user`` imports f by name."""
    lib = types.ModuleType("repro_fake.lib")

    def f():
        return "f"

    class Thing:
        def method(self):
            return "m"

    lib.f, lib.Thing = f, Thing
    user = types.ModuleType("repro_fake.user")
    user.f = f
    monkeypatch.setitem(sys.modules, "repro_fake.lib", lib)
    monkeypatch.setitem(sys.modules, "repro_fake.user", user)
    return lib, user, f, Thing.__dict__["method"]


def test_install_rebinds_every_importer_and_remove_leaves_no_residue(monkeypatch):
    lib, user, original_f, original_method = _fake_modules(monkeypatch)
    recorder, _ = _recorder()
    patches = tracing.install("repro_fake.lib:f", lambda fn: recorder.wrap("f", fn))
    patches += tracing.install(
        "repro_fake.lib:Thing.method", lambda fn: recorder.wrap("m", fn)
    )
    assert lib.f is not original_f and user.f is lib.f
    assert (user.f(), lib.Thing().method()) == ("f", "m")
    assert [row[tracing.NAME] for row in recorder.spans] == ["f", "m"]
    assert not checks.check_patches_restored(patches)[1]

    tracing.remove(patches)
    assert lib.f is original_f and user.f is original_f
    assert lib.Thing.__dict__["method"] is original_method
    assert checks.check_patches_restored(patches)[1]
    lib.f()
    assert len(recorder.spans) == 2


def test_every_layer_target_resolves_to_a_callable():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    targets = [t for layer in layers.LAYER_SPANS for t in layer.targets]
    targets.append(layers.EVENT_COUNTER[1])
    for target in targets:
        owner, attr = tracing.resolve(target)
        assert callable(vars(owner)[attr]), target


def test_metric_names_are_well_formed_and_match_benchmark_json():
    printed = set(layers.per_layer_units())
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= printed
    assert declared == printed  # nothing printed goes unrecorded either
    assert len(declared) <= 128
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units == layers.per_layer_units()
    for name in printed | {m["name"] for m in SPEC["end_to_end"]}:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_s", "node_epochs_per_s", "setup_s", "peak_rss_mb",
    }


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    for w in workloads.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_scenario_template_renders_a_valid_spec(tmp_path):
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    from repro.scenario.schema import load_spec_file

    path = workloads.BY_NAME["scenario_full"].prepare(7, tmp_path)
    spec = load_spec_file(path)
    assert spec.seed == 7
    assert spec.fleet.num_nodes == workloads.SCENARIO_FULL["nodes"]
    assert spec.replicates.count == workloads.SCENARIO_FULL["replicates"]
    assert spec.processes == ("churn", "class_incremental", "per_node_heads")


def test_digest_is_canonical_and_digest_check_spots_a_mismatch():
    assert checks.canonical_digest({"b": 1, "a": [1.5, 2]}) == checks.canonical_digest(
        {"a": [1.5, 2], "b": 1}
    )
    assert checks.check_same_digest({"rep0": "x", "traced": "x", "twin": "x"})[1]
    assert not checks.check_same_digest({"rep0": "x", "twin": "y"})[1]
