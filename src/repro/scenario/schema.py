"""Scenario DSL schema: YAML tree -> validated :class:`ScenarioSpec`.

Validation is *line-anchored*: every error names the scenario file and
the 1-based line of the offending value, so a typo in a 60-line YAML
points at itself rather than at a stack trace deep in the fleet engine.

Defaults are not written here: only the keys a file sets reach the spec
dataclasses (:class:`~repro.fleet.profiles.FleetScenario`,
:class:`ChurnSpec`, :class:`ClassIncrementalSpec`, :class:`HeadSpec`,
:class:`ReplicatesSpec`), so an absent key takes the dataclass default.
The ``scenario:`` header is the exception: :class:`ScenarioSpec` has no
defaults, so ``description`` / ``seed`` / ``engine`` / ``barrier`` keep
theirs in :func:`load_spec`.

Top-level grammar (see DESIGN.md §11 for the full reference)::

    scenario:                # required
      name: <str>            # required
      description: <str>
      seed: <int >= 0>
      engine: lockstep | event
      barrier: <bool>        # false needs engine: event (lockstep always holds it)
    fleet:                   # required
      nodes: <int >= 1>      # required
      stages: <int >= 1>
      lte_fraction / low_power_fraction / severity_jitter: <float>
      canary_fraction / max_regression: <float>
      policy: per-stage | threshold | accuracy-drop
      upload_threshold: <int>
      base:                  # overrides for core.simulation.Scenario
        <field>: <value>
    processes:               # all optional, freely composable
      churn:
        rate: <float in (0, 1)>
        max_outage_stages: <int >= 1>
      class_incremental:
        groups: [[...], ...] # class-id groups, unlocked in order
        phase_stages: [...]  # stage each group unlocks at (first == 0)
        exemplar_capacity: <int >= 1>
        distill_weight: <float >= 0>
        temperature: <float > 0>
      per_node_heads:
        groups: <int >= 1>
        epochs: <int >= 1>
    replicates:
      count: <int >= 1>
      bootstrap_samples: <int >= 1>
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.simulation import Scenario
from repro.fleet.profiles import FleetScenario
from repro.fleet.scheduler import POLICIES
from repro.fleet.simulation import fleet_base_scenario
from repro.scenario.yaml_lite import Node, YamlError, parse

__all__ = [
    "ChurnSpec",
    "ClassIncrementalSpec",
    "HeadSpec",
    "ReplicatesSpec",
    "ScenarioError",
    "ScenarioSpec",
    "load_spec",
    "load_spec_file",
]

ENGINES = ("lockstep", "event")


class ScenarioError(ValueError):
    """A schema violation, anchored to ``<filename>:<line>``."""

    def __init__(self, message: str, *, filename: str, line: int) -> None:
        super().__init__(f"{filename}:{line}: {message}")
        self.filename = filename
        self.line = line


@dataclass(frozen=True)
class ChurnSpec:
    """Seeded node crash/rejoin process."""

    rate: float
    max_outage_stages: int = 2


@dataclass(frozen=True)
class ClassIncrementalSpec:
    """Phased class arrivals with exemplar replay + distillation."""

    groups: tuple[tuple[int, ...], ...]
    phase_stages: tuple[int, ...]
    exemplar_capacity: int = 64
    distill_weight: float = 1.0
    temperature: float = 2.0


@dataclass(frozen=True)
class HeadSpec:
    """Per-node-group FC specialization on the shared CONV trunk."""

    num_groups: int
    epochs: int = 2


@dataclass(frozen=True)
class ReplicatesSpec:
    """Seeded replicate fan-out + bootstrap-CI protocol."""

    count: int = 1
    bootstrap_samples: int = 200


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario, ready to hand to the engines."""

    name: str
    description: str
    seed: int
    engine: str
    barrier: bool
    fleet: FleetScenario
    churn: ChurnSpec | None
    class_incremental: ClassIncrementalSpec | None
    heads: HeadSpec | None
    replicates: ReplicatesSpec

    @property
    def num_stages(self) -> int:
        return len(self.fleet.base.schedule_k)

    @property
    def processes(self) -> tuple[str, ...]:
        names = []
        if self.churn is not None:
            names.append("churn")
        if self.class_incremental is not None:
            names.append("class_incremental")
        if self.heads is not None:
            names.append("per_node_heads")
        return tuple(names)


class _Checker:
    """Typed accessors over a mapping Node, with line-anchored errors."""

    def __init__(self, node: Node, path: str, filename: str) -> None:
        if not isinstance(node.value, dict):
            raise ScenarioError(
                f"{path} must be a mapping", filename=filename, line=node.line
            )
        self.node = node
        self.entries: dict[str, Node] = node.value
        self.path = path
        self.filename = filename
        self.seen: set[str] = set()

    def error(self, message: str, line: int) -> ScenarioError:
        return ScenarioError(message, filename=self.filename, line=line)

    def child(self, key: str, *, required=False, what="key") -> Node | None:
        """The node under ``key``; None when absent and not required."""
        self.seen.add(key)
        node = self.entries.get(key)
        if node is None and required:
            raise self.error(
                f"missing required {what} {self.path}.{key}", self.node.line
            )
        return node

    def mapping(self, key: str, *, required: bool = False) -> _Checker | None:
        node = self.child(key, required=required, what="section")
        if node is None:
            return None
        return _Checker(node, f"{self.path}.{key}", self.filename)

    def _scalar(self, key: str, kinds, kind_name, required):
        """``(value, line)`` for a present key, ``(None, None)`` if absent."""
        node = self.child(key, required=required)
        if node is None:
            return None, None
        value = node.value
        if isinstance(value, bool) and bool not in kinds:
            value = None  # bools must not satisfy int/float slots
        if not isinstance(value, kinds) or value is None:
            raise self.error(
                f"{self.path}.{key} must be {kind_name}", node.line
            )
        return value, node.line

    def str_(self, key: str, *, required=False, choices=None):
        value, line = self._scalar(key, (str,), "a string", required)
        if value is not None and choices is not None and value not in choices:
            raise self.error(
                f"{self.path}.{key} must be one of {', '.join(choices)}",
                line,
            )
        return value

    def int_(self, key: str, *, required=False, minimum=None):
        value, line = self._scalar(key, (int,), "an integer", required)
        if value is not None and minimum is not None and value < minimum:
            raise self.error(
                f"{self.path}.{key} must be an integer >= {minimum}", line
            )
        return value

    def float_(
        self, key: str, *, required=False, minimum=None, maximum=None,
        exclusive=False,
    ):
        value, line = self._scalar(key, (int, float), "a number", required)
        if value is None:
            return None
        value = float(value)
        low_bad = minimum is not None and (
            value <= minimum if exclusive else value < minimum
        )
        high_bad = maximum is not None and (
            value >= maximum if exclusive else value > maximum
        )
        if low_bad or high_bad:
            bounds = f"{'(' if exclusive else '['}{minimum}, {maximum}"
            bounds += ")" if exclusive else "]"
            raise self.error(f"{self.path}.{key} must be in {bounds}", line)
        return value

    def bool_(self, key: str):
        return self._scalar(key, (bool,), "a boolean", False)[0]

    def int_list(self, key: str, *, required=False) -> tuple[tuple[int, int], ...] | None:
        """A flat list of ints; returns ((value, line), ...)."""
        node = self.child(key, required=required)
        if node is None:
            return None
        if not isinstance(node.value, list):
            raise self.error(
                f"{self.path}.{key} must be a list of integers", node.line
            )
        out = []
        for item in node.value:
            if not isinstance(item.value, int) or isinstance(item.value, bool):
                raise self.error(
                    f"{self.path}.{key} items must be integers", item.line
                )
            out.append((item.value, item.line))
        return tuple(out)

    def finish(self) -> None:
        for key, node in self.entries.items():
            if key not in self.seen:
                raise self.error(f"unknown key {self.path}.{key}", node.line)


def _present(**values) -> dict[str, object]:
    """The keys a file set; an absent one keeps its dataclass default."""
    return {k: v for k, v in values.items() if v is not None}


def _build_base(
    checker: _Checker | None, *, seed: int, num_stages: int | None, filename: str
) -> Scenario:
    """Validate ``fleet.base`` overrides against the Scenario dataclass."""
    overrides: dict[str, object] = {}
    field_types = {f.name: f for f in dataclasses.fields(Scenario)}
    if checker is not None:
        for key, node in checker.entries.items():
            checker.seen.add(key)
            if key == "seed":
                raise checker.error(
                    "set the seed via scenario.seed, not fleet.base.seed",
                    node.line,
                )
            if key not in field_types:
                known = ", ".join(sorted(field_types))
                raise checker.error(
                    f"unknown Scenario field fleet.base.{key} "
                    f"(known: {known})",
                    node.line,
                )
            value = node.strip()
            if key in ("schedule_k", "severities"):
                if not isinstance(value, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value
                ):
                    raise checker.error(
                        f"fleet.base.{key} must be a list of numbers",
                        node.line,
                    )
                value = tuple(
                    int(v) if key == "schedule_k" else float(v)
                    for v in value
                )
            elif isinstance(value, (list, dict)) or value is None:
                raise checker.error(
                    f"fleet.base.{key} must be a scalar", node.line
                )
            overrides[key] = value
    if num_stages is not None:
        if "schedule_k" in overrides:
            if len(overrides["schedule_k"]) != num_stages:
                raise ScenarioError(
                    "fleet.stages disagrees with len(fleet.base.schedule_k)",
                    filename=filename,
                    line=checker.node.line if checker else 1,
                )
        else:
            overrides["schedule_k"] = tuple(
                100 * (i + 1) for i in range(num_stages)
            )
    try:
        # Fleet-sized defaults (4 classes, light training knobs): a
        # scenario multiplies its base by N nodes exactly like the fleet
        # engines do, so it inherits their sizing, not the single-node one.
        return fleet_base_scenario(seed=seed, **overrides)
    except (TypeError, ValueError) as exc:  # dataclass-level rejection
        raise ScenarioError(
            f"invalid fleet.base overrides: {exc}",
            filename=filename,
            line=checker.node.line if checker else 1,
        ) from exc


def _build_class_incremental(
    checker: _Checker, *, num_classes: int, num_stages: int
) -> ClassIncrementalSpec:
    groups_node = checker.child("groups")
    if groups_node is None or not isinstance(groups_node.value, list):
        raise checker.error(
            "processes.class_incremental.groups must be a list of "
            "class-id lists",
            groups_node.line if groups_node else checker.node.line,
        )
    groups = []
    claimed: dict[int, int] = {}
    for item in groups_node.value:
        if not isinstance(item.value, list) or not item.value:
            raise checker.error(
                "each class group must be a non-empty list of class ids",
                item.line,
            )
        group = []
        for cls_node in item.value:
            cls = cls_node.value
            if not isinstance(cls, int) or isinstance(cls, bool):
                raise checker.error("class ids must be integers", cls_node.line)
            if not 0 <= cls < num_classes:
                raise checker.error(
                    f"class id {cls} out of range [0, {num_classes})",
                    cls_node.line,
                )
            if cls in claimed:
                raise checker.error(
                    f"class id {cls} appears in more than one group",
                    cls_node.line,
                )
            claimed[cls] = cls_node.line
            group.append(cls)
        groups.append(tuple(sorted(group)))
    missing = sorted(set(range(num_classes)) - set(claimed))
    if missing:
        raise checker.error(
            f"class groups must cover every class: missing {missing}",
            groups_node.line,
        )
    stages_items = checker.int_list("phase_stages", required=True)
    if len(stages_items) != len(groups):
        raise checker.error(
            "phase_stages must have one entry per class group",
            checker.node.line,
        )
    phase_stages = []
    for idx, (stage, line) in enumerate(stages_items):
        if idx == 0 and stage != 0:
            raise checker.error("the first phase must start at stage 0", line)
        if idx > 0 and stage <= phase_stages[-1]:
            raise checker.error(
                "phase_stages must be strictly increasing", line
            )
        if not 0 <= stage < num_stages:
            raise checker.error(
                f"phase stage {stage} out of range [0, {num_stages})", line
            )
        phase_stages.append(stage)
    spec = ClassIncrementalSpec(
        groups=tuple(groups),
        phase_stages=tuple(phase_stages),
        **_present(
            exemplar_capacity=checker.int_("exemplar_capacity", minimum=1),
            distill_weight=checker.float_("distill_weight", minimum=0.0),
            temperature=checker.float_(
                "temperature", minimum=0.0, exclusive=True
            ),
        ),
    )
    checker.finish()
    return spec


def load_spec(text: str, *, filename: str = "<scenario>") -> ScenarioSpec:
    """Parse and validate scenario YAML into a :class:`ScenarioSpec`."""
    try:
        root_node = parse(text)
    except YamlError as exc:
        raise ScenarioError(
            str(exc).split(": ", 1)[1] if ": " in str(exc) else str(exc),
            filename=filename,
            line=exc.line,
        ) from exc
    root = _Checker(root_node, "top-level", filename)

    scn = root.mapping("scenario", required=True)
    name = scn.str_("name", required=True)
    # ScenarioSpec's header fields have no dataclass defaults: these are.
    header = {
        "description": "", "seed": 0, "engine": "lockstep", "barrier": True,
        **_present(
            description=scn.str_("description"),
            seed=scn.int_("seed", minimum=0),
            engine=scn.str_("engine", choices=ENGINES),
            barrier=scn.bool_("barrier"),
        ),
    }
    if header["engine"] == "lockstep" and not header["barrier"]:
        raise scn.error(
            "scenario.barrier: false needs engine: event "
            "(lockstep always holds the barrier)",
            scn.entries["barrier"].line,
        )
    seed = header["seed"]
    scn.finish()

    flt = root.mapping("fleet", required=True)
    num_nodes = flt.int_("nodes", required=True, minimum=1)
    num_stages = flt.int_("stages", minimum=1)
    base = _build_base(
        flt.mapping("base"),
        seed=seed,
        num_stages=num_stages,
        filename=filename,
    )
    fleet = FleetScenario(
        base=base,
        num_nodes=num_nodes,
        seed=seed,
        **_present(
            lte_fraction=flt.float_("lte_fraction", minimum=0.0, maximum=1.0),
            low_power_fraction=flt.float_(
                "low_power_fraction", minimum=0.0, maximum=1.0
            ),
            severity_jitter=flt.float_(
                "severity_jitter", minimum=0.0, maximum=0.9
            ),
            scheduler_policy=flt.str_("policy", choices=POLICIES),
            upload_threshold=flt.int_("upload_threshold", minimum=1),
            canary_fraction=flt.float_(
                "canary_fraction", minimum=0.0, maximum=1.0
            ),
            max_regression=flt.float_("max_regression", minimum=0.0),
        ),
    )
    flt.finish()

    churn = None
    class_incremental = None
    heads = None
    procs = root.mapping("processes")
    if procs is not None:
        churn_c = procs.mapping("churn")
        if churn_c is not None:
            churn = ChurnSpec(
                rate=churn_c.float_(
                    "rate", required=True, minimum=0.0, maximum=1.0,
                    exclusive=True,
                ),
                **_present(
                    max_outage_stages=churn_c.int_(
                        "max_outage_stages", minimum=1
                    ),
                ),
            )
            churn_c.finish()
        inc_c = procs.mapping("class_incremental")
        if inc_c is not None:
            class_incremental = _build_class_incremental(
                inc_c,
                num_classes=fleet.base.num_classes,
                num_stages=len(fleet.base.schedule_k),
            )
        heads_c = procs.mapping("per_node_heads")
        if heads_c is not None:
            num_groups = heads_c.int_("groups", required=True, minimum=1)
            if num_groups > num_nodes:
                raise heads_c.error(
                    f"per_node_heads.groups ({num_groups}) cannot exceed "
                    f"fleet.nodes ({num_nodes})",
                    heads_c.node.line,
                )
            heads = HeadSpec(
                num_groups=num_groups,
                **_present(epochs=heads_c.int_("epochs", minimum=1)),
            )
            heads_c.finish()
        procs.finish()

    replicates = ReplicatesSpec()
    reps_c = root.mapping("replicates")
    if reps_c is not None:
        replicates = ReplicatesSpec(
            **_present(
                count=reps_c.int_("count", minimum=1),
                bootstrap_samples=reps_c.int_("bootstrap_samples", minimum=1),
            )
        )
        reps_c.finish()
    root.finish()

    return ScenarioSpec(
        name=name,
        **header,
        fleet=fleet,
        churn=churn,
        class_incremental=class_incremental,
        heads=heads,
        replicates=replicates,
    )


def load_spec_file(path) -> ScenarioSpec:
    """Load and validate a scenario YAML file from ``path``."""
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        raise ScenarioError(
            f"not UTF-8 text ({err.reason})", filename=str(p), line=line
        ) from None
    return load_spec(text, filename=str(p))
