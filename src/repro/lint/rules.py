"""The determinism & performance contract rules (``RPR001``...).

Every rule has a stable code, a one-line summary, and a rationale tied to
a concrete reproduction invariant (see DESIGN.md, "Determinism contract &
static enforcement").  Rules are pure AST passes: they never import or
execute the code under analysis.

Scopes use the linted file's *module identity* (``repro.fleet.uplink``)
derived from its path under ``src/``, or overridden by a
``# repro-lint: module=...`` / ``# repro-lint: scope=...`` pragma so rule
fixtures outside ``src/`` can emulate production context.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, Finding

__all__ = ["RULES", "Rule", "all_codes", "select_rules"]


@dataclass(frozen=True)
class Rule:
    """A registered contract check.

    ``meta=True`` marks rules enforced by the engine itself (syntax
    errors, suppression hygiene) rather than by an AST pass; they still
    occupy registry codes so reporters and ``--list-rules`` describe them.
    """

    code: str
    name: str
    summary: str
    rationale: str
    scope: str
    meta: bool = False

    def applies(self, ctx: "FileContext") -> bool:
        return True

    def finding(
        self, ctx: "FileContext", node: ast.AST, message: str
    ) -> "Finding":
        from repro.lint.engine import Finding

        return Finding(
            file=ctx.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def _register(rule: Rule) -> Rule:
    if rule.code in _REGISTRY:  # pragma: no cover - registry invariant
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule


def all_codes() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> tuple[Rule, ...]:
    """Resolve ``--select`` / ``--ignore`` code lists to an ordered rule set."""
    codes = sorted(_REGISTRY)
    if select is not None:
        wanted = set(select)
        codes = [c for c in codes if c in wanted]
    if ignore is not None:
        dropped = set(ignore)
        codes = [c for c in codes if c not in dropped]
    return tuple(_REGISTRY[c] for c in codes)


# ---------------------------------------------------------------------------
# Shared AST helpers


def _walk_function_shallow(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested def/class."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _arg_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = func.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return set(names)


def _is_default_rng(ctx: "FileContext", node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and ctx.qualify(node.func) == "numpy.random.default_rng"
    )


def _mentions_rng_none_test(test: ast.AST) -> bool:
    """True for tests of the shape ``rng is None`` / ``rng is not None``."""
    has_rng = any(
        isinstance(n, ast.Name) and n.id == "rng" for n in ast.walk(test)
    )
    has_none = any(
        isinstance(n, ast.Constant) and n.value is None
        for n in ast.walk(test)
    )
    return has_rng and has_none


# ---------------------------------------------------------------------------
# RPR000 / RPR009 / RPR010 — engine-enforced meta rules


_register(
    Rule(
        code="RPR000",
        name="syntax-error",
        summary="file must parse with the stdlib ast module",
        rationale=(
            "a file the linter cannot parse is a file whose contract "
            "nobody is checking"
        ),
        scope="all files",
        meta=True,
    )
)

_register(
    Rule(
        code="RPR009",
        name="suppression-hygiene",
        summary=(
            "repro-lint pragmas must be well-formed; every suppression "
            "must name known codes and carry a reason"
        ),
        rationale=(
            "a suppression without a reason is tribal knowledge again — "
            "the next editor cannot tell intent from accident"
        ),
        scope="all files",
        meta=True,
    )
)

_register(
    Rule(
        code="RPR010",
        name="unused-suppression",
        summary="suppressions must match a finding on their line",
        rationale=(
            "stale suppressions hide future regressions at exactly the "
            "line someone once deemed dangerous"
        ),
        scope="all files (relative to the rules actually run)",
        meta=True,
    )
)


# ---------------------------------------------------------------------------
# RPR001 — no legacy global NumPy RNG


# numpy.random attributes that are part of the explicit-Generator API and
# therefore allowed; everything else on the module is legacy global-state
# or distribution sugar that consumes the hidden global stream.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


class _NoLegacyNumpyRandom(Rule):
    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                qualified = ctx.qualify(node)
                if qualified is None:
                    continue
                prefix, _, attr = qualified.rpartition(".")
                if prefix == "numpy.random" and attr not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        node,
                        f"legacy global NumPy RNG `{qualified}`: use an "
                        "explicitly passed np.random.Generator (or derive "
                        "one from SeedSequence)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module != "numpy.random":
                    continue
                for alias in node.names:
                    if alias.name not in _NP_RANDOM_ALLOWED:
                        yield self.finding(
                            ctx,
                            node,
                            f"legacy global NumPy RNG import "
                            f"`numpy.random.{alias.name}`: use the "
                            "Generator API",
                        )


_register(
    _NoLegacyNumpyRandom(
        code="RPR001",
        name="no-legacy-numpy-rng",
        summary="ban the legacy global numpy.random API",
        rationale=(
            "the hidden global stream couples results to import/call "
            "order; explicit Generator objects are the only way the "
            "fleet's per-(node,stage) reseeding stays bit-identical"
        ),
        scope="all files",
    )
)


# ---------------------------------------------------------------------------
# RPR002 — no OS-entropy sources in simulation code
# RPR011 — wall-clock reads only inside repro.obs.clock


_TIMING_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
_ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
}
_ENTROPY_PREFIXES = ("random.", "secrets.")

#: The one module where stdlib timing calls are sanctioned: every
#: wall-time consumer routes through its helpers (see DESIGN.md §9).
_OBS_CLOCK_MODULE = "repro.obs.clock"


class _NoEntropy(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        # The general OS-entropy ban is a production-code rule; the
        # argless-default_rng check below runs everywhere.
        return True

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        in_src = ctx.in_module("repro")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualify(node.func)
            if qualified is None:
                continue
            if qualified == "numpy.random.default_rng" and not (
                node.args or node.keywords
            ):
                # An unseeded Generator draws from OS entropy — this is
                # nondeterministic anywhere, so it is flagged in tests,
                # benchmarks, and examples too.
                yield self.finding(
                    ctx,
                    node,
                    "argless default_rng() seeds from OS entropy: pass a "
                    "seed or a SeedSequence",
                )
                continue
            if not in_src:
                continue
            if qualified in _ENTROPY_CALLS or qualified.startswith(
                _ENTROPY_PREFIXES
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"OS-entropy source `{qualified}` in simulation code: "
                    "all randomness derives from seeded Generators",
                )


_register(
    _NoEntropy(
        code="RPR002",
        name="no-os-entropy",
        summary=(
            "ban OS-entropy sources inside src/repro; ban argless "
            "default_rng() everywhere"
        ),
        rationale=(
            "one unseeded draw breaks bit-identical trajectories across "
            "reruns, worker counts, and CI machines"
        ),
        scope="src/repro (argless default_rng: all files)",
    )
)


class _WallClockViaObsClock(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        # obs.clock is the sanctioned wrapper — the exception that keeps
        # every other module honest.
        return ctx.in_module("repro") and ctx.module != _OBS_CLOCK_MODULE

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualify(node.func)
            if qualified in _TIMING_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read `{qualified}` outside "
                    f"{_OBS_CLOCK_MODULE}: simulated time comes from the "
                    "event kernel; host timings route through the "
                    "sanctioned repro.obs.clock helpers so they stay in "
                    "the segregated observability channel",
                )


_register(
    _WallClockViaObsClock(
        code="RPR011",
        name="wallclock-via-obs-clock",
        summary=(
            "wall-clock / perf_counter calls are sanctioned only inside "
            "repro.obs.clock"
        ),
        rationale=(
            "a stray wall-clock read either leaks host time into "
            "simulated state (breaking bit-identical trajectories) or "
            "scatters unauditable timing exceptions; one wrapper module "
            "keeps the exception list greppable"
        ),
        scope="src/repro, excluding repro.obs.clock",
    )
)


# ---------------------------------------------------------------------------
# RPR003 — functions taking `rng` must not build their own


class _NoShadowedRngParam(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        # Tests legitimately build many seeded streams side by side to
        # prove determinism properties; production and example code must
        # thread the caller's Generator through.
        return ctx.kind in ("src", "examples")

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "rng" not in _arg_names(func):
                continue
            allowed = self._fallback_idiom_calls(ctx, func)
            for node in _walk_function_shallow(func):
                if _is_default_rng(ctx, node) and node not in allowed:
                    yield self.finding(
                        ctx,
                        node,
                        f"`{func.name}` accepts an `rng` parameter but "
                        "constructs its own default_rng: thread the "
                        "caller's Generator through (the seeded "
                        "`rng if rng is not None else default_rng(seed)` "
                        "fallback is the one allowed shape)",
                    )

    @staticmethod
    def _fallback_idiom_calls(
        ctx: "FileContext", func: ast.AST
    ) -> set[ast.AST]:
        """default_rng calls forming the allowed seeded None-fallback."""
        allowed: set[ast.AST] = set()
        for node in _walk_function_shallow(func):
            branches: tuple[ast.AST, ...] = ()
            if isinstance(node, ast.IfExp) and _mentions_rng_none_test(
                node.test
            ):
                branches = (node.body, node.orelse)
            elif isinstance(node, ast.If) and _mentions_rng_none_test(
                node.test
            ):
                branches = tuple(
                    stmt.value
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                )
            for branch in branches:
                if _is_default_rng(ctx, branch) and (
                    branch.args or branch.keywords
                ):
                    allowed.add(branch)
        return allowed


_register(
    _NoShadowedRngParam(
        code="RPR003",
        name="no-shadowed-rng-param",
        summary=(
            "functions accepting `rng` must not construct a fresh "
            "default_rng internally"
        ),
        rationale=(
            "an internally built Generator silently ignores the stream "
            "the caller is accounting for, desynchronizing consumption "
            "order between code paths"
        ),
        scope="src/repro and examples/",
    )
)


# ---------------------------------------------------------------------------
# RPR004 — no float64 promotion markers on hot paths


def _is_float64_marker(ctx: "FileContext", node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    if isinstance(node, ast.Constant) and node.value in ("float64", ">f8", "f8"):
        return True
    return isinstance(node, ast.Attribute) and ctx.qualify(node) in (
        "numpy.float64",
        "numpy.double",
    )


class _NoFloat64Promotion(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        return ctx.in_module("repro") and not ctx.is_reference

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if ctx.qualify(node) in ("numpy.float64", "numpy.double"):
                    yield self.finding(
                        ctx,
                        node,
                        "float64 promotion marker on a hot path: the "
                        "framework dtype is float32; widen only in an "
                        "annotated accumulator (suppress with a reason)",
                    )
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                if not isinstance(node.value, ast.Attribute) and (
                    _is_float64_marker(ctx, node.value)
                ):
                    yield self.finding(
                        ctx,
                        node.value,
                        "dtype widens to float64 (`dtype=float` / "
                        "'float64'): hot paths are float32",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "astype"
                    and node.args
                    and not isinstance(node.args[0], ast.Attribute)
                    and _is_float64_marker(ctx, node.args[0])
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "astype(float)/astype('float64') promotes to "
                        "float64: hot paths are float32",
                    )


_register(
    _NoFloat64Promotion(
        code="RPR004",
        name="no-float64-promotion",
        summary="ban float64 dtype markers outside annotated accumulators",
        rationale=(
            "silent f64 widening doubles bandwidth on the hot paths PR 3 "
            "optimized and changes reduction results, breaking the "
            "bit-exact trajectory goldens"
        ),
        scope="src/repro, excluding *.reference oracle modules",
    )
)


# ---------------------------------------------------------------------------
# RPR005 — production code must not import the oracle modules


_ORACLES = ("repro.data.reference", "repro.nn.reference")


class _NoOracleImport(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        return ctx.in_module("repro") and not ctx.is_reference

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(_ORACLES):
                        yield self._flag(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = self._resolve(ctx, node)
                if module.startswith(_ORACLES):
                    yield self._flag(ctx, node, module)
                    continue
                if module in ("repro.data", "repro.nn"):
                    for alias in node.names:
                        if alias.name == "reference":
                            yield self._flag(
                                ctx, node, f"{module}.reference"
                            )

    @staticmethod
    def _resolve(ctx: "FileContext", node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = (ctx.module or "").split(".")
        base = parts[: len(parts) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def _flag(
        self, ctx: "FileContext", node: ast.AST, module: str
    ) -> "Finding":
        return self.finding(
            ctx,
            node,
            f"production code imports the oracle module `{module}`: the "
            "pre-optimization references are for tests/benchmarks only",
        )


_register(
    _NoOracleImport(
        code="RPR005",
        name="no-oracle-import",
        summary="production modules must not import *.reference oracles",
        rationale=(
            "the oracles pin pre-optimization behavior; if production "
            "code leans on them, the equivalence tests stop being an "
            "independent check"
        ),
        scope="src/repro, excluding the *.reference modules themselves",
    )
)


# ---------------------------------------------------------------------------
# RPR006 — no iteration over sets in scheduling code


_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}
_ORDER_SENSITIVE_CONSUMERS = {"list", "tuple", "enumerate", "iter", "sum"}


def _is_set_expr(ctx: "FileContext", node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if ctx.qualify(node.func) == "set":
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_set_expr(ctx, node.func.value)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(ctx, node.left) or _is_set_expr(ctx, node.right)
    return False


class _NoSetIteration(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        # repro.topology schedules gateway flushes and WAN flows, and
        # repro.scenario drives churn/phase/head schedules into both
        # fleet engines, so both are scheduling code in exactly the
        # RPR006 sense.
        return ctx.in_module(
            "repro.fleet", "repro.events", "repro.topology", "repro.scenario"
        )

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and ctx.qualify(node.func) in _ORDER_SENSITIVE_CONSUMERS
                and node.args
            ):
                iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(ctx, it):
                    yield self.finding(
                        ctx,
                        it,
                        "iteration over a set in scheduling code: set "
                        "order is hash-dependent (PYTHONHASHSEED), so "
                        "event/flow ordering would vary per process — "
                        "iterate `sorted(...)` instead",
                    )


_register(
    _NoSetIteration(
        code="RPR006",
        name="no-set-iteration",
        summary="ban direct iteration over set values in fleet/events",
        rationale=(
            "the DES kernel breaks ties by schedule order; feeding it "
            "hash-ordered sets couples trajectories to PYTHONHASHSEED "
            "and process boundaries"
        ),
        scope="repro.fleet, repro.events, repro.topology, and repro.scenario",
    )
)


# ---------------------------------------------------------------------------
# RPR007 — gradient writes go through Parameter.accumulate


def _writes_grad(target: ast.AST) -> bool:
    if isinstance(target, ast.Attribute):
        return target.attr == "grad"
    if isinstance(target, ast.Subscript):
        return _writes_grad(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_grad(el) for el in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_grad(target.value)
    return False


class _GradViaAccumulate(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        return ctx.in_module("repro.nn") and not ctx.is_reference

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            if any(_writes_grad(t) for t in targets):
                yield self.finding(
                    ctx,
                    node,
                    "raw write to `.grad`: route gradient updates through "
                    "Parameter.accumulate / zero_grad so freezing "
                    "semantics stay centralized",
                )


_register(
    _GradViaAccumulate(
        code="RPR007",
        name="grad-via-accumulate",
        summary="gradient buffers are written only via Parameter.accumulate",
        rationale=(
            "accumulate() is where frozen layers skip work (the paper's "
            "1.7x locked-layer speedup); a raw `.grad +=` bypasses "
            "freezing and the single float32 accumulation point"
        ),
        scope="src/repro/nn, excluding nn.reference",
    )
)


# ---------------------------------------------------------------------------
# RPR008 — pytest-collected benchmarks must be marked slow

#: A bench is analytical — seconds of closed-form models, no training —
#: when its ``repro`` imports all come from ``repro.reports.figures`` and
#: it takes no fixture but ``benchmark``.  The training claims live in
#: ``repro.reports.claims``, outside that module, so they stay marked.
_ANALYTICAL_MODULES = ("repro.reports.figures.",)
_ANALYTICAL_FIXTURES = {"benchmark"}


class _BenchmarkSlowMarker(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        return ctx.kind == "benchmarks" and ctx.path.name.startswith("bench_")

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        repro = [p for p in ctx.imports.aliases.values() if p.startswith("repro")]
        analytical = bool(repro) and all(
            p.startswith(_ANALYTICAL_MODULES) for p in repro
        )
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith(("bench_", "test_")):
                continue
            if analytical and {
                a.arg for a in node.args.args
            } <= _ANALYTICAL_FIXTURES:
                continue
            if not any(self._is_slow_marker(ctx, d) for d in node.decorator_list):
                yield self.finding(
                    ctx,
                    node,
                    f"pytest-collected benchmark `{node.name}` lacks "
                    "@pytest.mark.slow: unmarked benchmarks leak into the "
                    "PR-blocking fast lane (the perf-smoke --quick script "
                    "path and analytical-model benches are the exemptions)",
                )

    @staticmethod
    def _is_slow_marker(ctx: "FileContext", deco: ast.AST) -> bool:
        if isinstance(deco, ast.Call):
            deco = deco.func
        qualified = ctx.qualify(deco)
        return qualified is not None and qualified.endswith("mark.slow")


_register(
    _BenchmarkSlowMarker(
        code="RPR008",
        name="benchmark-slow-marker",
        summary=(
            "benchmarks/ test functions must carry @pytest.mark.slow, "
            "unless they only evaluate the analytical models"
        ),
        rationale=(
            "CI's fast lane deselects `slow`; an unmarked bench silently "
            "adds minutes of training to every PR (or never runs at all). "
            "Benches over repro.reports.figures alone, with no fixture but "
            "`benchmark`, take seconds and CI runs them on every PR"
        ),
        scope="benchmarks/bench_*.py",
    )
)


# ---------------------------------------------------------------------------
# RPR012 — process pools / shared memory only inside repro.fleet.pool


#: Constructors that create OS-level parallelism resources.  Everything
#: in src/repro routes through the one pool module that guarantees
#: segment unlink on shutdown and bit-identical dispatch (DESIGN §12).
_POOL_CONFINED_CALLS = {
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.shared_memory.SharedMemory",
}

_FLEET_POOL_MODULE = "repro.fleet.pool"


class _ParallelismViaFleetPool(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        # fleet.pool is the sanctioned owner of worker processes and
        # shared-memory segments — the one place whose lifecycle
        # guarantees (unlink on shutdown and on exception) are tested.
        return ctx.in_module("repro") and ctx.module != _FLEET_POOL_MODULE

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualify(node.func)
            if qualified in _POOL_CONFINED_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"`{qualified}` constructed outside "
                    f"{_FLEET_POOL_MODULE}: ad-hoc pools re-pickle state "
                    "per task and leak segments on exception; go through "
                    "FleetWorkerPool, whose dispatch is bit-identical "
                    "and whose cleanup is guaranteed",
                )


_register(
    _ParallelismViaFleetPool(
        code="RPR012",
        name="parallelism-via-fleet-pool",
        summary=(
            "ProcessPoolExecutor / SharedMemory construction is "
            "sanctioned only inside repro.fleet.pool"
        ),
        rationale=(
            "a stray process pool reintroduces the per-task pickling "
            "pessimization and a stray segment leaks /dev/shm on "
            "exception; one owner module keeps worker lifecycle and "
            "cleanup guarantees auditable"
        ),
        scope="src/repro, excluding repro.fleet.pool",
    )
)


# ---------------------------------------------------------------------------
# RPR016 — run telemetry goes through repro.obs, not raw print/json.dump


#: The simulation/orchestration layers whose run telemetry must flow
#: through the observability channel (Tracer spans/events and the
#: MetricsRegistry) instead of ad-hoc stdout/file writes.  ``*.cli``
#: modules are the sanctioned human-facing print surface.
_ENGINE_TELEMETRY_MODULES = (
    "repro.core",
    "repro.events",
    "repro.fleet",
    "repro.scenario",
    "repro.topology",
)

_RAW_TELEMETRY_CALLS = {"print", "json.dump", "json.dumps"}


class _TelemetryViaObs(Rule):
    def applies(self, ctx: "FileContext") -> bool:
        if not ctx.in_module(*_ENGINE_TELEMETRY_MODULES):
            return False
        return not (ctx.module or "").endswith(".cli")

    def check(self, ctx: "FileContext") -> Iterator["Finding"]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualify(node.func)
            if qualified in _RAW_TELEMETRY_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"raw telemetry emission `{qualified}` in an engine "
                    "module: run telemetry flows through repro.obs "
                    "(Tracer spans/events, MetricsRegistry dumps) so it "
                    "stays byte-stable and analyzable by obs "
                    "critical-path/diff/health; *.cli modules are the "
                    "sanctioned print surface",
                )


_register(
    _TelemetryViaObs(
        code="RPR016",
        name="telemetry-via-obs",
        summary=(
            "engine modules must not emit run telemetry via raw "
            "print/json.dump"
        ),
        rationale=(
            "a stray print or json.dump scatters run telemetry outside "
            "the schema-v1 trace and the metrics registry, where it is "
            "neither byte-stable across reruns nor reachable by the "
            "streaming trace analyses"
        ),
        scope=(
            "repro.core/events/fleet/scenario/topology, "
            "excluding *.cli modules"
        ),
    )
)


RULES: tuple[Rule, ...] = tuple(
    _REGISTRY[code] for code in sorted(_REGISTRY)
)
