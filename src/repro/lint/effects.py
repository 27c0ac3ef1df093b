"""Interprocedural purity / side-effect inference and the parallel-safety
certificate.

Every module-level function of the analyzed program is classified by the
set of *effect kinds* it can perform:

==================  ====================================================
``reads-global``    reads module-level mutable state (inventory entry)
``writes-global``   mutates module-level state (rebind, mutator call,
                    item/attribute assignment)
``writes-metrics``  mutates :mod:`repro.obs` metric objects — split out
                    because the registry is fork-aware, so these writes
                    are safe under process fan-out
``ambient-rng``     draws from process-global randomness (``random.*``,
                    global ``numpy.random.*``, seedless ``default_rng()``)
``io``              reads or writes files / standard streams
``spawns``          starts processes, threads or pool workers
==================  ====================================================

A function with the empty effect set is *pure*.  Local effects are
extracted from each function's AST (using the
:mod:`repro.lint.globals_inventory` census for global attribution), then
propagated through the resolved call graph to a fixpoint, so cycles of
mutually recursive helpers converge.  The analysis is **optimistic about
unresolved callees**: method calls, builtins and third-party functions
are assumed effect-free (the same module-level-functions approximation
the call graph itself documents) — it proves what it can see and
``@effects`` declarations plus R400/R401 keep the visible part honest.

The inferred map feeds the R400-series rules
(:mod:`repro.lint.effect_rules`) and :func:`build_certificate`, which
emits the JSON **parallel-safety certificate** that CI publishes as an
artifact: every ``solve_*`` / ``optimal_*`` entry point plus every
``@effects``-declared function, each with its inferred effect set and a
``parallel_safe`` verdict (effects within :data:`PARALLEL_SAFE_EFFECTS`).
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .._validation import EFFECT_KINDS
from .astutils import callee_name, dotted_name
from .callgraph import FunctionInfo
from .config import LintConfig
from .engine import ParseCache, iter_python_files
from .globals_inventory import GlobalsInventory, build_globals_inventory
from .interproc import ProgramContext, _in_packages, build_program_context

__all__ = [
    "EffectWitness",
    "FunctionEffects",
    "analyze_effects",
    "entry_point_names",
    "build_certificate",
    "build_certificate_for_paths",
    "validate_certificate",
    "render_certificate",
    "CERTIFICATE_KIND",
    "CERTIFICATE_VERSION",
    "PARALLEL_SAFE_EFFECTS",
    "ENTRY_POINT_PATTERN",
]

#: Document identifier of the emitted certificate.
CERTIFICATE_KIND = "repro-parallel-safety-certificate"
#: Schema version of the certificate document.
CERTIFICATE_VERSION = 1
#: Effects compatible with process fan-out: shared state is only read,
#: and metric writes land in the fork-aware registry (reset in each
#: child, so no counter bleed back or double counting).
PARALLEL_SAFE_EFFECTS = frozenset({"reads-global", "writes-metrics"})

#: Solver entry points covered by the certificate (mirrors R301).
ENTRY_POINT_PATTERN = re.compile(r"^(solve_|optimal_)")

#: Ambient stdlib-``random`` functions (module-global Mersenne state).
_STDLIB_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "seed", "getrandbits", "triangular",
    }
)

#: ``numpy.random`` attributes that are *not* ambient draws (types and
#: bit generators; mirrors R004's safe list).
_SAFE_NUMPY_RANDOM = frozenset(
    {
        "Generator", "BitGenerator", "SeedSequence", "PCG64", "PCG64DXSM",
        "Philox", "MT19937", "SFC64",
    }
)

#: Call targets that perform file/stream IO.
_IO_CALLEES = frozenset({"open", "input", "print"})
_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes", "mkdir",
     "unlink", "touch"}
)
_IO_DOTTED = frozenset(
    {"json.dump", "json.load", "np.save", "np.load", "np.savez",
     "numpy.save", "numpy.load", "numpy.savez"}
)

#: Call targets that start concurrent execution.
_SPAWN_CALLEES = frozenset(
    {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "Process",
     "Thread", "parallel_map", "run_in_executor"}
)
_SPAWN_DOTTED = frozenset({"os.fork", "os.system", "os.popen"})


@dataclass(frozen=True)
class EffectWitness:
    """Why a function carries one effect kind."""

    #: The effect kind this witness establishes.
    kind: str
    #: Qualified function whose body exhibits the effect directly.
    origin: str
    #: 1-based line of the originating site.
    line: int
    #: Human-readable description of the site.
    detail: str


@dataclass(frozen=True)
class FunctionEffects:
    """The inferred (and, if present, declared) effects of one function."""

    qualified: str
    #: Effects of the function's own body, by kind.
    local: Mapping[str, EffectWitness]
    #: Transitive effects (own body plus resolved callees), by kind.
    effects: Mapping[str, EffectWitness]
    #: Transitively written globals: ``(variable, writer function)``.
    global_writes: frozenset[tuple[str, str]]
    #: Declared effect set (``@effects``), ``None`` when undeclared;
    #: the empty set means declared pure.
    declared: frozenset[str] | None
    #: Line of the declaration decorator, when present.
    declared_line: int | None
    #: Malformed-declaration messages (unknown kinds, non-literal args).
    declared_problems: tuple[str, ...]

    @property
    def pure(self) -> bool:
        """Whether no effect was inferred (transitively)."""
        return not self.effects

    @property
    def parallel_safe(self) -> bool:
        """Whether the inferred effects permit process fan-out."""
        return frozenset(self.effects) <= PARALLEL_SAFE_EFFECTS

    def effect_names(self) -> tuple[str, ...]:
        """Sorted inferred kinds; ``("pure",)`` for the empty set."""
        return tuple(sorted(self.effects)) if self.effects else ("pure",)


def _declared_effects(
    info: FunctionInfo,
) -> tuple[frozenset[str] | None, int | None, tuple[str, ...]]:
    """Parse an ``@effects(...)`` decorator off one function, statically."""
    for decorator in info.node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name is None or name.rsplit(".", 1)[-1] != "effects":
            continue
        problems: list[str] = []
        kinds: set[str] = set()
        for argument in decorator.args:
            if isinstance(argument, ast.Constant) and isinstance(
                argument.value, str
            ):
                if argument.value in EFFECT_KINDS:
                    kinds.add(argument.value)
                else:
                    problems.append(
                        f"unknown effect kind {argument.value!r}"
                    )
            else:
                problems.append(
                    "effect kinds must be string literals"
                )
        if decorator.keywords:
            problems.append("effects() takes no keyword arguments")
        if not kinds and not problems:
            problems.append("effects() declares no kinds")
        if "pure" in kinds and len(kinds) > 1:
            problems.append(
                "effects('pure') cannot be combined with other kinds"
            )
        declared = frozenset() if kinds == {"pure"} else frozenset(kinds)
        return declared, decorator.lineno, tuple(problems)
    return None, None, ()


def _numpy_random_imports(tree: ast.Module) -> dict[str, str]:
    """Names imported from ``numpy.random`` at module level."""
    imported: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
    return imported


def _imports_stdlib_random(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                return True
    return False


def _rng_witness(
    node: ast.Call,
    numpy_imports: Mapping[str, str],
    has_stdlib_random: bool,
) -> str | None:
    """A description of *node* as an ambient-RNG draw, or ``None``."""
    seedless = not node.args and not node.keywords
    dotted = dotted_name(node.func)
    if dotted is not None:
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] not in _SAFE_NUMPY_RANDOM
        ):
            if parts[2] != "default_rng" or seedless:
                return f"{dotted}() draws from process-global numpy state"
        if (
            has_stdlib_random
            and len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _STDLIB_RANDOM_FUNCS
        ):
            return f"{dotted}() uses the stdlib random module state"
    if isinstance(node.func, ast.Name) and node.func.id in numpy_imports:
        original = numpy_imports[node.func.id]
        if original not in _SAFE_NUMPY_RANDOM and (
            original != "default_rng" or seedless
        ):
            return (
                f"{node.func.id}() (numpy.random.{original}) is an "
                "ambient draw"
            )
    return None


def _io_witness(node: ast.Call) -> str | None:
    name = callee_name(node)
    dotted = dotted_name(node.func)
    if isinstance(node.func, ast.Name) and name in _IO_CALLEES:
        return f"{name}() performs IO"
    if dotted is not None:
        if dotted in _IO_DOTTED or dotted.startswith(("sys.stdout", "sys.stderr")):
            return f"{dotted}() performs IO"
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _IO_METHODS
    ):
        return f".{node.func.attr}() performs filesystem IO"
    return None


def _spawn_witness(node: ast.Call) -> str | None:
    name = callee_name(node)
    dotted = dotted_name(node.func)
    if name in _SPAWN_CALLEES:
        return f"{dotted or name}() starts concurrent workers"
    if dotted is not None:
        if dotted in _SPAWN_DOTTED or dotted.startswith("subprocess."):
            return f"{dotted}() spawns a process"
    return None


def _local_effects(
    info: FunctionInfo,
    tree: ast.Module,
    inventory: GlobalsInventory,
) -> tuple[dict[str, EffectWitness], set[tuple[str, str]]]:
    """Effects visible in one function's own body (nested defs included —
    their effects manifest when the closure runs, so counting them is the
    conservative choice)."""
    witnesses: dict[str, EffectWitness] = {}
    writes: set[tuple[str, str]] = set()

    def record(kind: str, line: int, detail: str) -> None:
        if kind not in witnesses:
            witnesses[kind] = EffectWitness(
                kind=kind, origin=info.qualified, line=line, detail=detail
            )

    for access in inventory.accesses_by(info.qualified):
        variable = inventory.variable(access.variable)
        if access.write:
            kind = (
                "writes-metrics"
                if variable is not None and variable.kind == "metric"
                else "writes-global"
            )
            record(kind, access.line, access.detail)
            writes.add((access.variable, info.qualified))
        else:
            record("reads-global", access.line, access.detail)

    numpy_imports = _numpy_random_imports(tree)
    has_stdlib_random = _imports_stdlib_random(tree)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        rng = _rng_witness(node, numpy_imports, has_stdlib_random)
        if rng is not None:
            record("ambient-rng", node.lineno, rng)
        io_detail = _io_witness(node)
        if io_detail is not None:
            record("io", node.lineno, io_detail)
        spawn = _spawn_witness(node)
        if spawn is not None:
            record("spawns", node.lineno, spawn)

    return witnesses, writes


def analyze_effects(
    program: ProgramContext,
    inventory: GlobalsInventory | None = None,
) -> dict[str, FunctionEffects]:
    """Infer the effect set of every module-level function.

    Local effects are unioned along resolved call edges until a fixpoint
    is reached (monotone over a finite lattice, so termination is
    guaranteed even for call cycles).  Each propagated kind keeps the
    witness of its *origin* function for attributable findings.
    """
    if inventory is None:
        inventory = build_globals_inventory(program)

    local: dict[str, dict[str, EffectWitness]] = {}
    writes: dict[str, set[tuple[str, str]]] = {}
    declared: dict[
        str, tuple[frozenset[str] | None, int | None, tuple[str, ...]]
    ] = {}
    for qualified, info in program.calls.functions.items():
        parsed = program.files.get(info.module)
        tree = parsed.tree if parsed is not None and parsed.tree else ast.Module(
            body=[], type_ignores=[]
        )
        local[qualified], function_writes = _local_effects(
            info, tree, inventory
        )
        writes[qualified] = function_writes
        declared[qualified] = _declared_effects(info)

    effects: dict[str, dict[str, EffectWitness]] = {
        qualified: dict(kinds) for qualified, kinds in local.items()
    }
    changed = True
    while changed:
        changed = False
        for qualified in program.calls.functions:
            for callee in program.calls.resolved_callees(qualified):
                if callee == qualified or callee not in effects:
                    continue
                for kind, witness in effects[callee].items():
                    if kind not in effects[qualified]:
                        effects[qualified][kind] = witness
                        changed = True
                new_writes = writes[callee] - writes[qualified]
                if new_writes:
                    writes[qualified] |= new_writes
                    changed = True

    return {
        qualified: FunctionEffects(
            qualified=qualified,
            local=dict(sorted(local[qualified].items())),
            effects=dict(sorted(effects[qualified].items())),
            global_writes=frozenset(writes[qualified]),
            declared=declared[qualified][0],
            declared_line=declared[qualified][1],
            declared_problems=declared[qualified][2],
        )
        for qualified in sorted(program.calls.functions)
    }


def entry_point_names(program: ProgramContext) -> tuple[str, ...]:
    """Public ``solve_*`` / ``optimal_*`` functions in library packages."""
    return tuple(
        sorted(
            info.qualified
            for info in program.calls.functions.values()
            if info.public
            and ENTRY_POINT_PATTERN.match(info.name)
            and _in_packages(info.module, program.config.library_packages)
        )
    )


def build_certificate(
    program: ProgramContext,
    effects_map: Mapping[str, FunctionEffects],
    inventory: GlobalsInventory,
) -> dict[str, object]:
    """Assemble the JSON parallel-safety certificate document.

    Covers every solver entry point (``solve_*`` / ``optimal_*``) plus
    every ``@effects``-declared function, so runtime gates can look up
    both the public API and purpose-built pool workers.
    """
    covered = set(entry_point_names(program))
    for qualified, fx in effects_map.items():
        if fx.declared is not None:
            covered.add(qualified)

    functions: dict[str, dict[str, object]] = {}
    for qualified in sorted(covered):
        fx = effects_map.get(qualified)
        if fx is None:
            continue
        info = program.calls.functions[qualified]
        functions[qualified] = {
            "module": info.module,
            "name": info.name,
            "line": info.line,
            "effects": list(fx.effect_names()),
            "parallel_safe": fx.parallel_safe,
            "declared": (
                sorted(fx.declared) if fx.declared else
                (["pure"] if fx.declared is not None else None)
            ),
            "entry_point": bool(ENTRY_POINT_PATTERN.match(info.name)),
        }

    return {
        "kind": CERTIFICATE_KIND,
        "version": CERTIFICATE_VERSION,
        "policy": {
            "parallel_safe_effects": sorted(PARALLEL_SAFE_EFFECTS),
        },
        "functions": functions,
        "globals": build_globals_inventory_dict(inventory),
    }


def build_globals_inventory_dict(
    inventory: GlobalsInventory,
) -> dict[str, object]:
    """The inventory section of the certificate document."""
    return inventory.as_dict()


def build_certificate_for_paths(
    paths: Sequence[Path | str],
    config: LintConfig | None = None,
    *,
    cache: ParseCache | None = None,
) -> dict[str, object]:
    """Parse *paths* and emit their certificate (CLI / test entry).

    Pass the run's shared :class:`ParseCache` to preserve the
    parse-exactly-once contract when the linter already read the files.
    """
    active_config = config if config is not None else LintConfig()
    active_cache = cache if cache is not None else ParseCache()
    parsed = [
        active_cache.parsed(path)
        for path in iter_python_files(paths, active_config)
    ]
    program = build_program_context(parsed, active_config, cache=active_cache)
    inventory = build_globals_inventory(program)
    effects_map = analyze_effects(program, inventory)
    return build_certificate(program, effects_map, inventory)


def validate_certificate(document: object) -> tuple[str, ...]:
    """Schema-check a certificate document; returns problem messages.

    An empty tuple means the document is valid.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return ("certificate must be a JSON object",)
    if document.get("kind") != CERTIFICATE_KIND:
        problems.append(
            f"certificate 'kind' must be {CERTIFICATE_KIND!r}"
        )
    if document.get("version") != CERTIFICATE_VERSION:
        problems.append(
            f"certificate 'version' must be {CERTIFICATE_VERSION}"
        )
    policy = document.get("policy")
    if not isinstance(policy, dict) or not isinstance(
        policy.get("parallel_safe_effects"), list
    ):
        problems.append(
            "certificate 'policy.parallel_safe_effects' must be a list"
        )
    functions = document.get("functions")
    if not isinstance(functions, dict):
        problems.append("certificate 'functions' must be an object")
        return tuple(problems)
    for qualified, entry in functions.items():
        if not isinstance(entry, dict):
            problems.append(f"function entry {qualified!r} must be an object")
            continue
        effects_list = entry.get("effects")
        if not isinstance(effects_list, list) or not all(
            isinstance(kind, str) and kind in EFFECT_KINDS
            for kind in effects_list
        ):
            problems.append(
                f"function {qualified!r}: 'effects' must list known kinds"
            )
        if not isinstance(entry.get("parallel_safe"), bool):
            problems.append(
                f"function {qualified!r}: 'parallel_safe' must be a boolean"
            )
        for key in ("module", "name"):
            if not isinstance(entry.get(key), str):
                problems.append(
                    f"function {qualified!r}: {key!r} must be a string"
                )
    return tuple(problems)


def render_certificate(document: Mapping[str, object]) -> str:
    """Stable JSON text of a certificate document."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
