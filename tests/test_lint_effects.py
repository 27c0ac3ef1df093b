"""The effects tier: globals census, purity inference, rules R400-R404,
and the parallel-safety certificate.

Each rule is exercised positively (it fires on a synthetic violating
package) and negatively (the corrected twin stays silent), plus unit
coverage for the ``@effects`` declaration parser, the interprocedural
fixpoint (including call cycles and ``functools.partial`` edges), the
inventory's classification/attribution, and the certificate's schema,
renderer and CLI emission path.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro._validation import EFFECT_KINDS, effects
from repro.exceptions import ValidationError
from repro.lint import (
    Finding,
    LintConfig,
    ParseCache,
    analyze_effects,
    build_certificate,
    build_certificate_for_paths,
    build_effect_context,
    build_globals_inventory,
    lint_paths,
    render_certificate,
    validate_certificate,
)
from repro.lint.cli import main as lint_main
from repro.lint.effect_rules import (
    EffectDeclarationRule,
    EntryPointAmbientRngRule,
    PicklablePoolArgumentRule,
    PureFunctionWriteRule,
    TelemetryScopeRule,
)
from repro.lint.effects import (
    CERTIFICATE_KIND,
    CERTIFICATE_VERSION,
    PARALLEL_SAFE_EFFECTS,
    EffectWitness,
)
from repro.lint.engine import iter_python_files
from repro.lint.globals_inventory import GlobalAccess, GlobalVariable
from repro.lint.interproc import build_program_context

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def write_package(root: Path, name: str, modules: dict[str, str]) -> Path:
    """Materialize a synthetic package under *root*."""
    package = root / name
    package.mkdir(parents=True, exist_ok=True)
    if "__init__" not in modules:
        (package / "__init__.py").write_text("", encoding="utf-8")
    for module, source in modules.items():
        (package / f"{module}.py").write_text(
            textwrap.dedent(source), encoding="utf-8"
        )
    return package


def build_context(package: Path, **overrides: object):
    """Program context over one synthetic package."""
    config = replace(LintConfig(), validated_packages=(), **overrides)
    cache = ParseCache()
    parsed = [cache.parsed(p) for p in iter_python_files([package], config)]
    return build_program_context(parsed, config, cache=cache)


def run_effect_rules(
    package: Path, rule_id: str, **overrides: object
) -> list[Finding]:
    overrides.setdefault("validated_packages", ())
    config = replace(LintConfig(), select=frozenset({rule_id}), **overrides)
    return lint_paths([package], config, effects=True)


# -- the @effects decorator (runtime side) -------------------------------------------


def test_effects_decorator_attaches_frozen_effect_set():
    @effects("reads-global", "writes-metrics")
    def fn():
        return 1

    assert fn() == 1  # no wrapper: the function object is returned as-is
    assert fn.__effects__ == frozenset({"reads-global", "writes-metrics"})


def test_effects_decorator_pure_means_empty_set():
    @effects("pure")
    def fn():
        return 2

    assert fn.__effects__ == frozenset()


def test_effects_decorator_rejects_unknown_and_mixed_pure():
    with pytest.raises(ValidationError):
        effects("reads-disk")
    with pytest.raises(ValidationError):
        effects()
    with pytest.raises(ValidationError):
        effects("pure", "io")
    assert "ambient-rng" in EFFECT_KINDS


# -- globals inventory ---------------------------------------------------------------


def test_inventory_classifies_and_attributes(tmp_path):
    package = write_package(
        tmp_path,
        "inv",
        {
            "state": """
            from collections import deque

            __all__ = []

            _CACHE = {}
            _QUEUE = deque()
            _LIMIT = 10          # immutable: not inventoried
            _NAMES = frozenset({"a"})  # immutable factory: not inventoried
            _ACTIVE = None

            def remember(key, value):
                _CACHE[key] = value
                _QUEUE.append(key)

            def lookup(key):
                return _CACHE.get(key)

            def install(collector):
                global _ACTIVE
                _ACTIVE = collector
            """,
        },
    )
    inventory = build_globals_inventory(build_context(package))

    cache = inventory.variable("inv.state._CACHE")
    assert isinstance(cache, GlobalVariable) and cache.kind == "container"
    assert inventory.variable("inv.state._LIMIT") is None
    assert inventory.variable("inv.state._NAMES") is None
    active = inventory.variable("inv.state._ACTIVE")
    assert active is not None and active.kind == "rebound"

    writers = inventory.writers_of("inv.state._CACHE")
    assert [a.function for a in writers] == ["inv.state.remember"]
    assert all(isinstance(a, GlobalAccess) and a.write for a in writers)
    readers = inventory.readers_of("inv.state._CACHE")
    assert "inv.state.lookup" in {a.function for a in readers}
    assert inventory.writers_of("inv.state._ACTIVE")[0].function == (
        "inv.state.install"
    )

    document = inventory.as_dict()
    names = {entry["name"] for entry in document["variables"]}
    assert {"_CACHE", "_QUEUE", "_ACTIVE"} <= names


def test_inventory_metric_kind_maps_to_writes_metrics(tmp_path):
    package = write_package(
        tmp_path,
        "met",
        {
            "probe": """
            from repro.obs.metrics import counter

            __all__ = []

            _SOLVES = counter("probe.count")

            def tick():
                _SOLVES.inc()
            """,
        },
    )
    program = build_context(package)
    inventory = build_globals_inventory(program)
    assert inventory.variable("met.probe._SOLVES").kind == "metric"
    fx = analyze_effects(program, inventory)["met.probe.tick"]
    assert set(fx.effects) == {"writes-metrics", "reads-global"}
    assert fx.parallel_safe


# -- effect inference ----------------------------------------------------------------


def test_effects_propagate_through_calls_and_cycles(tmp_path):
    package = write_package(
        tmp_path,
        "prop",
        {
            "chain": """
            import random

            __all__ = []

            _LOG = []

            def leaf():
                _LOG.append(random.random())

            def middle(n):
                if n:
                    return outer(n - 1)
                return leaf()

            def outer(n):
                return middle(n)

            def untouched():
                return 0
            """,
        },
    )
    fx = analyze_effects(build_context(package))
    leaf_effects = {"ambient-rng", "reads-global", "writes-global"}
    assert set(fx["prop.chain.leaf"].effects) == leaf_effects
    # The middle/outer cycle converges and inherits the leaf's effects.
    for name in ("prop.chain.middle", "prop.chain.outer"):
        assert set(fx[name].effects) == leaf_effects
        witness = fx[name].effects["writes-global"]
        assert isinstance(witness, EffectWitness)
        assert witness.origin == "prop.chain.leaf"
    assert fx["prop.chain.untouched"].pure
    assert fx["prop.chain.outer"].global_writes == frozenset(
        {("prop.chain._LOG", "prop.chain.leaf")}
    )


def test_effects_see_through_functools_partial(tmp_path):
    package = write_package(
        tmp_path,
        "part",
        {
            "deferred": """
            from functools import partial

            __all__ = []

            _SINK = []

            def worker(item, scale):
                _SINK.append(item * scale)

            def driver(items):
                fn = partial(worker, scale=2)
                return [fn(i) for i in items]
            """,
        },
    )
    fx = analyze_effects(build_context(package))
    assert "writes-global" in fx["part.deferred.driver"].effects


def test_io_and_spawn_detection(tmp_path):
    package = write_package(
        tmp_path,
        "eff",
        {
            "mixed": """
            import subprocess
            from concurrent.futures import ProcessPoolExecutor
            from pathlib import Path

            __all__ = []

            def dumps(path):
                Path(path).write_text("x")

            def launches(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(str, items))

            def shells():
                return subprocess.run(["true"])
            """,
        },
    )
    fx = analyze_effects(build_context(package))
    assert "io" in fx["eff.mixed.dumps"].effects
    assert "spawns" in fx["eff.mixed.launches"].effects
    assert "spawns" in fx["eff.mixed.shells"].effects


# -- R400: declaration mismatch ------------------------------------------------------


_R400_VIOLATION = {
    "mod": """
    from repro._validation import effects

    __all__ = ["solve_narrow"]

    _CACHE = {}

    @effects("reads-global")
    def solve_narrow(x):
        _CACHE[x] = x
        return x
    """,
}

_R400_CLEAN = {
    "mod": """
    from repro._validation import effects

    __all__ = ["solve_wide"]

    _CACHE = {}

    @effects("reads-global", "writes-global")
    def solve_wide(x):
        _CACHE[x] = x
        return x
    """,
}


def test_r400_fires_on_narrow_declaration(tmp_path):
    package = write_package(tmp_path, "pkg", _R400_VIOLATION)
    findings = run_effect_rules(package, EffectDeclarationRule.id)
    assert any("writes-global" in f.message for f in findings)


def test_r400_silent_when_declaration_covers(tmp_path):
    package = write_package(tmp_path, "pkg", _R400_CLEAN)
    assert run_effect_rules(package, EffectDeclarationRule.id) == []


def test_r400_overdeclaration_is_legal(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from repro._validation import effects

            __all__ = ["quiet"]

            @effects("writes-metrics", "reads-global")
            def quiet(x):
                return x + 1
            """,
        },
    )
    assert run_effect_rules(package, EffectDeclarationRule.id) == []


def test_r400_reports_malformed_declarations(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from repro._validation import effects

            __all__ = ["odd"]

            KIND = "io"

            @effects(KIND, "reads-disk")
            def odd(x):
                return x
            """,
        },
    )
    findings = run_effect_rules(package, EffectDeclarationRule.id)
    messages = " ".join(f.message for f in findings)
    assert "string literals" in messages
    assert "unknown effect kind" in messages


# -- R401: pure-declared global writes -----------------------------------------------


def test_r401_fires_with_callee_attribution(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from repro._validation import effects

            __all__ = ["outer_api"]

            _STATE = {}

            def _helper(x):
                _STATE[x] = x

            @effects("pure")
            def outer_api(x):
                _helper(x)
                return x
            """,
        },
    )
    findings = run_effect_rules(package, PureFunctionWriteRule.id)
    assert len(findings) == 1
    assert "callee" in findings[0].message
    assert "_STATE" in findings[0].message


def test_r401_silent_for_truly_pure(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from repro._validation import effects

            __all__ = ["identity"]

            @effects("pure")
            def identity(x):
                return x
            """,
        },
    )
    assert run_effect_rules(package, PureFunctionWriteRule.id) == []


# -- R402: ambient RNG on entry points -----------------------------------------------


def test_r402_fires_on_transitive_ambient_rng(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            import random

            __all__ = ["solve_noisy"]

            def _jitter():
                return random.random()

            def solve_noisy(x):
                return x + _jitter()
            """,
        },
    )
    findings = run_effect_rules(
        package, EntryPointAmbientRngRule.id, library_packages=("pkg",)
    )
    assert len(findings) == 1
    assert "ambient RNG" in findings[0].message


def test_r402_silent_for_seeded_generator(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            import numpy as np

            __all__ = ["solve_seeded"]

            def solve_seeded(x, seed):
                rng = np.random.default_rng(seed)
                return x + rng.standard_normal()
            """,
        },
    )
    assert (
        run_effect_rules(
            package, EntryPointAmbientRngRule.id, library_packages=("pkg",)
        )
        == []
    )


def test_r402_respects_exemptions(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            import random

            __all__ = ["solve_legacy"]

            def solve_legacy(x):
                return x + random.random()
            """,
        },
    )
    findings = run_effect_rules(
        package,
        EntryPointAmbientRngRule.id,
        library_packages=("pkg",),
        exempt=frozenset({"R402:pkg.mod.solve_legacy"}),
    )
    assert findings == []


# -- R403: unpicklable pool arguments ------------------------------------------------


def test_r403_fires_on_lambda_and_local_function(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from pkg.fanout import parallel_map

            __all__ = ["fan_out"]

            def fan_out(items, pool):
                first = parallel_map(lambda x: x + 1, items)

                def local(x):
                    return x - 1

                second = pool.map(local, items)
                return first, second
            """,
        },
    )
    findings = run_effect_rules(package, PicklablePoolArgumentRule.id)
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("lambda" in m for m in messages)
    assert any("local" in m for m in messages)


def test_r403_silent_for_module_level_callables(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from functools import partial

            from pkg.fanout import parallel_map

            __all__ = ["fan_out", "worker"]

            def worker(x, scale=1):
                return x * scale

            def fan_out(items, executor):
                executor.map(worker, items)
                return parallel_map(partial(worker, scale=2), items)
            """,
        },
    )
    assert run_effect_rules(package, PicklablePoolArgumentRule.id) == []


def test_r403_ignores_plain_map(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            __all__ = ["transform"]

            def transform(items):
                return list(map(lambda x: x + 1, items))
            """,
        },
    )
    assert run_effect_rules(package, PicklablePoolArgumentRule.id) == []


# -- R404: telemetry scoping ---------------------------------------------------------


_R404_MODULES = {
    "mod": """
    from repro.obs.metrics import counter, telemetry_scope

    __all__ = ["solve_counted", "solve_scoped"]

    _SOLVES = counter("pkg.solves")

    def solve_counted(x):
        _SOLVES.inc()
        return x

    def solve_scoped(x):
        with telemetry_scope() as tel:
            _SOLVES.inc()
        return x, tel.snapshot
    """,
}


def test_r404_fires_without_scope_and_stays_silent_with(tmp_path):
    package = write_package(tmp_path, "pkg", _R404_MODULES)
    findings = run_effect_rules(
        package,
        TelemetryScopeRule.id,
        library_packages=("pkg",),
        validated_packages=("pkg",),
    )
    assert [f.message for f in findings] != []
    assert all("solve_counted" in f.message for f in findings)
    assert len(findings) == 1


def test_r404_only_checks_validated_packages(tmp_path):
    package = write_package(tmp_path, "pkg", _R404_MODULES)
    findings = run_effect_rules(
        package,
        TelemetryScopeRule.id,
        library_packages=("pkg",),
        validated_packages=("other",),
    )
    assert findings == []


# -- certificate ---------------------------------------------------------------------


def test_certificate_covers_entry_points_and_declared(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            from repro._validation import effects

            __all__ = ["solve_thing", "worker"]

            _CACHE = {}

            @effects("reads-global", "writes-global")
            def worker(x):
                _CACHE[x] = x
                return x

            def solve_thing(x):
                return worker(x)

            def _private_helper(x):
                return x
            """,
        },
    )
    program = build_context(package, library_packages=("pkg",))
    inventory = build_globals_inventory(program)
    effects_map = analyze_effects(program, inventory)
    document = build_certificate(program, effects_map, inventory)

    assert document["kind"] == CERTIFICATE_KIND
    assert document["version"] == CERTIFICATE_VERSION
    assert document["policy"]["parallel_safe_effects"] == sorted(
        PARALLEL_SAFE_EFFECTS
    )
    functions = document["functions"]
    assert set(functions) == {"pkg.mod.solve_thing", "pkg.mod.worker"}
    worker = functions["pkg.mod.worker"]
    assert worker["declared"] == ["reads-global", "writes-global"]
    assert worker["parallel_safe"] is False
    entry = functions["pkg.mod.solve_thing"]
    assert entry["entry_point"] is True
    assert entry["parallel_safe"] is False  # inherits the worker's write

    assert validate_certificate(document) == ()
    rendered = render_certificate(document)
    assert json.loads(rendered) == document
    assert rendered.endswith("\n")


def test_validate_certificate_rejects_malformed():
    assert validate_certificate([]) != ()
    assert validate_certificate({"kind": "nope"}) != ()
    broken = {
        "kind": CERTIFICATE_KIND,
        "version": CERTIFICATE_VERSION,
        "policy": {"parallel_safe_effects": []},
        "functions": {"f": {"effects": ["bogus-kind"], "parallel_safe": "yes"}},
    }
    problems = validate_certificate(broken)
    assert any("known kinds" in p for p in problems)
    assert any("parallel_safe" in p for p in problems)


def test_certificate_cli_emission(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            __all__ = ["solve_simple"]

            def solve_simple(x):
                return x
            """,
        },
    )
    out = tmp_path / "certificate.json"
    code = lint_main(
        [str(package), "--certificate", str(out), "--config",
         str(REPO_ROOT / "pyproject.toml")]
    )
    assert code == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert validate_certificate(document) == ()


@pytest.mark.skipif(not SRC.is_dir(), reason="source tree not present")
def test_src_certificate_covers_every_solver_entry_point():
    """Acceptance: the real certificate covers all solve_*/optimal_*."""
    document = build_certificate_for_paths([SRC])
    assert validate_certificate(document) == ()
    functions = document["functions"]
    # Every solver entry point in the library must appear.
    from repro.lint.effects import entry_point_names
    from repro.lint import load_config

    config = load_config(REPO_ROOT / "pyproject.toml")
    cache = ParseCache()
    parsed = [cache.parsed(p) for p in iter_python_files([SRC], config)]
    context = build_program_context(parsed, config, cache=cache)
    for qualified in entry_point_names(context):
        assert qualified in functions, f"{qualified} missing from certificate"


def test_effect_context_builds_over_src_package(tmp_path):
    package = write_package(
        tmp_path,
        "pkg",
        {
            "mod": """
            __all__ = ["solve_direct"]

            def solve_direct(x):
                return x
            """,
        },
    )
    context = build_effect_context(build_context(package, library_packages=("pkg",)))
    assert context.entry_points == ("pkg.mod.solve_direct",)
    assert context.effects["pkg.mod.solve_direct"].pure
