"""Linter configuration: code defaults overridden by ``pyproject.toml``.

Configuration lives in the ``[tool.repro-lint]`` table.  Every key is
optional; the in-code defaults encode this repository's conventions so
the linter is useful with no configuration at all::

    [tool.repro-lint]
    select = ["R001", "R002"]          # run only these rules
    ignore = ["R005"]                  # never run these rules
    exclude = ["*.egg-info"]           # path components to skip
    validated-packages = ["repro.core"]
    checker-names = ["my_checker"]     # extra accepted checker callees
    banned-exceptions = ["ValueError"] # replaces the default denylist
    print-allowed = ["repro/cli.py"]   # replaces the default allowlist
    exempt = ["R001:repro.core.x.fn"]  # per-symbol exemptions
    layers = [["repro.exceptions"], ["repro.core"]]  # R100 layer order
    entry-roots = ["repro.cli"]        # call-graph roots (R102/R104)
    usage-roots = ["tests"]            # API-usage scan dirs (R104, R203/R204)
    design-doc = "DESIGN.md"           # theorem table source (R204)

TOML parsing uses :mod:`tomllib` (Python >= 3.11) and falls back to the
``tomli`` backport when present; with neither, the defaults are used and
any explicit ``--config`` request fails loudly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from ..exceptions import LintError

__all__ = [
    "LintConfig",
    "load_config",
    "config_from_table",
    "merge_cli_options",
    "find_pyproject",
    "DEFAULT_CHECKER_NAMES",
    "DEFAULT_BANNED_EXCEPTIONS",
    "DEFAULT_LAYERS",
]

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on Python 3.10
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]

#: Checker callables accepted by R001, mirroring ``repro._validation.__all__``.
DEFAULT_CHECKER_NAMES = frozenset(
    {
        "require",
        "check_finite",
        "check_positive",
        "check_nonnegative",
        "check_probability",
        "check_probability_vector",
        "check_integer_in_range",
        "check_scale",
        "unique_items",
    }
)

#: Builtin exceptions R002 refuses in library raises.  ``TypeError`` and
#: ``NotImplementedError`` stay legal: per ``repro.exceptions`` they mark
#: programming errors, not library failures.
DEFAULT_BANNED_EXCEPTIONS = frozenset(
    {
        "ValueError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "LookupError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OSError",
        "IOError",
        "StopIteration",
        "Exception",
        "BaseException",
    }
)


#: The repository's layered architecture, lowest layer first (R100).  A
#: module may import only its own or lower layers.  ``repro.lp`` sits
#: below ``repro.quorums`` because the Naor-Wool optimal-strategy LP in
#: ``quorums`` builds on the LP substrate, which itself depends only on
#: the foundation; the trailing bare ``"repro"`` entry places the root
#: package (and any not-yet-mapped submodule) in the top layer via
#: longest-prefix matching.
DEFAULT_LAYERS: tuple[tuple[str, ...], ...] = (
    ("repro.exceptions", "repro._validation", "repro._pareto", "repro._numeric"),
    ("repro.obs", "repro._results", "repro._compat", "repro.resilience"),
    ("repro.lp",),
    ("repro.network",),
    ("repro.quorums",),
    ("repro.gap", "repro.scheduling"),
    ("repro.core",),
    ("repro.serve",),
    ("repro.io", "repro.lint", "repro.analysis", "repro.experiments"),
    ("repro.cli", "repro.__main__", "repro"),
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter settings (code defaults + ``pyproject.toml``)."""

    #: Rule ids to run; ``None`` means every registered rule.
    select: frozenset[str] | None = None
    #: Rule ids to skip even when selected.
    ignore: frozenset[str] = frozenset()
    #: fnmatch patterns; a file is skipped when any path component matches.
    exclude: tuple[str, ...] = ("*.egg-info", "__pycache__", ".git", ".venv", "build")
    #: Dotted package prefixes that count as "library code" (R006, R007).
    library_packages: tuple[str, ...] = ("repro",)
    #: Dotted package prefixes whose public functions must validate (R001).
    validated_packages: tuple[str, ...] = ("repro.core", "repro.quorums", "repro.gap")
    #: Callee names accepted as validation by R001.
    checker_names: frozenset[str] = DEFAULT_CHECKER_NAMES
    #: Callee-name regex also accepted as validation by R001.
    checker_pattern: str = r"^_?(check|validate)_|^require$"
    #: Builtin exception names R002 rejects.
    banned_exceptions: frozenset[str] = DEFAULT_BANNED_EXCEPTIONS
    #: Path suffixes (posix style) where R006 permits ``print``.
    print_allowed: tuple[str, ...] = (
        "repro/cli.py",
        "repro/analysis/reporting.py",
        "repro/lint/cli.py",
    )
    #: ``"RULE:dotted.qualified.name"`` entries exempted from that rule.
    #: R100 additionally accepts ``"R100:source.module->target.module"``.
    exempt: frozenset[str] = field(default_factory=frozenset)
    #: Layered architecture for R100, lowest layer first; each entry is a
    #: group of dotted module prefixes (longest prefix wins).  Empty
    #: disables the layering check.
    layers: tuple[tuple[str, ...], ...] = DEFAULT_LAYERS
    #: Modules whose functions seed call-graph reachability (R102) and
    #: whose references count as API usage (R104).
    entry_roots: tuple[str, ...] = ("repro.cli", "repro.__main__")
    #: Directories (relative to the project root) scanned for API usage
    #: by R104; missing directories are skipped.
    usage_roots: tuple[str, ...] = ("tests", "examples", "benchmarks")
    #: Markdown design document (relative to the project root) holding
    #: the theorem table that R204 / ``repro trace`` check against.
    design_doc: str = "DESIGN.md"
    #: Directory containing the ``pyproject.toml`` the config came from;
    #: set by :func:`load_config`, not configurable.  ``None`` restricts
    #: R104's usage scan to the in-package entry roots.
    project_root: str | None = None

    def wants(self, rule_id: str) -> bool:
        """Whether *rule_id* should run under select/ignore settings.

        Entries match exactly (``"R500"``) or as series prefixes when
        shorter than a full rule id (``"R5"`` selects every R500-series
        rule), so ``--select``/``--ignore`` can address whole tiers.
        """
        if _rule_matches(rule_id, self.ignore):
            return False
        return self.select is None or _rule_matches(rule_id, self.select)

    def is_exempt(self, rule_id: str, qualified_name: str) -> bool:
        """Whether *qualified_name* is exempted from *rule_id*."""
        return f"{rule_id}:{qualified_name}" in self.exempt


def _rule_matches(rule_id: str, entries: Iterable[str]) -> bool:
    """Whether *rule_id* matches any exact id or series prefix in *entries*.

    A full four-character id matches only itself; anything shorter acts
    as a prefix (``"R5"``, ``"R50"``), so select/ignore can address a
    whole rule series without enumerating it.
    """
    return any(
        rule_id == entry or (len(entry) < 4 and rule_id.startswith(entry))
        for entry in entries
    )


_KEY_MAP: Mapping[str, str] = {
    "select": "select",
    "ignore": "ignore",
    "exclude": "exclude",
    "library-packages": "library_packages",
    "validated-packages": "validated_packages",
    "checker-names": "checker_names",
    "checker-pattern": "checker_pattern",
    "banned-exceptions": "banned_exceptions",
    "print-allowed": "print_allowed",
    "exempt": "exempt",
    "layers": "layers",
    "entry-roots": "entry_roots",
    "usage-roots": "usage_roots",
    "design-doc": "design_doc",
}


def _coerce(name: str, value: Any) -> Any:
    """Coerce a raw TOML value to the type of the config field *name*."""
    kind = {f.name: f.type for f in fields(LintConfig)}[name]
    if name in {"checker_pattern", "design_doc"}:
        if not isinstance(value, str):
            raise LintError(f"repro-lint option {name!r} must be a string")
        return value
    if name == "layers":
        if not isinstance(value, list) or not all(
            isinstance(group, list) and all(isinstance(p, str) for p in group)
            for group in value
        ):
            raise LintError(
                "repro-lint option 'layers' must be a list of lists of "
                "module prefixes (lowest layer first)"
            )
        return tuple(tuple(group) for group in value)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LintError(f"repro-lint option {name!r} must be a list of strings")
    if "frozenset" in str(kind):
        return frozenset(value)
    return tuple(value)


def find_pyproject(start: Path) -> Path | None:
    """Locate the nearest ``pyproject.toml`` at or above *start*."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(
    pyproject: Path | None = None, *, search_from: Path | None = None
) -> LintConfig:
    """Build a :class:`LintConfig` from defaults plus ``pyproject.toml``.

    *pyproject* names the file explicitly (it must exist); otherwise the
    nearest ``pyproject.toml`` above *search_from* (default: the current
    directory) is used when present.  A missing TOML parser downgrades
    to pure defaults unless the file was requested explicitly.
    """
    explicit = pyproject is not None
    if pyproject is None:
        pyproject = find_pyproject(search_from if search_from is not None else Path("."))
    if pyproject is None:
        return LintConfig()
    if not pyproject.is_file():
        raise LintError(f"config file {str(pyproject)!r} does not exist")
    if _toml is None:  # pragma: no cover - only on Python 3.10 without tomli
        if explicit:
            raise LintError(
                "reading pyproject.toml requires tomllib (Python >= 3.11) "
                "or the tomli backport"
            )
        return LintConfig()
    with open(pyproject, "rb") as handle:
        try:
            document = _toml.load(handle)
        except _toml.TOMLDecodeError as exc:
            raise LintError(f"invalid TOML in {str(pyproject)!r}: {exc}") from exc
    table = document.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintError("[tool.repro-lint] must be a TOML table")
    config = config_from_table(table)
    # The pyproject location anchors R104's usage-root scan.
    return replace(config, project_root=str(pyproject.parent))


def config_from_table(table: Mapping[str, Any]) -> LintConfig:
    """Build a config from an already-parsed ``[tool.repro-lint]`` table."""
    overrides: dict[str, Any] = {}
    for key, value in table.items():
        if key not in _KEY_MAP:
            known = ", ".join(sorted(_KEY_MAP))
            raise LintError(f"unknown repro-lint option {key!r}; known: {known}")
        overrides[_KEY_MAP[key]] = _coerce(_KEY_MAP[key], value)
    return replace(LintConfig(), **overrides)


def merge_cli_options(
    config: LintConfig,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintConfig:
    """Apply ``--select`` / ``--ignore`` command-line overrides."""
    if select is not None:
        config = replace(config, select=frozenset(select))
    if ignore is not None:
        config = replace(config, ignore=config.ignore | frozenset(ignore))
    return config
