"""Per-layer tracing of the program from outside ``src/``.

Each layer of the Thm 1.2 relay sweep is timed by replacing the public
function it exposes with a wrapper that opens a :mod:`repro.obs.trace`
span around the original call.  Where a module imported a function by
name, the wrapper replaces that name in the importing module, because
that is the binding its caller looks up at call time.  The program's own
spans (``qpp.sweep``, ``lp.solve``, ``serve.tick``, ...) land in the same
span trees, so one rollup covers both.

Self time of a span is its duration minus the durations of its
children.  A layer's self time is the sum over its spans, which makes
the layers disjoint: the shares of all layers add up to the traced
time, less whatever ran outside any span.
"""

from __future__ import annotations

import functools
import importlib
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.obs import trace

#: Layer of a span, keyed by the first dotted component of its name.
#: Wrapper spans and the program's own spans share this namespace.
LAYER_OF_PREFIX = {
    "lp": "lp",
    "ssqpp": "core.ssqpp",
    "gap": "gap",
    "placement": "core.placement",
    "network": "network",
    "metric": "network",
    "qpp": "core.qpp",
    "serve": "serve",
}

def layer_of(name: str) -> str:
    """The layer a span name belongs to (``"other"`` if none)."""
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "other")


def _note_candidates(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"candidates": len(result.per_source)}


def _note_linprog(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    nonzeros = sum(
        int(matrix.nnz)
        for matrix in (kwargs.get("A_ub"), kwargs.get("A_eq"))
        if matrix is not None
    )
    return {"nonzeros": nonzeros, "iterations": int(getattr(result, "nit", 0) or 0)}


def _note_rows(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"rows": int(result.shape[0])}


#: ``(span name, module, attribute, note)``: the functions wrapped while
#: tracing.  ``attribute`` may be ``Class.method``; *note* turns a call's
#: arguments and result into span attributes that the rollup sums.
TARGETS: tuple[tuple[str, str, str, Callable[..., dict] | None], ...] = (
    ("qpp.solve_qpp", "repro.core.qpp", "solve_qpp", _note_candidates),
    ("qpp.solve_qpp", "repro.serve.engine", "solve_qpp", _note_candidates),
    ("ssqpp.solve_ssqpp", "repro.core.qpp", "solve_ssqpp", None),
    ("ssqpp.base", "repro.core.ssqpp", "SSQPPLPFactory.__init__", None),
    ("ssqpp.attach", "repro.core.ssqpp", "SSQPPLPFactory.attach", None),
    ("lp.solve_model", "repro.lp.solve", "solve_model", None),
    ("lp.highs", "repro.lp.solve", "linprog", _note_linprog),
    ("gap.round", "repro.core.ssqpp", "round_fractional_assignment", None),
    ("placement.average_max_delay", "repro.core.qpp", "average_max_delay", None),
    (
        "placement.average_max_delay_via_sources",
        "repro.core.qpp",
        "average_max_delay_via_sources",
        None,
    ),
    (
        "placement.average_max_delay_bounds",
        "repro.core.qpp",
        "average_max_delay_bounds",
        None,
    ),
    ("placement.expected_max_delay", "repro.core.ssqpp", "expected_max_delay", None),
    ("placement.node_loads", "repro.core.ssqpp", "node_loads", None),
    (
        "placement.per_client_expected_max_delay",
        "repro.serve.engine",
        "per_client_expected_max_delay",
        None,
    ),
    ("network.dijkstra", "repro.network.metric", "dijkstra_batched", _note_rows),
    ("network.lazy_init", "repro.network.lazymetric", "LazyMetric.__init__", None),
    ("network.landmarks", "repro.network.lazymetric", "LandmarkOracle.build", None),
    ("serve.init", "repro.serve.engine", "PlacementService.__init__", None),
    ("serve.tick_call", "repro.serve.engine", "PlacementService.tick", None),
)


def _traced(fn: Callable, name: str, note: Callable[..., dict] | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with trace.span(name) as handle:
            result = fn(*args, **kwargs)
            if note is not None:
                handle.set(**note(args, kwargs, result))
        return result

    return traced


def _owner(module: str, attribute: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def wrappers_installed() -> Iterator[None]:
    """Wrap every :data:`TARGETS` entry for the duration of the block.

    Install before constructing objects that capture a function at
    construction time (``PlacementService`` keeps its solver).
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for name, module, attribute, note in TARGETS:
            owner, leaf = _owner(module, attribute)
            original = vars(owner)[leaf]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(_traced(original.__func__, name, note))
            else:
                replacement = _traced(original, name, note)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, replacement)
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# -- rollup ------------------------------------------------------------------------


@dataclass
class Row:
    """Aggregate of the spans of one name (or the entries into one layer)."""

    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    sums: dict[str, float] = field(default_factory=dict)


@dataclass
class Rollup:
    """Span trees summed per span name and per layer.

    A layer's ``count``/``total`` cover its *entries*: spans whose parent
    belongs to another layer (or that are roots); ``self_time`` covers
    every span of the layer.
    """

    names: dict[str, Row]
    layers: dict[str, Row]
    ticks_without_resolve: Row

    def name(self, key: str) -> Row:
        return self.names.get(key, Row())

    def layer(self, key: str) -> Row:
        return self.layers.get(key, Row())

    def sum_of(self, key: str, attribute: str) -> float:
        return self.name(key).sums.get(attribute, 0.0)

    @property
    def attributed(self) -> float:
        return sum(row.self_time for key, row in self.layers.items() if key != "other")


def _has_resolve(span: trace.Span) -> bool:
    return any(node.name == "serve.resolve" for node in span.iter_spans())


def rollup(roots: Iterable[trace.Span]) -> Rollup:
    names: dict[str, Row] = {}
    layers: dict[str, Row] = {}
    quiet_ticks = Row()

    def visit(span: trace.Span, parent_layer: str | None, in_tick: bool) -> None:
        duration = span.duration or 0.0
        self_time = duration - sum(child.duration or 0.0 for child in span.children)
        layer = layer_of(span.name)
        row = names.setdefault(span.name, Row())
        row.count += 1
        row.total += duration
        row.self_time += self_time
        for key, value in span.attributes.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row.sums[key] = row.sums.get(key, 0.0) + float(value)
        layer_row = layers.setdefault(layer, Row())
        layer_row.self_time += self_time
        if layer != parent_layer:
            layer_row.count += 1
            layer_row.total += duration
        outer_tick = span.name == "serve.tick_call" and not in_tick
        if outer_tick and not _has_resolve(span):
            quiet_ticks.count += 1
            quiet_ticks.total += duration
        for child in span.children:
            visit(child, layer, in_tick or outer_tick)

    for root in roots:
        visit(root, None, False)
    return Rollup(names=names, layers=layers, ticks_without_resolve=quiet_ticks)


def render_table(summary: Rollup, wall: float) -> str:
    """Markdown tables: per layer, then per span name."""
    lines = [
        f"traced wall time: {wall:.4f} s; attributed to named layers: "
        f"{summary.attributed / wall:.2%}" if wall > 0 else "traced wall time: 0 s",
        "",
        "| layer | entries | total s | self s | share |",
        "|---|---:|---:|---:|---:|",
    ]
    ordered = sorted(summary.layers.items(), key=lambda item: -item[1].self_time)
    for key, row in ordered:
        share = row.self_time / wall if wall > 0 else 0.0
        lines.append(
            f"| {key} | {row.count} | {row.total:.4f} | {row.self_time:.4f} | {share:.1%} |"
        )
    lines += ["", "| span | layer | count | total s | self s |", "|---|---|---:|---:|---:|"]
    for key, row in sorted(summary.names.items(), key=lambda item: -item[1].self_time):
        lines.append(
            f"| {key} | {layer_of(key)} | {row.count} | {row.total:.4f} | {row.self_time:.4f} |"
        )
    return "\n".join(lines)


def span_rows(roots: Iterable[trace.Span]) -> Iterator[dict[str, Any]]:
    """Flatten span trees for a JSONL file, ids unique across roots."""
    next_id = 0
    for root in roots:
        rows = trace.span_to_dicts(root, first_id=next_id)
        next_id += len(rows)
        yield from rows
