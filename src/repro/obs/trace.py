"""Zero-dependency structured tracing: nested spans over monotonic time.

A *span* is one named, timed region of work with arbitrary key/value
attributes.  Spans nest: entering a span while another is open makes it
a child, so a solver run produces a tree (``qpp.sweep`` containing one
``ssqpp.solve`` per candidate, each containing an ``lp.solve``).

The instrumentation contract is that tracing costs (almost) nothing
when nobody is looking.  :func:`span` checks a single module-level
reference; with no collector installed it returns a cached no-op
handle, so instrumented hot paths pay one global load and one attribute
call per span (asserted to be under 1% of solver runtime by the test
suite).  Installing a :class:`TraceCollector` — usually through the
:func:`collect` context manager — turns the same call sites into live
span recording.

Sinks receive every finished *root* span (with its whole subtree):

* the collector itself keeps roots in memory (``collector.roots``);
* :class:`JsonlSpanSink` appends one JSON object per span, flattened
  with ``id``/``parent`` references so trees survive the round trip
  (:func:`read_spans_jsonl` rebuilds them);
* :func:`render_span_tree` formats a tree for humans;
* :func:`span_name_totals` sums the trees per span name.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import IO, Any

from ..exceptions import ValidationError

__all__ = [
    "Span",
    "SpanHandle",
    "TraceCollector",
    "JsonlSpanSink",
    "span",
    "collect",
    "install_collector",
    "uninstall_collector",
    "active_collector",
    "read_spans_jsonl",
    "span_to_dicts",
    "render_span_tree",
    "span_name_totals",
]


@dataclass
class Span:
    """One recorded region of work.

    ``started`` is a :func:`time.perf_counter` timestamp (monotonic,
    process-relative — meaningful only as a difference); ``duration`` is
    seconds, ``None`` while the span is still open.  ``error`` is set
    when the span body raised.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    started: float = 0.0
    duration: float | None = None
    error: bool = False
    children: list["Span"] = field(default_factory=list)

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    @property
    def span_count(self) -> int:
        """Number of spans in this subtree (including this one)."""
        return sum(1 for _ in self.iter_spans())

    @property
    def max_depth(self) -> int:
        """Nesting depth of this subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.max_depth for child in self.children)


class SpanHandle:
    """What :func:`span` returns: a context manager with ``set()``.

    The base class is the no-op implementation used when no collector is
    installed; :class:`TraceCollector` hands out live subclass instances.
    """

    __slots__ = ()

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span (no-op without a collector)."""


_NULL_SPAN = SpanHandle()


class _LiveSpan(SpanHandle):
    """A handle bound to a collector; records on enter/exit."""

    __slots__ = ("_collector", "record")

    def __init__(self, collector: "TraceCollector", record: Span) -> None:
        self._collector = collector
        self.record = record

    def __enter__(self) -> "_LiveSpan":
        self._collector._push(self.record)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.record.error = exc_type is not None
        self._collector._pop(self.record)
        return False

    def set(self, **attributes: Any) -> None:
        self.record.attributes.update(attributes)


class TraceCollector:
    """Collects finished span trees in memory and fans out to sinks.

    A *sink* is any object with an ``emit(root: Span) -> None`` method;
    it is called once per finished root span (i.e. once per outermost
    ``with span(...)`` block).
    """

    def __init__(self, sinks: Sequence[Any] = ()) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._sinks: tuple[Any, ...] = tuple(sinks)

    def start(self, name: str, attributes: dict[str, Any]) -> _LiveSpan:
        """Create a handle for a new span; recording begins on ``__enter__``."""
        return _LiveSpan(self, Span(name=name, attributes=attributes))

    def _push(self, record: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(record)
        else:
            self.roots.append(record)
        self._stack.append(record)
        record.started = perf_counter()

    def _pop(self, record: Span) -> None:
        record.duration = perf_counter() - record.started
        if not self._stack or self._stack[-1] is not record:
            raise ValidationError(
                f"span {record.name!r} closed out of order; spans must be "
                "used as properly nested context managers"
            )
        self._stack.pop()
        if not self._stack:
            for sink in self._sinks:
                sink.emit(record)

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    @property
    def span_count(self) -> int:
        """Total spans recorded under every finished or open root."""
        return sum(root.span_count for root in self.roots)

    @property
    def max_depth(self) -> int:
        """Deepest nesting across all roots (0 when nothing recorded)."""
        return max((root.max_depth for root in self.roots), default=0)


_ACTIVE: TraceCollector | None = None


def active_collector() -> TraceCollector | None:
    """The currently installed collector, or ``None``."""
    return _ACTIVE


def install_collector(collector: TraceCollector) -> None:
    """Make *collector* receive every :func:`span` from now on.

    Replaces any previously installed collector; prefer the
    :func:`collect` context manager, which restores the previous one.
    """
    global _ACTIVE
    _ACTIVE = collector


def uninstall_collector() -> TraceCollector | None:
    """Remove and return the installed collector (``None`` if absent)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def span(name: str, **attributes: Any) -> SpanHandle:
    """Open a named span around a block of work::

        with span("lp.solve", candidates=n) as sp:
            ...
            sp.set(iterations=solution.iterations)

    With no collector installed this returns a shared no-op handle — the
    cheap path instrumented hot loops rely on.  Exceptions propagate and
    mark the span's ``error`` flag.
    """
    collector = _ACTIVE
    if collector is None:
        return _NULL_SPAN
    return collector.start(name, attributes)


@contextmanager
def collect(*sinks: Any) -> Iterator[TraceCollector]:
    """Install a fresh :class:`TraceCollector` for the duration of a block.

    Nestable: the previously installed collector (if any) is restored on
    exit, so ``repro profile`` can wrap code that itself collects.
    """
    collector = TraceCollector(sinks=sinks)
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = previous


# -- serialization ----------------------------------------------------------------


def span_to_dicts(root: Span, *, first_id: int = 0) -> list[dict[str, Any]]:
    """Flatten a span tree to JSON-ready dicts with ``id``/``parent`` links.

    Ids are assigned depth-first starting at *first_id*; the root's
    ``parent`` is ``None``.  Attribute values that are not JSON
    serializable are stringified.
    """
    rows: list[dict[str, Any]] = []

    def visit(node: Span, parent: int | None) -> None:
        node_id = first_id + len(rows)
        rows.append(
            {
                "id": node_id,
                "parent": parent,
                "name": node.name,
                "attributes": {str(k): _jsonable(v) for k, v in node.attributes.items()},
                "started": node.started,
                "duration": node.duration,
                "error": node.error,
            }
        )
        for child in node.children:
            visit(child, node_id)

    visit(root, None)
    return rows


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class JsonlSpanSink:
    """Writes finished span trees to a JSONL file, one span per line.

    Each line is one :func:`span_to_dicts` row; ids are unique across
    the file's lifetime, so several roots coexist.  Close (or use as a
    context manager) to flush.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: IO[str] | None = open(path, "w", encoding="utf-8")
        self._next_id = 0

    def emit(self, root: Span) -> None:
        if self._handle is None:
            raise ValidationError(f"JSONL span sink {self.path!r} is closed")
        rows = span_to_dicts(root, first_id=self._next_id)
        self._next_id += len(rows)
        for row in rows:
            self._handle.write(json.dumps(row) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSpanSink":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


def read_spans_jsonl(path: str) -> list[Span]:
    """Rebuild span trees from a :class:`JsonlSpanSink` file.

    Returns the roots in file order; raises
    :class:`~repro.exceptions.ValidationError` on malformed rows or
    dangling parent references.
    """
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}:{line_number}: invalid JSON in span file: {exc}"
                ) from exc
            for key in ("id", "name", "started", "duration", "error"):
                if key not in row:
                    raise ValidationError(
                        f"{path}:{line_number}: span row is missing key {key!r}"
                    )
            node = Span(
                name=row["name"],
                attributes=dict(row.get("attributes", {})),
                started=float(row["started"]),
                duration=None if row["duration"] is None else float(row["duration"]),
                error=bool(row["error"]),
            )
            by_id[int(row["id"])] = node
            parent = row.get("parent")
            if parent is None:
                roots.append(node)
            else:
                if int(parent) not in by_id:
                    raise ValidationError(
                        f"{path}:{line_number}: span {row['id']} references "
                        f"unknown parent {parent}"
                    )
                by_id[int(parent)].children.append(node)
    return roots


# -- rendering --------------------------------------------------------------------


def render_span_tree(roots: Iterable[Span]) -> str:
    """Human-readable indented tree of spans with durations and attributes.

    One line per span: name, duration in milliseconds, then the
    attributes as ``key=value`` pairs; failed spans are marked
    ``[error]``.
    """
    lines: list[str] = []

    def visit(node: Span, depth: int) -> None:
        duration = "?" if node.duration is None else f"{node.duration * 1e3:.1f}ms"
        attrs = " ".join(f"{k}={v}" for k, v in node.attributes.items())
        flag = " [error]" if node.error else ""
        suffix = f"  {attrs}" if attrs else ""
        lines.append(f"{'  ' * depth}{node.name}  {duration}{flag}{suffix}")
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


@dataclass(frozen=True)
class SpanNameTotals:
    """Every span of one name, summed (see :func:`span_name_totals`)."""

    name: str
    count: int
    total: float
    self_time: float


def span_name_totals(roots: Iterable[Span]) -> list[SpanNameTotals]:
    """Count, total duration and self time per span name, largest self
    time first (ties by name).

    A span's self time is its duration minus its children's durations,
    so the self times of all names add up to the roots' durations.  A
    span still open counts as zero seconds.
    """
    totals: dict[str, tuple[int, float, float]] = {}
    for root in roots:
        for node in root.iter_spans():
            duration = node.duration or 0.0
            own = duration - sum(child.duration or 0.0 for child in node.children)
            count, total, self_time = totals.get(node.name, (0, 0.0, 0.0))
            totals[node.name] = (count + 1, total + duration, self_time + own)
    rows = [
        SpanNameTotals(name, count, total, self_time)
        for name, (count, total, self_time) in totals.items()
    ]
    return sorted(rows, key=lambda row: (-row.self_time, row.name))
