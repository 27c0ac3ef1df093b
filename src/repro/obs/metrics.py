"""Process-wide metrics: counters, gauges, and histograms.

Unlike spans (sampled only while a collector is installed), metrics are
always on: a counter increment is a float addition on a long-lived
object, cheap enough for the hot paths to pay unconditionally.  Hot
modules cache the metric object at import time::

    _LP_SOLVES = counter("lp.solve.count")
    ...
    _LP_SOLVES.inc()

:meth:`MetricsRegistry.reset` zeroes metrics **in place**, so cached
references stay valid across the test suite's per-test reset — the same
contract the old ``repro.network.graph`` aggregate counters had, now
provided by a single registry (which this module's default instance
is; the legacy ``metric_cache_info()`` reads through it).

:func:`telemetry_scope` measures one region of work: it snapshots the
counters, times the block, and exposes the deltas as an immutable
:class:`TelemetrySnapshot` — the ``telemetry`` handle attached to
:class:`repro.core.results.SolveResult`.

The default registry is **fork-aware**: an ``os.register_at_fork`` hook
zeroes it in every forked child, so pooled workers (see
``solve_qpp(parallel="process")``) start from clean counters instead of
inheriting — and re-reporting — the parent's totals.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetrySnapshot",
    "TelemetryHandle",
    "default_registry",
    "counter",
    "gauge",
    "histogram",
    "telemetry_scope",
]

_NAME_PATTERN = re.compile(r"^[a-z0-9_.]+$")


def _check_name(name: str) -> str:
    if not _NAME_PATTERN.match(name):
        raise ValidationError(
            f"metric name {name!r} must match {_NAME_PATTERN.pattern!r} "
            "(lowercase dotted words, e.g. 'lp.solve.count')"
        )
    return name


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the total."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc({amount!r}))"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value!r})"


class Gauge:
    """A point-in-time level (last value wins)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value!r})"


#: Sample-reservoir capacity per histogram.  Reaching it halves the
#: retained samples and doubles the keep-stride, so memory stays bounded
#: while coverage stays spread evenly over the whole observation stream.
_RESERVOIR_LIMIT = 512


class Histogram:
    """Streaming summary of observed values (count/total/min/max).

    The aggregate state is O(1); quantile estimates come from a bounded
    *deterministic* sample reservoir (stride decimation, no RNG): every
    ``stride``-th observation is retained, and when the reservoir fills
    it drops every other sample and doubles the stride.  Identical
    observation streams therefore always yield identical
    :meth:`quantile` answers — replayable, unlike random reservoirs.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "minimum",
        "maximum",
        "_samples",
        "_stride",
        "_skip",
    )

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: list[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self._skip == 0:
            self._samples.append(value)
            if len(self._samples) >= _RESERVOIR_LIMIT:
                # Deterministic decimation: keep every other sample.
                self._samples = self._samples[::2]
                self._stride *= 2
            self._skip = self._stride - 1
        else:
            self._skip -= 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained reservoir samples.

        ``q`` is a fraction in ``[0, 1]`` (``0.99`` for p99).  Exact
        while fewer than ``_RESERVOIR_LIMIT`` values have been observed;
        an evenly-strided estimate afterwards.  Returns 0.0 when the
        histogram is empty (mirroring :attr:`mean`).
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(
                f"quantile fraction must be in [0, 1], got {q!r}"
            )
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[index]

    def summary(self) -> dict[str, float]:
        """JSON-ready ``count/total/mean/min/max`` (min/max omitted empty)."""
        result: dict[str, float] = {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
        }
        if self.count:
            result["min"] = self.minimum
            result["max"] = self.maximum
        return result

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples.clear()
        self._stride = 1
        self._skip = 0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count!r})"


class MetricsRegistry:
    """Named metrics, created on first access and reset in place.

    One process-wide :func:`default_registry` instance backs the module
    conveniences (:func:`counter` / :func:`gauge` / :func:`histogram`);
    independent registries exist only for tests.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def counter_values(self) -> dict[str, float]:
        """Flat name → value snapshot of every counter."""
        return {name: metric.value for name, metric in self._counters.items()}

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of everything registered."""
        return {
            "counters": dict(sorted(self.counter_values().items())),
            "gauges": {
                name: metric.value for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.summary()
                for name, metric in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every metric **in place** (cached references stay valid)."""
        for counter_metric in self._counters.values():
            counter_metric.reset()
        for gauge_metric in self._gauges.values():
            gauge_metric.reset()
        for histogram_metric in self._histograms.values():
            histogram_metric.reset()


_DEFAULT = MetricsRegistry()


def _reset_default_after_fork() -> None:
    """Zero the default registry in a freshly forked child.

    A forked worker inherits the parent's counter totals by value; left
    alone, every child would re-report work the parent already counted,
    and a pooled solve would see its own cost inflated by whatever ran
    before the fork.  Resetting in the child keeps each process's
    telemetry attributable to its own work — this is what makes
    ``writes-metrics`` a parallel-safe effect in the R400 certificate
    (child-side increments stay in the child; they never merge back into
    the parent's registry).
    """
    _DEFAULT.reset()


if hasattr(os, "register_at_fork"):  # POSIX; no-op surface elsewhere
    os.register_at_fork(after_in_child=_reset_default_after_fork)


def default_registry() -> MetricsRegistry:
    """The process-wide registry used by all library instrumentation."""
    return _DEFAULT


def counter(name: str) -> Counter:
    """Get-or-create a counter in the default registry."""
    return _DEFAULT.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge in the default registry."""
    return _DEFAULT.gauge(name)


def histogram(name: str) -> Histogram:
    """Get-or-create a histogram in the default registry."""
    return _DEFAULT.histogram(name)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable cost record of one region of work.

    ``metrics`` holds the counter *deltas* accrued during the region
    (zero-delta counters omitted); ``wall_seconds`` the region's
    wall-clock time.  This is the ``telemetry`` handle carried by
    :class:`repro.core.results.SolveResult`.
    """

    wall_seconds: float
    metrics: Mapping[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "metrics": dict(sorted(self.metrics.items())),
        }


class TelemetryHandle:
    """Mutable cell yielded by :func:`telemetry_scope`; the snapshot is
    filled in when the scope exits."""

    __slots__ = ("_snapshot",)

    def __init__(self) -> None:
        self._snapshot: TelemetrySnapshot | None = None

    @property
    def snapshot(self) -> TelemetrySnapshot | None:
        """The finished :class:`TelemetrySnapshot` (``None`` inside the scope)."""
        return self._snapshot


@contextmanager
def telemetry_scope(
    registry: MetricsRegistry | None = None,
) -> Iterator[TelemetryHandle]:
    """Measure a region: counter deltas + wall time, even on exceptions::

        with telemetry_scope() as tel:
            ...solve...
        result = SolveResult(..., telemetry=tel.snapshot)
    """
    reg = registry if registry is not None else _DEFAULT
    handle = TelemetryHandle()
    before = reg.counter_values()
    start = perf_counter()
    try:
        yield handle
    finally:
        wall = perf_counter() - start
        deltas = {
            name: value - before.get(name, 0.0)
            for name, value in reg.counter_values().items()
            if value != before.get(name, 0.0)
        }
        handle._snapshot = TelemetrySnapshot(wall_seconds=wall, metrics=deltas)
