"""The ``repro bench`` micro-suite (BENCH_3.json).

A deterministic benchmark over the vectorized evaluator kernels, the
batched metric builder, and the LP solver path: every case pins
its seed, records wall-clock timings *and* a checksum of the computed
values, and the CLI writes the whole report as ``BENCH_3.json``.  Result
values are reproducible run-to-run (same seed, same libraries); timings
naturally are not, so consumers must treat ``*_seconds`` / ``speedup``
fields as informational only — the regression tests assert the values
and checksums, never the timings.

Report schema (version 3)
-------------------------

Version 2 added a top-level ``"telemetry"`` block — the
:mod:`repro.obs` counter deltas and wall time of the whole run.  Like
the timing fields it is run-dependent (the determinism tests strip it).
Version 3 adds the required ``serve_qps`` case: query throughput and
tail latency of the :mod:`repro.serve` snapshot cache.

::

    {
      "schema_version": 3,
      "quick": bool,          # --quick mode (fewer repeats)
      "seed": int,            # RNG seed for the generated networks
      "telemetry": {
        "wall_seconds": float,
        "metrics": {str: float},    # counter deltas, e.g. "lp.solve.count"
      },
      "cases": {
        "average_max_delay": {
          "network": str, "system": str, "clients": int,
          "value": float, "checksum": str,
          "vectorized_seconds": float, "reference_seconds": float,
          "speedup": float,
        },
        "average_total_delay": { same fields },
        "node_loads": {
          "network": str, "system": str,
          "capacity_violation_factor": float, "checksum": str,
          "vectorized_seconds": float, "reference_seconds": float,
          "speedup": float,
        },
        "metric_batched": {
          "network": str, "nodes": int, "checksum": str,
          "batched_seconds": float, "scalar_seconds": float,
          "speedup": float, "cache_builds": int, "cache_hits": int,
        },
        "ssqpp_solve": {
          "network": str, "system": str, "source": str,
          "lp_value": float, "delay": float, "checksum": str,
          "solve_seconds": float,
        },
        "serve_qps": {
          "network": str, "system": str, "queries": int,
          "value": float,             # mean served delay (deterministic)
          "checksum": str,
          "qps": float,               # batched queries answered per second
          "p99_seconds": float,       # per-request p99 (single-request ticks)
        },
        "qpp_sweep": {
          "network": str, "system": str, "candidates": int,
          "average_delay": float, "lower_bound": float, "checksum": str,
          "sweep_seconds": float,
        },
        # optional, written by ``repro bench --large`` only:
        "qpp_lazy_large": {
          "network": str, "nodes": int, "candidates": int,
          "average_delay": float, "metric_builds": int, "row_misses": int,
          "row_peak": int, "pruned": int, "checksum": str,
          "solve_seconds": float,
        },
      },
    }

Checksums are sha256 over the JSON encoding of the case's result values
rounded to 9 decimals (timings excluded), so two runs agree bit-for-bit
whenever the numerics agree to ~1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_integer_in_range, require
from ..core.placement import (
    average_max_delay,
    average_max_delay_reference,
    average_total_delay,
    average_total_delay_reference,
    capacity_violation_factor,
    capacity_violation_factor_reference,
    make_placement,
    node_loads,
    node_loads_reference,
)
from ..core.qpp import solve_qpp
from ..core.ssqpp import solve_ssqpp
from ..exceptions import ValidationError
from ..network.generators import (
    grid_network,
    random_geometric_network,
    uniform_capacities,
)
from ..network.graph import Network
from ..network.metric import dijkstra, dijkstra_batched
from ..obs.metrics import telemetry_scope
from ..obs.trace import span
from ..quorums.grid import grid
from ..quorums.majority import majority
from ..quorums.strategy import AccessStrategy
from ..serve import PlacementService, serve_request

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchComparison",
    "BenchDelta",
    "DEFAULT_NOISE_BAND",
    "compare_bench_reports",
    "render_bench_comparison_markdown",
    "render_bench_comparison_text",
    "run_bench",
    "validate_bench_report",
]

BENCH_SCHEMA_VERSION = 3

#: Required keys per case, beyond the timing fields.
_CASE_VALUE_KEYS = {
    "average_max_delay": ("network", "system", "clients", "value", "checksum"),
    "average_total_delay": ("network", "system", "clients", "value", "checksum"),
    "node_loads": ("network", "system", "capacity_violation_factor", "checksum"),
    "metric_batched": ("network", "nodes", "checksum", "cache_builds", "cache_hits"),
    "ssqpp_solve": ("network", "system", "source", "lp_value", "delay", "checksum"),
    "qpp_sweep": (
        "network",
        "system",
        "candidates",
        "average_delay",
        "lower_bound",
        "checksum",
    ),
    "serve_qps": ("network", "system", "queries", "value", "checksum"),
}

_CASE_TIMING_KEYS = {
    "average_max_delay": ("vectorized_seconds", "reference_seconds", "speedup"),
    "average_total_delay": ("vectorized_seconds", "reference_seconds", "speedup"),
    "node_loads": ("vectorized_seconds", "reference_seconds", "speedup"),
    "metric_batched": ("batched_seconds", "scalar_seconds", "speedup"),
    "ssqpp_solve": ("solve_seconds",),
    "qpp_sweep": ("sweep_seconds",),
    "serve_qps": ("qps", "p99_seconds"),
}

#: Cases that only appear in some reports (e.g. ``repro bench --large``).
#: Validated when present; a report without them is still complete, and
#: the trajectory comparison treats one-sided presence as a note — a new
#: series is not a regression.
_OPTIONAL_CASE_VALUE_KEYS = {
    "qpp_lazy_large": (
        "network",
        "nodes",
        "candidates",
        "average_delay",
        "metric_builds",
        "row_misses",
        "row_peak",
        "pruned",
        "checksum",
    ),
}

_OPTIONAL_CASE_TIMING_KEYS = {
    "qpp_lazy_large": ("solve_seconds",),
}


def _checksum(values) -> str:
    """sha256 of the JSON encoding of *values*, floats rounded to 9 dp."""

    def _round(obj):
        if isinstance(obj, float):
            return round(obj, 9)
        if isinstance(obj, dict):
            return {str(k): _round(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
        if isinstance(obj, (list, tuple)):
            return [_round(v) for v in obj]
        return obj

    payload = json.dumps(_round(values), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _best_of(repeats: int, fn) -> tuple[float, object]:
    """Run *fn* ``repeats`` times; return (best wall-clock, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _evaluator_network(seed: int) -> Network:
    rng = np.random.default_rng(seed)
    network = random_geometric_network(100, 0.25, rng=rng)
    return uniform_capacities(network, 2.0)


def run_bench(
    *,
    quick: bool = True,
    seed: int = 0,
    large: bool = False,
    large_nodes: int = 10_000,
) -> dict:
    """Run the deterministic micro-suite and return the report dict.

    ``quick`` trims the repeat count (CI mode); result values and
    checksums are identical either way because every case is seeded.

    ``large`` additionally runs the optional ``qpp_lazy_large`` case: a
    full QPP solve on a ``large_nodes``-node geometric graph through the
    lazy-metric path, with a hard assertion — enforced via the
    :mod:`repro.obs` metric-cache counters — that no dense ``n x n``
    matrix was ever built.
    """
    check_integer_in_range(seed, "seed", low=0)
    check_integer_in_range(large_nodes, "large_nodes", low=1)
    repeats = 1 if quick else 3
    cases: dict[str, dict] = {}

    with telemetry_scope() as telemetry, span("bench.run", quick=quick, seed=seed):
        _run_cases(cases, repeats=repeats, seed=seed)
        if large:
            _run_large_case(cases, seed=seed, nodes=large_nodes)

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "quick": bool(quick),
        "seed": int(seed),
        "telemetry": telemetry.snapshot.as_dict(),
        "cases": cases,
    }


def _run_cases(cases: dict[str, dict], *, repeats: int, seed: int) -> None:
    # -- evaluator kernels: 100-node geometric network, Grid(10) system ----------
    network = _evaluator_network(seed)
    system = grid(10)
    strategy = AccessStrategy.uniform(system)
    placement = make_placement(system, network, list(network.nodes))

    vec_seconds, vec_value = _best_of(
        repeats, lambda: average_max_delay(placement, strategy)
    )
    ref_seconds, ref_value = _best_of(
        repeats, lambda: average_max_delay_reference(placement, strategy)
    )
    require(
        abs(vec_value - ref_value) <= 1e-9 * max(1.0, abs(ref_value)),
        "vectorized and reference average_max_delay disagree",
    )
    cases["average_max_delay"] = {
        "network": network.name,
        "system": "grid(10)",
        "clients": network.size,
        "value": float(vec_value),
        "checksum": _checksum(float(vec_value)),
        "vectorized_seconds": vec_seconds,
        "reference_seconds": ref_seconds,
        "speedup": ref_seconds / vec_seconds if vec_seconds > 0 else float("inf"),
    }

    vec_seconds, vec_value = _best_of(
        repeats, lambda: average_total_delay(placement, strategy)
    )
    ref_seconds, ref_value = _best_of(
        repeats, lambda: average_total_delay_reference(placement, strategy)
    )
    require(
        abs(vec_value - ref_value) <= 1e-9 * max(1.0, abs(ref_value)),
        "vectorized and reference average_total_delay disagree",
    )
    cases["average_total_delay"] = {
        "network": network.name,
        "system": "grid(10)",
        "clients": network.size,
        "value": float(vec_value),
        "checksum": _checksum(float(vec_value)),
        "vectorized_seconds": vec_seconds,
        "reference_seconds": ref_seconds,
        "speedup": ref_seconds / vec_seconds if vec_seconds > 0 else float("inf"),
    }

    vec_seconds, vec_loads = _best_of(
        repeats, lambda: node_loads(placement, strategy)
    )
    ref_seconds, ref_loads = _best_of(
        repeats, lambda: node_loads_reference(placement, strategy)
    )
    require(
        all(abs(vec_loads[v] - ref_loads.get(v, 0.0)) <= 1e-9 for v in vec_loads),
        "vectorized and reference node_loads disagree",
    )
    factor = capacity_violation_factor(placement, strategy)
    require(
        abs(factor - capacity_violation_factor_reference(placement, strategy))
        <= 1e-9 * max(1.0, abs(factor)),
        "vectorized and reference capacity_violation_factor disagree",
    )
    cases["node_loads"] = {
        "network": network.name,
        "system": "grid(10)",
        "capacity_violation_factor": float(factor),
        "checksum": _checksum(
            {str(node): load for node, load in vec_loads.items()}
        ),
        "vectorized_seconds": vec_seconds,
        "reference_seconds": ref_seconds,
        "speedup": ref_seconds / vec_seconds if vec_seconds > 0 else float("inf"),
    }

    # -- metric: batched all-pairs vs per-source scalar Dijkstra -----------------
    adjacency = network.adjacency
    batched_seconds, matrix = _best_of(
        repeats, lambda: dijkstra_batched(adjacency)
    )
    scalar_seconds, _ = _best_of(
        1, lambda: [dijkstra(adjacency, u) for u in network.nodes]
    )
    cache_info = network.metric_cache_info()
    cases["metric_batched"] = {
        "network": network.name,
        "nodes": network.size,
        "checksum": _checksum(float(np.sum(matrix))),
        "batched_seconds": batched_seconds,
        "scalar_seconds": scalar_seconds,
        "speedup": scalar_seconds / batched_seconds
        if batched_seconds > 0
        else float("inf"),
        "cache_builds": cache_info.builds,
        "cache_hits": cache_info.hits,
    }

    # -- one SSQPP solve (LP build, HiGHS, filtering, GAP rounding) --------------
    ssqpp_network = grid_network(3, 3).with_capacities(2.0)
    ssqpp_system = majority(5)
    ssqpp_strategy = AccessStrategy.uniform(ssqpp_system)
    source = ssqpp_network.nodes[0]
    solve_seconds, ssqpp_result = _best_of(
        repeats,
        lambda: solve_ssqpp(
            ssqpp_system, ssqpp_strategy, network=ssqpp_network, source=source
        ),
    )
    cases["ssqpp_solve"] = {
        "network": ssqpp_network.name,
        "system": "majority(5)",
        "source": str(source),
        "lp_value": float(ssqpp_result.lp_value),
        "delay": float(ssqpp_result.delay),
        "checksum": _checksum(
            [float(ssqpp_result.lp_value), float(ssqpp_result.delay)]
        ),
        "solve_seconds": solve_seconds,
    }

    # -- QPP sweep: every candidate builds and solves its own LP -----------------
    sweep_seconds, qpp_result = _best_of(
        1, lambda: solve_qpp(ssqpp_system, ssqpp_strategy, network=ssqpp_network)
    )
    cases["qpp_sweep"] = {
        "network": ssqpp_network.name,
        "system": "majority(5)",
        "candidates": len(qpp_result.per_source),
        "average_delay": float(qpp_result.objective),
        "lower_bound": float(qpp_result.optimum_lower_bound),
        "checksum": _checksum(
            [float(qpp_result.objective), float(qpp_result.optimum_lower_bound)]
        ),
        "sweep_seconds": sweep_seconds,
    }

    # -- serving: snapshot-cache query throughput (repro.serve) ------------------
    # Queries are answered from the versioned snapshot's precomputed
    # per-client vector, so the served values are deterministic (the
    # checksum) while qps / p99 measure the cache's read path.  Phase 1
    # drives full batches for throughput; phase 2 ticks one request at a
    # time so the p99 is a true per-request latency.
    service = PlacementService(
        majority(5),
        AccessStrategy.uniform(majority(5)),
        network,
        drift_threshold=float("inf"),
        max_batch=64,
        queue_limit=8192,
        scale="large",
        landmarks=8,
    )
    serve_rng = np.random.default_rng(seed)
    clients = [
        network.nodes[int(serve_rng.integers(0, network.size))]
        for _ in range(1024)
    ]
    documents = [
        serve_request("query", id=index, client=client)
        for index, client in enumerate(clients)
    ]
    delays: list[float] = []
    started = time.perf_counter()
    for start in range(0, len(documents), service.max_batch):
        for document in documents[start : start + service.max_batch]:
            service.submit(document)
        delays.extend(response["delay"] for response in service.tick())
    elapsed = time.perf_counter() - started
    latencies = []
    for index, client in enumerate(clients[:256]):
        document = serve_request("query", id=f"lat-{index}", client=client)
        tick_start = time.perf_counter()
        service.submit(document)
        service.tick()
        latencies.append(time.perf_counter() - tick_start)
    latencies.sort()
    p99 = latencies[max(0, math.ceil(0.99 * len(latencies)) - 1)]
    mean_delay = float(np.mean(delays))
    cases["serve_qps"] = {
        "network": network.name,
        "system": "majority(5)",
        "queries": len(documents) + len(latencies),
        "value": mean_delay,
        "checksum": _checksum(mean_delay),
        "qps": len(documents) / elapsed if elapsed > 0 else float("inf"),
        "p99_seconds": p99,
    }


def _run_large_case(cases: dict[str, dict], *, seed: int, nodes: int) -> None:
    """The optional ``qpp_lazy_large`` case: QPP at 10^4 nodes, lazily.

    Solves QPP on a *nodes*-node random geometric graph with
    ``scale="large"`` and asserts — through the metric-cache telemetry —
    that the dense all-pairs matrix was never materialized: zero
    ``Metric`` builds, and a row-cache peak far below ``n``.
    """
    from ..obs.metrics import gauge

    rng = np.random.default_rng(seed)
    # Radius ~2x the connectivity threshold sqrt(ln n / (pi n)) keeps the
    # instance connected (modulo the generator's union-find patch) while
    # the graph stays sparse.
    radius = 2.0 * float(np.sqrt(np.log(max(nodes, 2)) / (np.pi * nodes)))
    network = uniform_capacities(
        random_geometric_network(nodes, radius, rng=rng), 2.0
    )
    system = majority(5)
    strategy = AccessStrategy.uniform(system)

    solve_seconds, result = _best_of(
        1,
        lambda: solve_qpp(system, strategy, network=network, scale="large"),
    )
    cache = network.metric_cache_info()
    row_peak = float(gauge("metric.cache.row_peak").value)
    require(
        cache.builds == 0,
        "qpp_lazy_large materialized a dense metric "
        f"({cache.builds} build(s)) — the lazy path must never do that",
    )
    require(
        row_peak < network.size,
        f"qpp_lazy_large cached {row_peak:g} rows, not << n={network.size}",
    )
    pruned = result.telemetry.metrics.get("qpp.prune.skipped", 0.0)
    cases["qpp_lazy_large"] = {
        "network": network.name,
        "nodes": network.size,
        "candidates": len(result.per_source),
        "average_delay": float(result.objective),
        "metric_builds": int(cache.builds),
        "row_misses": int(cache.row_misses),
        "row_peak": int(row_peak),
        "pruned": int(pruned),
        "checksum": _checksum(float(result.objective)),
        "solve_seconds": solve_seconds,
    }


def validate_bench_report(report: dict) -> None:
    """Raise :class:`ValidationError` unless *report* matches schema v3."""
    require(isinstance(report, dict), "report must be a dict")
    for key in ("schema_version", "quick", "seed", "telemetry", "cases"):
        if key not in report:
            raise ValidationError(f"bench report is missing key {key!r}")
    if report["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported bench schema version {report['schema_version']!r}"
        )
    telemetry = report["telemetry"]
    require(isinstance(telemetry, dict), "report['telemetry'] must be a dict")
    for key in ("wall_seconds", "metrics"):
        if key not in telemetry:
            raise ValidationError(f"telemetry block is missing key {key!r}")
    require(
        isinstance(telemetry["metrics"], dict),
        "telemetry['metrics'] must be a dict",
    )
    cases = report["cases"]
    require(isinstance(cases, dict), "report['cases'] must be a dict")
    for name in _CASE_VALUE_KEYS:
        if name not in cases:
            raise ValidationError(f"bench report is missing case {name!r}")
    for name, value_keys in _CASE_VALUE_KEYS.items():
        _validate_case(name, cases[name], value_keys, _CASE_TIMING_KEYS[name])
    # Optional cases (e.g. ``--large``) are validated only when present.
    for name, value_keys in _OPTIONAL_CASE_VALUE_KEYS.items():
        if name in cases:
            _validate_case(
                name, cases[name], value_keys, _OPTIONAL_CASE_TIMING_KEYS[name]
            )


def _validate_case(
    name: str, case: object, value_keys: tuple, timing_keys: tuple
) -> None:
    require(isinstance(case, dict), f"case {name!r} must be a dict")
    assert isinstance(case, dict)
    for key in value_keys + timing_keys:
        if key not in case:
            raise ValidationError(f"case {name!r} is missing key {key!r}")
    checksum = case["checksum"]
    require(
        isinstance(checksum, str) and len(checksum) == 64,
        f"case {name!r} has a malformed checksum",
    )


# ---------------------------------------------------------------------------
# Trajectory comparison (``repro bench --compare``)
# ---------------------------------------------------------------------------

#: Default tolerated timing noise: a metric must move by more than 25%
#: before the comparison calls it a regression or an improvement.
DEFAULT_NOISE_BAND = 0.25

#: Timing metrics where *lower* is better; everything else in
#: :data:`_CASE_TIMING_KEYS` (the ``speedup`` fields) is higher-is-better.
_LOWER_IS_BETTER_SUFFIX = "_seconds"


@dataclass(frozen=True)
class BenchDelta:
    """One timing metric compared across two bench reports."""

    case: str
    metric: str
    old: float
    new: float
    ratio: float  # new / old
    verdict: str  # "ok" | "improved" | "regression"


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of :func:`compare_bench_reports`."""

    noise_band: float
    deltas: tuple[BenchDelta, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def regressions(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.verdict == "regression")

    @property
    def improvements(self) -> tuple[BenchDelta, ...]:
        return tuple(d for d in self.deltas if d.verdict == "improved")


def _metric_verdict(metric: str, ratio: float, noise_band: float) -> str:
    """Classify ``ratio = new/old`` for one metric under the noise band."""
    worse = 1.0 + noise_band
    better = 1.0 / worse
    if metric.endswith(_LOWER_IS_BETTER_SUFFIX):
        if ratio > worse:
            return "regression"
        if ratio < better:
            return "improved"
        return "ok"
    # speedup-style metrics: higher is better, so the band mirrors.
    if ratio < better:
        return "regression"
    if ratio > worse:
        return "improved"
    return "ok"


def compare_bench_reports(
    old: dict, new: dict, *, noise_band: float = DEFAULT_NOISE_BAND
) -> BenchComparison:
    """Compare two bench reports' timing trajectories.

    Both reports are validated against schema v2 first.  Every timing
    metric in :data:`_CASE_TIMING_KEYS` is compared as ``new / old``:
    ``*_seconds`` fields are lower-is-better, ``speedup`` fields are
    higher-is-better, and a move within ``1 + noise_band`` either way is
    "ok".  Checksum drift and quick/seed mismatches become *notes*, not
    regressions — timings are machine-dependent, so a CI comparison
    against a committed baseline must tolerate a different host while
    still catching order-of-magnitude trajectory breaks.
    """
    require(
        isinstance(noise_band, (int, float)) and noise_band >= 0.0,
        "noise_band must be a non-negative number",
    )
    validate_bench_report(old)
    validate_bench_report(new)

    notes: list[str] = []
    if bool(old["quick"]) != bool(new["quick"]):
        notes.append(
            f"quick-mode mismatch: old quick={old['quick']}, "
            f"new quick={new['quick']} (repeat counts differ)"
        )
    if int(old["seed"]) != int(new["seed"]):
        notes.append(
            f"seed mismatch: old seed={old['seed']}, new seed={new['seed']} "
            "(cases ran on different instances)"
        )

    deltas: list[BenchDelta] = []
    all_timing_keys = {**_CASE_TIMING_KEYS, **_OPTIONAL_CASE_TIMING_KEYS}
    for case_name, timing_keys in all_timing_keys.items():
        in_old = case_name in old["cases"]
        in_new = case_name in new["cases"]
        if not in_old and not in_new:
            continue
        if in_old != in_new:
            # A series present on only one side is new (or retired), not
            # a regression: the ratchet keeps working across the commit
            # that introduces an optional case.
            side = "new" if in_new else "old"
            notes.append(
                f"case {case_name!r}: only in the {side} report "
                "(new series, not compared)"
            )
            continue
        old_case = old["cases"][case_name]
        new_case = new["cases"][case_name]
        if old_case["checksum"] != new_case["checksum"]:
            notes.append(
                f"case {case_name!r}: checksum drift (result values "
                "changed between reports)"
            )
        for metric in timing_keys:
            old_value = float(old_case[metric])
            new_value = float(new_case[metric])
            if not (old_value > 0.0) or not (new_value > 0.0):
                notes.append(
                    f"case {case_name!r}: skipped {metric} "
                    f"(non-positive value: old={old_value}, new={new_value})"
                )
                continue
            ratio = new_value / old_value
            deltas.append(
                BenchDelta(
                    case=case_name,
                    metric=metric,
                    old=old_value,
                    new=new_value,
                    ratio=ratio,
                    verdict=_metric_verdict(metric, ratio, float(noise_band)),
                )
            )
    return BenchComparison(
        noise_band=float(noise_band), deltas=tuple(deltas), notes=tuple(notes)
    )


def _format_value(metric: str, value: float) -> str:
    if metric.endswith(_LOWER_IS_BETTER_SUFFIX):
        return f"{value:.6f}s"
    return f"{value:.2f}x"


def render_bench_comparison_text(comparison: BenchComparison) -> str:
    """Human-readable comparison summary for the terminal."""
    lines = [f"bench comparison (noise band ±{comparison.noise_band:.0%})"]
    for delta in comparison.deltas:
        marker = {"regression": "!!", "improved": "++", "ok": "  "}[delta.verdict]
        lines.append(
            f"{marker} {delta.case}.{delta.metric}: "
            f"{_format_value(delta.metric, delta.old)} -> "
            f"{_format_value(delta.metric, delta.new)} "
            f"(x{delta.ratio:.2f}, {delta.verdict})"
        )
    for note in comparison.notes:
        lines.append(f"note: {note}")
    regressions = comparison.regressions
    if regressions:
        lines.append(
            f"{len(regressions)} regression(s) beyond the noise band"
        )
    else:
        lines.append("no regressions beyond the noise band")
    return "\n".join(lines)


def render_bench_comparison_markdown(comparison: BenchComparison) -> str:
    """Speedup-history table for docs and CI summaries."""
    lines = [
        f"Noise band: ±{comparison.noise_band:.0%}",
        "",
        "| case | metric | old | new | ratio | verdict |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for delta in comparison.deltas:
        lines.append(
            f"| {delta.case} | {delta.metric} "
            f"| {_format_value(delta.metric, delta.old)} "
            f"| {_format_value(delta.metric, delta.new)} "
            f"| x{delta.ratio:.2f} | {delta.verdict} |"
        )
    for note in comparison.notes:
        lines.append(f"- note: {note}")
    return "\n".join(lines)
