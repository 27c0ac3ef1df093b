"""The three workloads: ``sweep_dense``, ``sweep_large`` and ``serve_drift``.

Every input the program receives is generated from the run seed.  Each
workload returns a :class:`Run`: operations attempted and failed, the
end-to-end metrics (untraced) or the per-layer metrics (traced), and
the values that must repeat exactly for the same code and seed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter
from typing import Any

import numpy as np

import checks
import layers
from host import HostSpeed
from repro import AccessStrategy
from repro.core import qpp
from repro.core.placement import average_max_delay_reference
from repro.network import random_geometric_network
from repro.obs import trace
from repro.obs.metrics import default_registry
from repro.quorums import grid, majority
from repro.serve import PlacementService, engine, serve_request

#: Candidates of a warm re-solve, as ``repro serve`` uses them.
WARM_LIMIT = 4

#: Rate step of one ``serve_drift`` demand update.
RATE_STEP = 0.5


@dataclass
class Run:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Values that must be identical across runs of the same code and seed.
    steady: dict[str, float] = field(default_factory=dict)
    roots: list[trace.Span] = field(default_factory=list)
    table: str = ""
    #: Timings as measured, before scaling to the reference host speed.
    raw: dict[str, float] = field(default_factory=dict)

    def count(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems += problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the largest sample when fewer than
    ``1 / (1 - q)`` samples exist)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered), int(np.ceil(q * len(ordered)))) - 1)]


def median_tail(segments: list[list[float]]) -> float:
    """The p99.9 of each segment of a run, median over the segments: a
    tail that one slow stretch of the host does not set on its own."""
    return median([percentile(segment, 0.999) for segment in segments if segment])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def call_times(module: Any, name: str, samples: list[float]) -> Iterator[None]:
    """Append the wall time of every call of ``module.name`` to *samples*."""
    original = getattr(module, name)

    def timed(*args: Any, **kwargs: Any) -> Any:
        started = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(perf_counter() - started)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def scaled_timings(
    run: Run, host: HostSpeed, timings: dict[str, tuple[float, str]], label: str = "host"
) -> None:
    """Report *timings* at the reference host speed, keeping the raw values."""
    scale = host.scale()
    run.raw.update({name: value for name, (value, _) in timings.items()})
    run.raw[f"{label}.scale"] = scale
    run.raw[f"{label}.samples"] = len(host.samples)
    run.metrics.update({name: (value * scale, unit) for name, (value, unit) in timings.items()})


def counter_values() -> dict[str, float]:
    return default_registry().counter_values()


def counter_delta(before: dict[str, float], name: str) -> float:
    return counter_values().get(name, 0.0) - before.get(name, 0.0)


def layer_metrics(
    summary: layers.Rollup,
    wall: float,
    counters: dict[str, float],
    extra: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from a rollup of the traced spans."""
    highs = summary.name("lp.highs")
    attach = summary.name("ssqpp.attach")
    base = summary.name("ssqpp.base")
    dijkstra = summary.name("network.dijkstra")
    hits = counters.get("metric.cache.row_hits", 0.0)
    misses = counters.get("metric.cache.row_misses", 0.0)
    candidates = summary.sum_of("qpp.solve_qpp", "candidates")
    ticks = summary.name("serve.tick")
    values = {
        "lp.highs_s": (highs.total, "s"),
        "lp.compile_s": (summary.layer("lp").self_time - highs.self_time, "s"),
        "lp.solves": (highs.count, "count"),
        "lp.iterations": (summary.sum_of("lp.highs", "iterations"), "count"),
        "lp.nonzeros": (summary.sum_of("lp.highs", "nonzeros"), "count"),
        "ssqpp.attach_s": (attach.self_time, "s"),
        "ssqpp.base_s": (base.self_time, "s"),
        "ssqpp.self_s": (
            summary.layer("core.ssqpp").self_time - attach.self_time - base.self_time,
            "s",
        ),
        "ssqpp.calls": (summary.name("ssqpp.solve_ssqpp").count, "count"),
        "network.dijkstra_s": (dijkstra.total, "s"),
        "network.dijkstra_calls": (dijkstra.count, "count"),
        "network.dijkstra_rows": (summary.sum_of("network.dijkstra", "rows"), "count"),
        "network.lazy_init_s": (summary.name("network.lazy_init").total, "s"),
        "network.landmarks_s": (summary.name("network.landmarks").total, "s"),
        "network.row_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "gap.round_s": (summary.name("gap.round").total, "s"),
        "gap.round_calls": (summary.name("gap.round").count, "count"),
        "placement.eval_s": (summary.layer("core.placement").self_time, "s"),
        "placement.eval_calls": (
            sum(row.count for key, row in summary.names.items() if key.startswith("placement.")),
            "count",
        ),
        "qpp.self_s": (summary.layer("core.qpp").self_time, "s"),
        "qpp.candidates": (candidates, "count"),
        "qpp.prune_skip_ratio": (
            counters.get("qpp.prune.skipped", 0.0) / candidates if candidates else 0.0,
            "ratio",
        ),
        "serve.submit_s": (summary.name("serve.submit").total, "s"),
        "serve.query_tick_s": (summary.ticks_without_resolve.total, "s"),
        "serve.queue_wait_ms": (extra.get("serve.queue_wait_ms", 0.0), "ms"),
        "serve.resolves": (extra.get("serve.resolves", 0.0), "count"),
        "serve.stale_read_ratio": (extra.get("serve.stale_read_ratio", 0.0), "ratio"),
        "serve.batch_size": (
            ticks.sums.get("batch", 0.0) / ticks.count if ticks.count else 0.0,
            "count",
        ),
        "loadgen.late_max_ms": (extra.get("loadgen.late_max_ms", 0.0), "ms"),
        "trace.overhead_ratio": (extra["trace.overhead_ratio"], "ratio"),
        "trace.coverage": (summary.attributed / wall if wall > 0 else 0.0, "ratio"),
    }
    return {name: (float(value), unit) for name, (value, unit) in values.items()}


#: Per-layer values that must repeat exactly for the same code and seed.
STEADY_LAYER_METRICS = (
    "lp.solves",
    "lp.iterations",
    "lp.nonzeros",
    "network.dijkstra_calls",
    "network.dijkstra_rows",
    "qpp.candidates",
    "qpp.prune_skip_ratio",
    "serve.resolves",
    "serve.stale_read_ratio",
)


def finish_traced(run: Run, wall: float, counters: dict[str, float], extra: dict) -> None:
    summary = layers.rollup(run.roots)
    run.metrics = layer_metrics(summary, wall, counters, extra)
    run.table = layers.render_table(summary, wall)
    for name in STEADY_LAYER_METRICS:
        run.steady[name] = run.metrics[name][0]


def overhead_ratio(call: Callable[[], Any], pairs: int = 5) -> float:
    """Wall time of *call* traced over untraced, median over alternating
    pairs: adjacent samples cancel the drift of a shared host's speed."""
    ratios = []
    for _ in range(pairs):
        started = perf_counter()
        call()
        untraced = perf_counter() - started
        with layers.wrappers_installed(), trace.collect():
            started = perf_counter()
            call()
            ratios.append((perf_counter() - started) / untraced)
    return median(ratios)


def failure(label: str) -> str:
    """One failure message carrying the traceback of the exception being handled."""
    return f"{label} raised:\n{traceback.format_exc()}"


# -- sweeps -------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A sweep workload: ``instances`` seeded networks per run, each solved
    once in full and once warm over the full solve's best candidates."""

    name: str
    system: Callable[[], Any]
    nodes: int
    radius: float
    instances: int
    large: bool

    def network(self, seed: int, instance: int) -> Any:
        """Set-up: generate instance *instance* of the run seed (and, on
        the dense sweep, build its dense metric)."""
        rng = np.random.default_rng(seed * self.instances + instance)
        network = random_geometric_network(self.nodes, self.radius, rng=rng)
        network = network.with_capacities(2.0)
        if not self.large:
            network.metric()
        return network

    @property
    def options(self) -> dict[str, Any]:
        return {"scale": "large"} if self.large else {}

    def expected_candidates(self, network: Any) -> int:
        """Candidates a full sweep tries: every node, or the default 16
        landmarks of ``scale="large"``."""
        return 16 if self.large else network.size


SWEEP_DENSE = Sweep(
    "sweep_dense", lambda: grid(3), nodes=30, radius=0.4, instances=11, large=False
)
SWEEP_LARGE = Sweep(
    "sweep_large",
    lambda: majority(5),
    nodes=5000,
    radius=2.0 * float(np.sqrt(np.log(5000) / (np.pi * 5000))),
    instances=7,
    large=True,
)


class SweepInstance:
    """One generated network with its checked solves."""

    def __init__(
        self, sweep: Sweep, network: Any, strategy: Any, host: HostSpeed | None = None
    ) -> None:
        self.sweep = sweep
        self.network = network
        self.system = strategy.system
        self.strategy = strategy
        self.host = host

    def reference(self, result: Any) -> float:
        """``Avg_v Delta_f(v)`` by an evaluator the solver does not call:
        the paper-literal scalar loop on the dense sweep."""
        if self.sweep.large:
            adjacency = checks.adjacency_of(self.network)
            return checks.large_reference(result, self.strategy, adjacency)
        return average_max_delay_reference(result.placement, self.strategy)

    def solve(self, run: Run, candidates: list | None = None) -> tuple[Any, float]:
        """One timed ``solve_qpp`` call, checked; returns (result, wall)."""
        options = dict(self.sweep.options)
        if candidates is not None:
            options["candidate_sources"] = candidates
        elif self.sweep.large:
            # A one-shot large solve pays for row materialization.
            self.network.metric_cache_clear()
        # No garbage of earlier instances or checks is left pending, so a
        # full collection inside the solve traverses the program's heap only.
        gc.collect()
        if self.host is not None:
            self.host.sample()
        started = perf_counter()
        try:
            result = qpp.solve_qpp(self.system, self.strategy, network=self.network, **options)
        except Exception:  # the run goes on; every candidate of the call failed
            wall = perf_counter() - started
            expected = len(candidates) if candidates else self.sweep.expected_candidates(self.network)
            run.count(expected, [failure("solve_qpp")] * expected)
            return None, wall
        wall = perf_counter() - started
        run.count(len(result.per_source), checks.check_sweep(result, self.reference(result)))
        return result, wall

    def solve_pair(self, run: Run) -> tuple[Any, float, Any, float]:
        """The full sweep, then the warm re-solve over its best candidates,
        as ``repro serve`` re-solves (here under the same uniform demand)."""
        full, full_wall = self.solve(run)
        if full is None:
            return None, full_wall, None, 0.0
        warm, warm_wall = self.solve(run, qpp.warm_candidates(full, limit=WARM_LIMIT))
        return full, full_wall, warm, warm_wall


def run_sweep(sweep: Sweep, seed: int, seconds: float, traced: bool) -> Run:
    strategy = AccessStrategy.uniform(sweep.system())
    return (_traced_sweep if traced else _timed_sweep)(sweep, strategy, seed, seconds)


def _instance(
    sweep: Sweep,
    strategy: Any,
    seed: int,
    instance: int,
    setups: list,
    host: HostSpeed | None = None,
) -> SweepInstance:
    started = perf_counter()
    network = sweep.network(seed, instance)
    setups.append(perf_counter() - started)
    return SweepInstance(sweep, network, strategy, host)


def _timed_sweep(sweep: Sweep, strategy: Any, seed: int, seconds: float) -> Run:
    """Solve the run's instances in turn until *seconds* have passed and
    each was solved at least once."""
    run = Run()
    host = HostSpeed()
    setups: list[float] = []
    solves: list[float] = []
    resolves: list[float] = []
    candidates: list[float] = []
    sweeps: list[list[float]] = []
    objectives: list[float] = []
    counts: dict[str, float] = {}
    started = perf_counter()
    with call_times(qpp, "solve_ssqpp", candidates):
        for step in count():
            instance = step % sweep.instances
            current = _instance(sweep, strategy, seed, instance, setups, host)
            mark = len(candidates)
            full, full_wall, warm, warm_wall = current.solve_pair(run)
            if full is not None:
                sweeps.append(candidates[mark : mark + len(full.per_source)])
            solves.append(full_wall)
            if warm is not None:
                resolves.append(warm_wall)
            if step + 1 == sweep.instances:
                # Later steps repeat networks; the peak is taken over one
                # pass so that it does not grow with the host's speed.
                peak = peak_rss_mb()
            if step < sweep.instances:
                for result in (full, warm):
                    if result is not None:
                        for name, value in result.telemetry.metrics.items():
                            counts[name] = counts.get(name, 0.0) + value
                if full is not None:
                    objectives.append(full.objective)
            if step + 1 >= sweep.instances and perf_counter() - started >= seconds:
                break
    host.sample()
    objective = mean(objectives)
    run.metrics = {"objective": (objective, "distance"), "peak_rss_mb": (peak, "MB")}
    scaled_timings(
        run,
        host,
        {
            "setup_s": (median(setups), "s"),
            "solve_s": (median(solves), "s"),
            "query_p50_ms": (median(candidates) * 1e3, "ms"),
            "query_p999_ms": (median_tail(sweeps) * 1e3, "ms"),
            "resolve_s": (median(resolves), "s"),
        },
    )
    run.steady = {
        "objective": objective,
        "lp.solves": counts.get("lp.solve.count", 0.0),
        "lp.iterations": counts.get("lp.iterations.total", 0.0),
        "qpp.prune.skipped": counts.get("qpp.prune.skipped", 0.0),
    }
    return run


def _traced_sweep(sweep: Sweep, strategy: Any, seed: int, seconds: float) -> Run:
    """Every instance once under the wrappers, after an untraced warm-up on
    instance 0 and the overhead probe on its warm re-solve."""
    run = Run()
    first = _instance(sweep, strategy, seed, 0, [])
    warmup, _, _, _ = first.solve_pair(run)
    ratio = 0.0
    if warmup is not None:
        warm = qpp.warm_candidates(warmup, limit=WARM_LIMIT)
        ratio = overhead_ratio(
            lambda: qpp.solve_qpp(
                first.system, strategy, network=first.network, candidate_sources=warm,
                **sweep.options,
            )
        )
    traced_walls: list[float] = []
    objectives: list[float] = []
    deltas: dict[str, float] = {}
    with layers.wrappers_installed():
        for instance in range(sweep.instances):
            current = first if instance == 0 else _instance(sweep, strategy, seed, instance, [])
            before = counter_values()
            with trace.collect() as collector:
                full, full_wall, _, warm_wall = current.solve_pair(run)
            for name, value in counter_values().items():
                deltas[name] = deltas.get(name, 0.0) + value - before.get(name, 0.0)
            run.roots += collector.roots
            traced_walls += [full_wall, warm_wall]
            if full is not None:
                objectives.append(full.objective)
    finish_traced(
        run,
        sum(traced_walls),
        deltas,
        {"trace.overhead_ratio": ratio},
    )
    run.steady["objective"] = mean(objectives)
    return run


# -- serve --------------------------------------------------------------------------

#: Open-loop schedule: one window of requests is due every ``WINDOW_S``.
WINDOW_S = 0.005
WINDOW_REQUESTS = 10
#: Share of requests that are demand updates; the rest are queries.
UPDATE_SHARE = 0.01
#: The generator sleeps until this long before a due time, then spins.
SPIN_S = 0.002
#: Service constructions per run (set-up is reported as their median).
SETUPS = 3
#: Host-speed kernel samples before each construction and after the last.
SETUP_SAMPLES = 5
#: The generator times the host-speed kernel once every this many windows,
#: when it is ahead of schedule by more than the kernel takes.
SAMPLE_EVERY = 10
SAMPLE_SLACK_S = 0.002


def serve_network() -> Any:
    """The served network: the sweep_dense recipe at network seed 0, the
    ``geometric:30:0.4`` instance of ``repro place grid:3 geometric:30:0.4``.
    Fixed, so the run seed varies only the request stream."""
    return SWEEP_DENSE.network(0, 0)


def serve_stream(network: Any, seed: int, seconds: float) -> Iterator[list[dict[str, Any]]]:
    """The seeded request windows covering *seconds* of schedule.

    The seeded draws are made up front; each window's request documents
    are built only when the generator asks for it.  An update moves its
    client's rate by ``+-RATE_STEP`` with a seeded sign, flipped where
    needed to keep the rate within one step of 1: the access mix shifts
    back and forth instead of wandering off.
    """
    rng = np.random.default_rng(seed)
    total = max(1, int(round(seconds / WINDOW_S))) * WINDOW_REQUESTS
    updates = rng.random(total) < UPDATE_SHARE
    clients = rng.integers(0, network.size, size=total)
    signs = rng.choice([-1.0, 1.0], size=total)
    offsets: dict[Any, float] = {}
    for start in range(0, total, WINDOW_REQUESTS):
        window = []
        for index in range(start, start + WINDOW_REQUESTS):
            client = network.nodes[int(clients[index])]
            if updates[index]:
                step = signs[index] * RATE_STEP
                if abs(offsets.get(client, 0.0) + step) > RATE_STEP:
                    step = -step
                offsets[client] = offsets.get(client, 0.0) + step
                window.append(serve_request("update", id=index, client=client, rate=step))
            else:
                window.append(serve_request("query", id=index, client=client))
        yield window


def new_service(network: Any, strategy: Any) -> PlacementService:
    return PlacementService(
        strategy.system,
        strategy,
        network,
        drift_threshold=0.05,
        max_batch=64,
        warm_limit=WARM_LIMIT,
    )


#: Windows per tail segment: 5 s of schedule, 10,000 requests.
SEGMENT_WINDOWS = 1000


@dataclass
class Schedule:
    """Timings the load generator took while driving one session."""

    #: Per window: the latency every request of it saw, and its queries.
    latencies: list[float] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    busy: list[float] = field(default_factory=list)
    resolve_walls: list[float] = field(default_factory=list)
    late_max: float = 0.0


def drive(
    service: PlacementService,
    windows: Iterable[list[dict[str, Any]]],
    checker: checks.ServeChecker,
    host: HostSpeed | None = None,
) -> Schedule:
    """Submit each window when due and tick once per window.

    The next window is built, and the last one's replies are checked,
    between a tick's return and the next due time: in the slack while the
    loop keeps up, and adding to the lateness of queued windows while it
    is behind a re-solve stall.  *host*, if given, is sampled in the slack.
    """
    timing = Schedule()
    origin = perf_counter() + 0.05
    for index, requests in enumerate(windows):
        due = origin + index * WINDOW_S
        free = perf_counter() < due
        if (
            host is not None
            and index % SAMPLE_EVERY == 0
            and due - perf_counter() > SPIN_S + SAMPLE_SLACK_S
        ):
            host.sample(1)
        if free:
            pause = due - perf_counter() - SPIN_S
            if pause > 0:
                time.sleep(pause)
            while perf_counter() < due:
                pass
        started = perf_counter()
        tick_started = started
        responses: list[dict[str, Any]] = []
        error = None
        try:
            # One span per window around the intake calls, so that tracing
            # does not add a span per request to the path it measures.
            with trace.span("serve.submit", requests=len(requests)):
                for request in requests:
                    service.submit(request)
            tick_started = perf_counter()
            responses = service.tick()
        except Exception:  # the schedule goes on; this window's requests failed
            error = failure("submit/tick")
        ended = perf_counter()
        snapshot = service.snapshot
        if snapshot.version != checker.version:
            timing.resolve_walls.append(ended - tick_started)
        if free:
            timing.late_max = max(timing.late_max, started - due)
        timing.latencies.append(ended - due)
        timing.queries.append(sum(1 for request in requests if request["op"] == "query"))
        timing.waits.append(tick_started - due)
        timing.busy.append(ended - started)
        checker.window(requests, responses, error, snapshot)
    return timing


def query_latencies(timing: Schedule, start: int = 0, stop: int | None = None) -> list[float]:
    """One latency per query of windows ``start:stop``."""
    pairs = zip(timing.latencies[start:stop], timing.queries[start:stop])
    return [latency for latency, queries in pairs for _ in range(queries)]


def probe_stats(service: PlacementService) -> dict[str, Any] | None:
    """Ask the service for its read counters once the schedule is over."""
    service.submit(serve_request("stats", id="stats"))
    responses = service.tick()
    return responses[0] if len(responses) == 1 else None


def run_serve(seed: int, seconds: float, traced: bool) -> Run:
    run = Run()
    # Set-up and schedule run minutes apart on a drifting host: each phase
    # is scaled by the kernel times taken around its own work.
    setup_host = HostSpeed()
    host = HostSpeed()
    network = serve_network()
    strategy = AccessStrategy.uniform(grid(3))
    windows = serve_stream(network, seed, seconds)
    setups: list[float] = []
    solves: list[float] = []

    def construct() -> PlacementService:
        setup_host.sample(SETUP_SAMPLES)
        started = perf_counter()
        service = new_service(network, strategy)
        setups.append(perf_counter() - started)
        return service

    if traced:
        warmup = construct()
        warm = qpp.warm_candidates(warmup.snapshot.result, limit=WARM_LIMIT)
        ratio = overhead_ratio(
            lambda: qpp.solve_qpp(
                strategy.system, strategy, network=network, candidate_sources=warm
            )
        )
        before = counter_values()
        with layers.wrappers_installed():
            with trace.collect() as collector:
                service = construct()
                checker = checks.ServeChecker(network, strategy, service.snapshot)
                timing = drive(service, windows, checker)
            stats = probe_stats(service)
        run.roots = collector.roots
        counters = {name: counter_delta(before, name) for name in counter_values()}
    else:
        before = counter_values()
        with call_times(engine, "solve_qpp", solves):
            for _ in range(SETUPS):
                service = construct()
            # setup_s covers the constructors' full sweeps; solve_s is the
            # schedule's solve_qpp calls, the warm drift re-solves.
            setup_host.sample(SETUP_SAMPLES)
            solves.clear()
            checker = checks.ServeChecker(network, strategy, service.snapshot)
            timing = drive(service, windows, checker, host)
            stats = probe_stats(service)
    run.count(checker.requests + 1, checker.finish(stats))
    queries = (stats or {}).get("queries", 0)
    stale_ratio = (stats or {}).get("stale_reads", 0) / queries if queries else 0.0
    objective = drift_objective(checker)
    if traced:
        finish_traced(
            run,
            setups[1] + sum(timing.busy),
            counters,
            {
                "serve.queue_wait_ms": mean(timing.waits) * 1e3,
                "serve.resolves": service.resolves,
                "serve.stale_read_ratio": stale_ratio,
                "loadgen.late_max_ms": timing.late_max * 1e3,
                "trace.overhead_ratio": ratio,
            },
        )
    else:
        run.metrics = {"objective": (objective, "distance"), "peak_rss_mb": (peak_rss_mb(), "MB")}
        segments = [
            query_latencies(timing, start, start + SEGMENT_WINDOWS)
            for start in range(0, len(timing.latencies), SEGMENT_WINDOWS)
        ]
        scaled_timings(run, setup_host, {"setup_s": (median(setups), "s")}, "host.setup")
        scaled_timings(
            run,
            host,
            {
                "solve_s": (median(solves), "s"),
                "query_p50_ms": (median(query_latencies(timing)) * 1e3, "ms"),
                "query_p999_ms": (median_tail(segments) * 1e3, "ms"),
                "resolve_s": (median(timing.resolve_walls), "s"),
            },
        )
        run.steady = {
            "serve.resolves": float(service.resolves),
            "serve.stale_read_ratio": stale_ratio,
            "lp.solves": counter_delta(before, "lp.solve.count"),
            "lp.iterations": counter_delta(before, "lp.iterations.total"),
        }
    run.steady["objective"] = objective
    return run


def drift_objective(checker: checks.ServeChecker) -> float:
    """Mean objective of the snapshots that drift re-solves published
    (the initial snapshot's when there were none)."""
    objectives = [value for version, value in checker.objectives.items() if version > 1]
    return mean(objectives) if objectives else checker.objectives[1]


WORKLOADS: dict[str, Callable[[int, float, bool], Run]] = {
    "sweep_dense": lambda seed, seconds, traced: run_sweep(SWEEP_DENSE, seed, seconds, traced),
    "sweep_large": lambda seed, seconds, traced: run_sweep(SWEEP_LARGE, seed, seconds, traced),
    "serve_drift": run_serve,
}
