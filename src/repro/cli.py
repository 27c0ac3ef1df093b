"""Command-line interface.

Exposes the library's planning loop to shells and scripts::

    python -m repro system grid:3                 # inspect a construction
    python -m repro place grid:3 geometric:12:0.5 --capacity 1.0 \\
        --objective max --alpha 2 --out placement.json
    python -m repro evaluate placement.json       # delays/loads of a saved placement
    python -m repro gap --k 5                     # Figure 1 numbers
    python -m repro profile bench --quick         # trace + metrics of any command
    python -m repro lint src --whole-program      # invariant linter (R001-R104)
    python -m repro lint src --dataflow           # contract/dataflow rules (R200-R204)
    python -m repro lint src --errors             # exception-flow rules (R600-R604)
    python -m repro errors --check                # @raises vs inferred escape sets
    python -m repro deps src --dot                # module import graph
    python -m repro trace --json                  # theorem traceability matrix

Spec mini-language (shared by ``system`` and ``place``):

* systems — ``grid:K``, ``majority:N``, ``threshold:N:T``, ``fpp:Q``,
  ``wheel:N``, ``tree:H``, ``cwlog:ROWS``, ``star:N``
* networks — ``path:N``, ``cycle:N``, ``star:N``, ``complete:N``,
  ``lattice:R:C``, ``geometric:N:RADIUS``, ``er:N:P``, ``waxman:N``,
  ``twocluster:SIZE:BRIDGE``, ``broom:K``

Random networks take ``--seed`` (default 0) and are fully deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

import numpy as np

from . import io
from .analysis.integrality import broom_gap_instance
from .analysis.reporting import ResultTable
from .core import (
    average_max_delay,
    average_total_delay,
    capacity_violation_factor,
    node_loads,
    solve_qpp,
    solve_total_delay,
)
from .exceptions import ReproError, ValidationError
from .lint.cli import (
    add_cost_arguments,
    add_deps_arguments,
    add_errors_arguments,
    add_lint_arguments,
    add_trace_arguments,
    run_cost,
    run_deps,
    run_errors,
    run_lint,
    run_trace,
)
from .network import generators
from .network.graph import Network
from .serve import PlacementService, serve_session
from .quorums import (
    AccessStrategy,
    QuorumSystem,
    cw_log,
    degree_statistics,
    grid,
    majority,
    optimal_strategy,
    projective_plane,
    resilience,
    star,
    threshold,
    tree_quorum_system,
    wheel,
)

__all__ = ["main", "parse_system_spec", "parse_network_spec"]


def _int_args(parts: list[str], count: int, spec: str) -> list[int]:
    if len(parts) != count:
        raise ValidationError(f"spec {spec!r}: expected {count} integer parameter(s)")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"spec {spec!r}: parameters must be integers") from exc


def parse_system_spec(spec: str) -> QuorumSystem:
    """Build a quorum system from a ``name:params`` spec string."""
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if kind == "grid":
        (k,) = _int_args(parts, 1, spec)
        return grid(k)
    if kind == "majority":
        (n,) = _int_args(parts, 1, spec)
        return majority(n)
    if kind == "threshold":
        n, t = _int_args(parts, 2, spec)
        return threshold(n, t)
    if kind == "fpp":
        (q,) = _int_args(parts, 1, spec)
        return projective_plane(q)
    if kind == "wheel":
        (n,) = _int_args(parts, 1, spec)
        return wheel(n)
    if kind == "tree":
        (h,) = _int_args(parts, 1, spec)
        return tree_quorum_system(h)
    if kind == "cwlog":
        (rows,) = _int_args(parts, 1, spec)
        return cw_log(rows)
    if kind == "star":
        (n,) = _int_args(parts, 1, spec)
        return star(n)
    raise ValidationError(
        f"unknown system spec {spec!r}; see `python -m repro --help`"
    )


def parse_network_spec(spec: str, *, seed: int = 0) -> Network:
    """Build a network from a ``name:params`` spec string."""
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    rng = np.random.default_rng(seed)
    if kind == "path":
        (n,) = _int_args(parts, 1, spec)
        return generators.path_network(n)
    if kind == "cycle":
        (n,) = _int_args(parts, 1, spec)
        return generators.cycle_network(n)
    if kind == "star":
        (n,) = _int_args(parts, 1, spec)
        return generators.star_network(n)
    if kind == "complete":
        (n,) = _int_args(parts, 1, spec)
        return generators.complete_network(n)
    if kind == "lattice":
        rows, columns = _int_args(parts, 2, spec)
        return generators.grid_network(rows, columns)
    if kind == "geometric":
        if len(parts) != 2:
            raise ValidationError(f"spec {spec!r}: expected geometric:N:RADIUS")
        n = int(parts[0])
        radius = float(parts[1])
        return generators.random_geometric_network(n, radius, rng=rng)
    if kind == "er":
        if len(parts) != 2:
            raise ValidationError(f"spec {spec!r}: expected er:N:P")
        n = int(parts[0])
        p = float(parts[1])
        return generators.erdos_renyi_network(n, p, rng=rng)
    if kind == "waxman":
        (n,) = _int_args(parts, 1, spec)
        return generators.waxman_network(n, rng=rng)
    if kind == "twocluster":
        if len(parts) != 2:
            raise ValidationError(f"spec {spec!r}: expected twocluster:SIZE:BRIDGE")
        size = int(parts[0])
        bridge = float(parts[1])
        return generators.two_cluster_network(size, bridge_length=bridge)
    if kind == "broom":
        (k,) = _int_args(parts, 1, spec)
        return generators.broom_network(k)
    raise ValidationError(
        f"unknown network spec {spec!r}; see `python -m repro --help`"
    )


# -- subcommands ------------------------------------------------------------------


def _cmd_system(args: argparse.Namespace) -> int:
    system = parse_system_spec(args.spec)
    stats = degree_statistics(system)
    uniform = AccessStrategy.uniform(system)
    table = ResultTable(f"system {args.spec}", ["property", "value"])
    table.add_row(property="quorums", value=len(system))
    table.add_row(property="universe", value=system.universe_size)
    table.add_row(property="quorum size (min/mean/max)",
                  value=f"{stats.min_quorum_size}/{stats.mean_quorum_size:.2f}/{stats.max_quorum_size}")
    table.add_row(property="element degree (min/max)",
                  value=f"{stats.min_degree}/{stats.max_degree}")
    table.add_row(property="uniform max load", value=uniform.max_load())
    if args.optimal_load:
        table.add_row(property="optimal (Naor-Wool) load",
                      value=optimal_strategy(system).load)
    if system.universe_size <= 16:
        table.add_row(property="resilience", value=resilience(system))
    if args.dual and system.universe_size <= 15:
        from .quorums import is_non_dominated, minimal_transversals

        transversals = minimal_transversals(system)
        table.add_row(property="minimal transversals", value=len(transversals))
        table.add_row(
            property="non-dominated (self-dual)",
            value=is_non_dominated(system),
        )
    table.print()
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    system = parse_system_spec(args.system)
    network = parse_network_spec(args.network, seed=args.seed)
    if args.capacity is not None:
        network = network.with_capacities(float(args.capacity))
    if args.strategy == "uniform":
        strategy = AccessStrategy.uniform(system)
    else:
        strategy = optimal_strategy(system).strategy

    if args.objective == "max":
        result = solve_qpp(system, strategy, network=network, alpha=args.alpha)
        placement = result.placement
        objective_value = result.objective
        extra = [
            ("approx factor (proven)", result.approximation_factor),
            ("certified OPT lower bound", result.optimum_lower_bound),
        ]
    else:
        total = solve_total_delay(system, strategy, network=network)
        placement = total.placement
        objective_value = total.objective
        extra = [("LP bound (>= this placement)", total.lp_value)]

    table = ResultTable(
        f"placement of {args.system} on {args.network}", ["metric", "value"]
    )
    table.add_row(metric=f"avg {args.objective}-delay", value=objective_value)
    table.add_row(
        metric="worst load/capacity",
        value=capacity_violation_factor(placement, strategy),
    )
    for name, value in extra:
        table.add_row(metric=name, value=value)
    table.print()

    if args.out:
        io.save_json(io.placement_to_dict(placement), args.out)
        print(f"placement written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    system = parse_system_spec(args.system)
    network = parse_network_spec(args.network, seed=args.seed)
    if args.capacity is not None:
        network = network.with_capacities(float(args.capacity))
    if args.strategy == "uniform":
        strategy = AccessStrategy.uniform(system)
    else:
        strategy = optimal_strategy(system).strategy
    service = PlacementService(
        system,
        strategy,
        network,
        alpha=args.alpha,
        drift_threshold=args.drift_threshold,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        scale=args.scale,
        landmarks=args.landmarks,
    )
    source = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    sink = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        summary = serve_session(service, source, sink)
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()
    print(
        f"served {summary.responses} response(s) to {summary.requests} "
        f"request(s) in {summary.ticks} tick(s): "
        f"{summary.resolves} re-solve(s), {summary.errors} error(s), "
        f"final snapshot v{summary.final_version}",
        file=sys.stderr,
    )
    return 0 if summary.errors == 0 else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    placement = io.placement_from_dict(io.load_json(args.placement))
    strategy = AccessStrategy.uniform(placement.system)
    table = ResultTable(f"evaluation of {args.placement}", ["metric", "value"])
    table.add_row(metric="avg max-delay", value=average_max_delay(placement, strategy))
    table.add_row(
        metric="avg total-delay", value=average_total_delay(placement, strategy)
    )
    table.add_row(
        metric="worst load/capacity",
        value=capacity_violation_factor(placement, strategy),
    )
    loads = node_loads(placement, strategy)
    busiest = max(loads.items(), key=lambda kv: kv[1])
    table.add_row(metric="busiest node", value=f"{busiest[0]!r} ({busiest[1]:.4f})")
    table.print()
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    table = ResultTable(
        "Figure 1 integrality gaps", ["k", "n", "lp_value", "integral_opt", "gap"]
    )
    for k in range(2, args.k + 1):
        instance = broom_gap_instance(k)
        table.add_row(
            k=k,
            n=k * k,
            lp_value=instance.lp_value,
            integral_opt=instance.integral_optimum,
            gap=instance.gap,
        )
    table.print()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    import numpy as np

    from .experiments.suite_runner import compare_algorithms
    from .experiments.workloads import PlacementInstance, feasible_uniform_capacity

    system = parse_system_spec(args.system)
    network = parse_network_spec(args.network, seed=args.seed)
    strategy = AccessStrategy.uniform(system)
    if args.capacity is not None:
        network = network.with_capacities(float(args.capacity))
    else:
        network = feasible_uniform_capacity(system, strategy, network)
    instance = PlacementInstance(
        name=f"{args.system}@{args.network}",
        system=system,
        strategy=strategy,
        network=network,
    )
    comparison = compare_algorithms(
        instance, rng=np.random.default_rng(args.seed), alpha=args.alpha
    )
    table = ResultTable(
        f"algorithm comparison on {instance.name}",
        ["algorithm", "avg_max_delay", "avg_total_delay", "load_factor"],
    )
    for score in comparison.scores:
        table.add_row(
            algorithm=score.name if not score.failed else f"{score.name} (failed)",
            avg_max_delay=score.max_delay,
            avg_total_delay=score.total_delay,
            load_factor=score.load_factor,
        )
    table.print()
    if comparison.optimal_max_delay is not None:
        print(f"exact optimal avg max-delay: {comparison.optimal_max_delay:.4g}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments.bench import (
        compare_bench_reports,
        render_bench_comparison_markdown,
        render_bench_comparison_text,
        run_bench,
        validate_bench_report,
    )

    compare_paths = list(args.compare or [])
    if len(compare_paths) > 2:
        raise ValidationError(
            "--compare takes OLD.json or OLD.json NEW.json, got "
            f"{len(compare_paths)} paths"
        )
    if len(compare_paths) == 2:
        # Pure comparison: no fresh run, no report written.
        old_report = io.load_json(compare_paths[0])
        new_report = io.load_json(compare_paths[1])
        comparison = compare_bench_reports(
            old_report, new_report, noise_band=args.noise_band
        )
        renderer = (
            render_bench_comparison_markdown
            if args.markdown
            else render_bench_comparison_text
        )
        print(renderer(comparison))
        return 1 if comparison.regressions else 0

    if args.trace_out:
        from .obs.trace import JsonlSpanSink, collect

        with JsonlSpanSink(args.trace_out) as sink, collect(sink):
            report = run_bench(
                quick=args.quick, seed=args.seed,
                large=args.large, large_nodes=args.large_nodes,
            )
    else:
        report = run_bench(
            quick=args.quick, seed=args.seed,
            large=args.large, large_nodes=args.large_nodes,
        )
    validate_bench_report(report)
    io.save_json(report, args.out)
    table = ResultTable(
        f"bench micro-suite (schema v{report['schema_version']}, "
        f"{'quick' if report['quick'] else 'full'}, seed {report['seed']})",
        ["case", "value", "seconds", "speedup"],
    )
    for name, case in report["cases"].items():
        timing = next(
            case[key]
            for key in ("vectorized_seconds", "batched_seconds",
                        "solve_seconds", "sweep_seconds", "p99_seconds")
            if key in case
        )
        value = next(
            case[key]
            for key in ("value", "capacity_violation_factor", "lp_value",
                        "average_delay", "nodes")
            if key in case
        )
        table.add_row(
            case=name,
            value=value,
            seconds=timing,
            speedup=case.get("speedup", float("nan")),
        )
    table.print()
    telemetry = report["telemetry"]
    lp_solves = telemetry["metrics"].get("lp.solve.count", 0.0)
    print(
        f"telemetry: {lp_solves:g} LP solves in "
        f"{telemetry['wall_seconds']:.3f}s (see report['telemetry'])"
    )
    print(f"report written to {args.out}")
    if args.trace_out:
        print(f"spans written to {args.trace_out}")
    if compare_paths:
        old_report = io.load_json(compare_paths[0])
        comparison = compare_bench_reports(
            old_report, report, noise_band=args.noise_band
        )
        renderer = (
            render_bench_comparison_markdown
            if args.markdown
            else render_bench_comparison_text
        )
        print(renderer(comparison))
        if comparison.regressions:
            return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.metrics import default_registry, telemetry_scope
    from .obs.report import (
        metrics_table_rows,
        telemetry_document,
        validate_telemetry_document,
    )
    from .obs.trace import (
        JsonlSpanSink,
        collect,
        render_span_tree,
        span,
        span_name_totals,
    )

    command = list(args.wrapped)
    if not command:
        raise ValidationError(
            "profile: missing command to wrap, e.g. `repro profile bench --quick`"
        )
    if command[0] == "profile":
        raise ValidationError("profile cannot wrap itself")

    wrapped = build_parser().parse_args(command)
    sink = JsonlSpanSink(args.trace_out) if args.trace_out else None
    sinks = (sink,) if sink is not None else ()
    try:
        with collect(*sinks) as collector, telemetry_scope() as telemetry:
            with span("cli", command=" ".join(command)):
                exit_code = wrapped.func(wrapped)
    finally:
        if sink is not None:
            sink.close()

    snapshot = telemetry.snapshot
    assert snapshot is not None  # telemetry_scope fills it on exit
    document = telemetry_document(
        command=command,
        exit_code=exit_code,
        collector=collector,
        counters=snapshot.metrics,
        registry=default_registry(),
    )
    validate_telemetry_document(document)
    if args.report_out:
        io.save_json(document, args.report_out)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print()
        print(
            f"== span tree ({collector.span_count} spans, "
            f"max depth {collector.max_depth}) =="
        )
        print(render_span_tree(collector.roots))
        wall = sum(root.duration or 0.0 for root in collector.roots)
        by_name = ResultTable(
            f"spans by name (share of {wall:.4f} s root wall time)",
            ["span", "count", "total_s", "self_s", "share"],
        )
        for row in span_name_totals(collector.roots):
            by_name.add_row(
                span=row.name,
                count=row.count,
                total_s=f"{row.total:.4f}",
                self_s=f"{row.self_time:.4f}",
                share=f"{row.self_time / wall:.1%}" if wall > 0 else "-",
            )
        by_name.print()
        table = ResultTable(f"metrics for `repro {' '.join(command)}`",
                            ["metric", "value"])
        for name, value in metrics_table_rows(
            snapshot.metrics, wall_seconds=snapshot.wall_seconds
        ):
            table.add_row(metric=name, value=value)
        table.print()
        if args.trace_out:
            print(f"spans written to {args.trace_out}")
        if args.report_out:
            print(f"telemetry document written to {args.report_out}")
    return exit_code


def _cmd_lint(args: argparse.Namespace) -> int:
    return run_lint(args)


def _cmd_deps(args: argparse.Namespace) -> int:
    return run_deps(args)


def _cmd_trace(args: argparse.Namespace) -> int:
    return run_trace(args)


def _cmd_cost(args: argparse.Namespace) -> int:
    return run_cost(args)


def _cmd_errors(args: argparse.Namespace) -> int:
    return run_errors(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quorum placement (PODC 2005) planning tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_system = sub.add_parser("system", help="inspect a quorum construction")
    p_system.add_argument("spec", help="e.g. grid:3, majority:5, fpp:3")
    p_system.add_argument(
        "--optimal-load",
        action="store_true",
        help="also solve the Naor-Wool LP for the optimal load",
    )
    p_system.add_argument(
        "--dual",
        action="store_true",
        help="also report transversal count and non-domination "
        "(universes up to 15 elements)",
    )
    p_system.set_defaults(func=_cmd_system)

    p_place = sub.add_parser("place", help="compute a placement")
    p_place.add_argument("system", help="system spec, e.g. grid:3")
    p_place.add_argument("network", help="network spec, e.g. geometric:12:0.5")
    p_place.add_argument("--seed", type=int, default=0)
    p_place.add_argument("--capacity", type=float, default=None,
                         help="uniform node capacity (default: uncapacitated)")
    p_place.add_argument("--alpha", type=float, default=2.0)
    p_place.add_argument("--objective", choices=("max", "total"), default="max")
    p_place.add_argument("--strategy", choices=("uniform", "optimal"),
                         default="uniform")
    p_place.add_argument("--out", default=None, help="write placement JSON here")
    p_place.set_defaults(func=_cmd_place)

    p_serve = sub.add_parser(
        "serve",
        help="serve placement queries over JSONL (docs/serving.md)",
        description="Long-running placement service: reads repro-serve-"
        "request documents (one JSON object per line) from --input, "
        "answers each from the current placement snapshot, and re-solves "
        "when accumulated demand updates drift the objective past "
        "--drift-threshold. Responses go to --out; the session summary "
        "goes to stderr.",
    )
    p_serve.add_argument("system", help="system spec, e.g. majority:5")
    p_serve.add_argument("network", help="network spec, e.g. geometric:500:0.1")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--capacity", type=float, default=None,
                         help="uniform node capacity (default: uncapacitated)")
    p_serve.add_argument("--alpha", type=float, default=2.0)
    p_serve.add_argument("--strategy", choices=("uniform", "optimal"),
                         default="uniform")
    p_serve.add_argument("--scale", choices=("dense", "large"), default=None,
                         help="'large' routes re-solves and snapshot "
                         "evaluation through the lazy metric layer")
    p_serve.add_argument("--landmarks", type=int, default=16,
                         help="scale='large' oracle size / default sweep width")
    p_serve.add_argument("--drift-threshold", type=float, default=0.1,
                         help="relative objective drift that triggers a "
                         "re-solve (default 0.1)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="requests drained per tick (default 64)")
    p_serve.add_argument("--queue-limit", type=int, default=4096,
                         help="bounded request queue size (default 4096)")
    p_serve.add_argument("--input", default="-",
                         help="JSONL request file, or - for stdin")
    p_serve.add_argument("--out", default="-",
                         help="JSONL response file, or - for stdout")
    p_serve.set_defaults(func=_cmd_serve)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved placement")
    p_eval.add_argument("placement", help="path to a placement JSON file")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_gap = sub.add_parser("gap", help="regenerate the Figure 1 gap series")
    p_gap.add_argument("--k", type=int, default=5, help="largest broom parameter")
    p_gap.set_defaults(func=_cmd_gap)

    p_compare = sub.add_parser(
        "compare", help="run all placement algorithms on one instance"
    )
    p_compare.add_argument("system", help="system spec, e.g. majority:5")
    p_compare.add_argument("network", help="network spec, e.g. geometric:10:0.5")
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--capacity", type=float, default=None,
                           help="uniform node capacity (default: auto-feasible)")
    p_compare.add_argument("--alpha", type=float, default=2.0)
    p_compare.set_defaults(func=_cmd_compare)

    p_bench = sub.add_parser(
        "bench",
        help="run the deterministic benchmark micro-suite",
        description="Times the vectorized evaluator kernels against their "
        "scalar references, the batched metric builder, and the shared-LP "
        "solver path; writes a schema-versioned JSON report "
        "(see docs/performance.md).",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="single repeat per case (CI mode); values are identical either way",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="BENCH_3.json",
                         help="report path (default: BENCH_3.json)")
    p_bench.add_argument("--trace-out", default=None, dest="trace_out",
                         help="also record the run's span tree as JSONL here")
    p_bench.add_argument(
        "--compare", nargs="+", default=None, metavar="REPORT",
        help="compare timing trajectories: one path runs the suite fresh "
        "and compares against it; two paths compare OLD NEW without "
        "running; exits 1 on regressions beyond the noise band",
    )
    p_bench.add_argument(
        "--noise-band", type=float, default=0.25, dest="noise_band",
        help="tolerated relative timing noise for --compare (default: 0.25)",
    )
    p_bench.add_argument(
        "--markdown", action="store_true",
        help="render the --compare result as a markdown speedup table",
    )
    p_bench.add_argument(
        "--large", action="store_true",
        help="also run the qpp_lazy_large case: a full QPP solve on a "
        "large geometric graph via the lazy-metric path, asserting that "
        "no dense n x n matrix is ever built",
    )
    p_bench.add_argument(
        "--large-nodes", type=int, default=10_000, dest="large_nodes",
        help="node count for the --large case (default: 10000)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_profile = sub.add_parser(
        "profile",
        help="run any repro command under the tracer and print the span tree",
        description="Wraps another repro command (e.g. `repro profile bench "
        "--quick`) with a trace collector and a telemetry scope, then prints "
        "the span tree and a metrics table (or the schema-versioned JSON "
        "document with --json). See docs/observability.md.",
    )
    p_profile.add_argument(
        "--json", action="store_true",
        help="print the telemetry document as JSON instead of text",
    )
    p_profile.add_argument(
        "--trace-out", default=None, dest="trace_out",
        help="write the span tree as JSONL here",
    )
    p_profile.add_argument(
        "--report-out", default=None, dest="report_out",
        help="write the telemetry document as JSON here",
    )
    p_profile.add_argument(
        "wrapped", nargs=argparse.REMAINDER,
        help="the repro command to profile, with its own flags",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_lint = sub.add_parser(
        "lint",
        help="run the invariant linter (R001-R604) over source paths",
        description="AST-based invariant linter; exit 0 clean, 1 findings. "
        "See docs/static_analysis.md for the rule catalogue.",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_cost = sub.add_parser(
        "cost",
        help="render the declared/inferred asymptotic-cost table (R500's view)",
        description="Symbolic cost bounds per solver entry point: @cost "
        "declarations vs static inference; --check exits 1 on gaps. "
        "See docs/performance.md.",
    )
    add_cost_arguments(p_cost)
    p_cost.set_defaults(func=_cmd_cost)

    p_errors = sub.add_parser(
        "errors",
        help="render the declared/inferred exception-escape table (R600's view)",
        description="Escape sets per solver entry point: @raises "
        "declarations vs interprocedural inference; --check exits 1 on "
        "gaps. The same analysis emits the error contract that "
        "repro.resilience.retrying gates on. See docs/static_analysis.md.",
    )
    add_errors_arguments(p_errors)
    p_errors.set_defaults(func=_cmd_errors)

    p_deps = sub.add_parser(
        "deps",
        help="show the package's module import graph (text, --dot, --json)",
        description="Module import graph with layer assignments; the same "
        "graph the whole-program linter checks (R100/R101).",
    )
    add_deps_arguments(p_deps)
    p_deps.set_defaults(func=_cmd_deps)

    p_trace = sub.add_parser(
        "trace",
        help="render the paper-theorem traceability matrix (R204's view)",
        description="Theorem rows from the design document vs '# paper:' "
        "anchors in implementation and tests; --check exits 1 on gaps.",
    )
    add_trace_arguments(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
