"""The Quorum Placement Problem (Problem 1.1) via the single-source
reduction (Theorem 3.3), giving the paper's main result, Theorem 1.2.

Algorithm
---------
Lemma 3.1 guarantees some node ``v0`` for which the "relay-via-v0"
strategy costs at most 5x the optimum; Theorem 3.3 turns any
``beta``-approximate single-source solution at that ``v0`` into a
``5 beta``-approximation for QPP.  Since ``v0`` is unknown, the paper
prescribes running the single-source algorithm from *every* node and
keeping the best placement — which is what :func:`solve_qpp` does
(optionally over a restricted candidate set for speed).  Client rates
(§6) weight only that final choice and the lower bound below, never the
single-source solves, so a result's ``per_source`` passed back as
``solve_qpp(per_source=...)`` re-selects under new rates without solving
an LP.

The returned result also carries a *certified lower bound* on the QPP
optimum ``OPT = Avg_v Delta_{f*}(v)`` that holds for any candidate set
``C``.  For a candidate ``c`` the capacity-respecting optimum ``f*`` is
feasible in c's LP, so ``Delta_{f*}(c) >= Z*(c)``, and the triangle
inequality gives ``Delta_{f*}(v) >= Delta_{f*}(c) - d(c, v)``; hence

    OPT >= Avg_v max(0, max over c in C of (Z*(c) - d(c, v))).

When ``C`` covers every node, the proof of Theorem 3.3 adds a second
bound: for the (unknown) right relay node ``v0``

    Avg_v d(v, v0) + Z*(v0) <= Avg_v d(v, v0) + Delta_{f*}(v0) <= 5 OPT,

so ``min over all nodes of (Avg_v d(v, v0) + Z*(v0)) / 5 <= OPT``, and
the result reports the larger of the two.  The Theorem 3.3 bound needs
every node: the minimum over a subset can exceed ``OPT``.  The
benchmarks use the bound to report honest measured-vs-optimal ratios
when exhaustive search is out of reach.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .._compat import solver_api
from .._results import Provenance, SolveResult
from .._validation import (
    check_integer_in_range,
    check_positive,
    check_scale,
    cost,
    raises,
    require,
)
from ..network.graph import Network, Node
from ..network.lazymetric import LandmarkOracle, MetricView
from ..obs.metrics import counter, telemetry_scope
from ..obs.trace import span
from ..resilience import fault_point
from ..quorums.base import QuorumSystem
from ..quorums.strategy import AccessStrategy
from .placement import (
    Placement,
    _client_weights,
    average_max_delay,
    average_max_delay_bounds,
    average_max_delay_via_sources,
)
from .ssqpp import SSQPPResult, solve_ssqpp

__all__ = ["QPPResult", "solve_qpp", "average_strategy", "warm_candidates"]


@dataclass(frozen=True)
class QPPResult(SolveResult):
    """Output of :func:`solve_qpp` (a :class:`~repro._results.SolveResult`).

    ``objective`` is the realized QPP objective ``Avg_v Delta_f(v)`` and
    ``load_violation_factor`` the realized worst ``load_f(v)/cap(v)``;
    the pre-unification name ``average_delay`` still resolves but emits
    a :class:`FutureWarning` (removal scheduled for the next major
    release).

    Attributes
    ----------
    source:
        The relay candidate whose single-source solution won.
    alpha:
        The load/delay trade-off parameter forwarded to the single-source
        solver.
    approximation_factor:
        The proven factor ``5 * alpha / (alpha - 1)`` of Theorem 1.2.
    load_factor_bound:
        The proven load bound ``alpha + 1`` (Theorem 1.2).
    optimum_lower_bound:
        A certified lower bound on the optimal capacity-respecting
        average delay (see module docstring).
    per_source:
        The single-source result of every candidate source, keyed by
        source node, in sweep order.  Rates never reach the single-source
        solves, so passing this back as ``solve_qpp(per_source=...)``
        re-selects under new rates without solving an LP.
    """

    source: Node
    alpha: float
    approximation_factor: float
    load_factor_bound: float
    optimum_lower_bound: float
    per_source: dict[Node, SSQPPResult]

    _legacy_aliases: ClassVar[Mapping[str, str]] = {"average_delay": "objective"}

    @property
    def certified_ratio(self) -> float:
        """``objective / optimum_lower_bound`` — an upper bound on the
        realized approximation ratio (infinite when the bound is zero
        while the delay is positive)."""
        if self.optimum_lower_bound > 0:
            return self.objective / self.optimum_lower_bound
        return 0.0 if self.objective == 0 else float("inf")


# paper: Thm 3.3
def _solve_candidate(
    source: Node,
    *,
    system: QuorumSystem,
    strategy: AccessStrategy,
    network: Network,
    alpha: float,
    lp_method: str,
    formulation: str,
    metric: MetricView | None,
) -> SSQPPResult:
    """The single-source solve of one relay candidate, on its own LP.

    Module-level so that the pooled sweep can send it to worker
    processes; it is the same call in both execution modes.
    """
    with span("qpp.candidate", source=source):
        fault_point("qpp.candidate")
        return solve_ssqpp(
            system,
            strategy,
            network=network,
            source=source,
            alpha=alpha,
            lp_method=lp_method,
            formulation=formulation,
            metric=metric,
        )


# paper: Thm 1.2, Thm 3.3, §3
@solver_api(legacy_positional=("network",))
@cost("n**2 * q * c")
@raises("ValidationError", transient=("SolverError",))
def solve_qpp(
    system: QuorumSystem,
    strategy: AccessStrategy,
    *,
    network: Network,
    alpha: float = 2.0,
    candidate_sources: Sequence[Node] | None = None,
    rates: Mapping[Node, float] | None = None,
    lp_method: str = "highs",
    formulation: str = "prefix",
    parallel: str | None = None,
    max_workers: int | None = None,
    scale: str | None = None,
    landmarks: int = 16,
    prune: bool = True,
    per_source: Mapping[Node, SSQPPResult] | None = None,
) -> QPPResult:
    """Solve the Quorum Placement Problem (Theorem 1.2).

    Runs :func:`repro.core.ssqpp.solve_ssqpp` from every candidate source
    and returns the placement with the smallest realized average
    max-delay.  The placement satisfies
    ``load_f(v) <= (alpha + 1) cap(v)`` and
    ``Avg_v Delta_f(v) <= 5 alpha/(alpha-1) * OPT``.

    Both scales run the same sweep: candidates in order, each solved on
    its own LP, evaluated, and selected with a strict ``<`` (the first of
    equal candidates wins).  ``scale`` fixes the metric view, the default
    candidates and the evaluator.  Each candidate's LP spans only the
    exact capacity-covering prefix of its distance order (see
    :func:`repro.core.ssqpp.solve_ssqpp`), on both scales.

    Parameters
    ----------
    candidate_sources:
        Restrict the relay-candidate sweep (default: all nodes).  The
        Theorem 1.2 guarantee formally needs all nodes; a restricted sweep
        retains the load bound but may lose the delay guarantee.  The
        certified lower bound stays sound for any candidate set, but
        without every node it is only the triangle-inequality bound of the
        module docstring, which can be far below the optimum (on the
        landmark sweep of ``scale="large"`` it is typically close to 0).
    rates:
        Optional per-client access rates (§6 extension); both the
        objective and the lower bound become rate-weighted averages.
    parallel:
        ``"process"`` maps the candidates' single-source solves over a
        :class:`~concurrent.futures.ProcessPoolExecutor`; ``None``
        (default) solves them in this process.  Results are identical
        either way — only the telemetry attribution differs (child-process
        counter increments stay in the children).
    max_workers:
        Pool size for ``parallel="process"`` (default: executor choice).
    scale:
        ``None`` or ``"dense"`` (equivalent) sweep over the dense cached
        metric.  ``"large"`` switches to the lazy metric: distances come
        from :meth:`Network.lazy_metric` (rows on demand, never an
        ``n x n`` matrix), candidates default to a farthest-point
        landmark set, exact values come from
        :func:`average_max_delay_via_sources` (matches the dense
        evaluator up to metric-symmetry ulp), and oracle bounds prune the
        exact evaluation of hopeless candidates.  It sweeps serially:
        ``parallel="process"`` is refused.
    landmarks:
        Landmark count for the ``scale="large"`` oracle (and the default
        candidate set).  Ignored otherwise.
    prune:
        In ``scale="large"``, skip exact evaluation of a candidate whose
        oracle *lower* bound already matches or exceeds the incumbent.
        Never changes the returned placement, objective, or source
        (test-asserted); set ``False`` to force every exact evaluation.
    per_source:
        Earlier single-source results (a previous result's
        ``per_source``) of the same system, strategy, network, ``alpha``,
        ``lp_method`` and ``formulation``.  A candidate found here is
        evaluated but not solved again; only the missing candidates are
        solved (by the pool too, which is not started when none are), and
        the ``qpp.reused`` counter counts the reuses.  Single-source
        solves never see ``rates``, so a full re-selection under new rates
        returns what a fresh solve would, without an LP.  An entry whose
        key, ``source``, ``alpha``, network or system disagrees with the
        call raises :class:`~repro.exceptions.ValidationError`; the
        strategy, LP method and formulation are not recorded in a result
        and are the caller's to keep.
    """
    check_positive(alpha - 1.0, "alpha - 1")
    require(
        parallel in (None, "process"),
        f"parallel must be None or 'process', got {parallel!r}",
    )
    require(
        max_workers is None or max_workers >= 1,
        f"max_workers must be >= 1, got {max_workers!r}",
    )
    check_scale(scale)
    large = scale == "large"
    if large:
        require(
            parallel is None,
            "scale='large' sweeps serially over the shared lazy metric; "
            "parallel='process' is not supported",
        )
        view: MetricView = network.lazy_metric()
        k = max(1, min(int(landmarks), network.size))
        oracle = LandmarkOracle.build(view, k)
        default_candidates: Sequence[Node] = oracle.landmarks
        provenance = Provenance.of(
            "qpp.relay-sweep-large",
            "Thm 1.2",
            alpha=alpha,
            formulation=formulation,
            landmarks=k,
        )
        pruned = counter("qpp.prune.skipped")
        evaluated = counter("qpp.prune.evaluated")

        def hopeless(placement: Placement, incumbent: float) -> bool:
            # Sound: the exact value is at least the oracle's lower bound,
            # so the strict < selection could not switch to it.
            if not prune:
                return False
            bound_low, _ = average_max_delay_bounds(
                placement, strategy, oracle, rates=rates
            )
            if bound_low >= incumbent:
                pruned.inc()
                return True
            return False

        def realized_delay(placement: Placement) -> float:
            evaluated.inc()
            return average_max_delay_via_sources(
                placement, strategy, view, rates=rates
            )

    else:
        view = network.metric()
        default_candidates = network.nodes
        provenance = Provenance.of(
            "qpp.relay-sweep", "Thm 1.2", alpha=alpha, formulation=formulation
        )

        def hopeless(placement: Placement, incumbent: float) -> bool:
            return False

        def realized_delay(placement: Placement) -> float:
            return average_max_delay(placement, strategy, rates=rates)

    candidates = list(
        dict.fromkeys(
            default_candidates if candidate_sources is None else candidate_sources
        )
    )
    require(len(candidates) > 0, "at least one candidate source is required")
    for node in candidates:
        network.node_index(node)
    # The Thm 3.3 bound holds only as a minimum over every node.
    every_node = len(candidates) == network.size
    weights = _client_weights(network, rates)
    reused = per_source or {}
    _check_reusable(reused, system, network, alpha)
    missing = [node for node in candidates if node not in reused]
    solve = partial(
        _solve_candidate,
        system=system,
        strategy=strategy,
        network=network,
        alpha=alpha,
        lp_method=lp_method,
        formulation=formulation,
        metric=view if large else None,
    )

    best: SSQPPResult | None = None
    best_delay = float("inf")
    best_source: Node | None = None
    # reach[v] = max over swept c of Z*(c) - d(c, v), floored at 0: a
    # lower bound on Delta_{f*}(v) for any candidate set.
    reach = np.zeros(network.size)
    relay_bound = float("inf") if every_node else 0.0
    swept: dict[Node, SSQPPResult] = {}

    with telemetry_scope() as telemetry, span(
        "qpp.sweep",
        scale="large" if large else "dense",
        candidates=len(candidates),
        reused=len(candidates) - len(missing),
        alpha=alpha,
    ):
        # map() is lazy, so the serial sweep solves and evaluates one
        # candidate at a time (a lazy metric pulls rows in that order).
        solved: Iterator[SSQPPResult]
        if parallel == "process" and missing:
            with ProcessPoolExecutor(max_workers=max_workers) as executor:
                solved = iter(list(executor.map(solve, missing)))
        else:
            solved = map(solve, missing)
        reuses = counter("qpp.reused")
        for source in candidates:
            if source in reused:
                reuses.inc()
                result = reused[source]
            else:
                result = next(solved)
            swept[source] = result
            row = view.distances_from(source)
            np.maximum(reach, result.lp_value - row, out=reach)
            if every_node:
                to_source = float(weights @ row)
                relay_bound = min(relay_bound, (to_source + result.lp_value) / 5.0)
            if best is not None and hopeless(result.placement, best_delay):
                continue
            realized = realized_delay(result.placement)
            if realized < best_delay:
                best_delay = realized
                best = result
                best_source = source

    assert best is not None and best_source is not None
    return QPPResult(
        placement=best.placement,
        objective=best_delay,
        load_violation_factor=best.max_load_factor,
        provenance=provenance,
        source=best_source,
        alpha=alpha,
        approximation_factor=5.0 * alpha / (alpha - 1.0),
        load_factor_bound=alpha + 1.0,
        optimum_lower_bound=max(float(weights @ reach), relay_bound),
        per_source=swept,
        telemetry=telemetry.snapshot,
    )


def _check_reusable(
    per_source: Mapping[Node, SSQPPResult],
    system: QuorumSystem,
    network: Network,
    alpha: float,
) -> None:
    """Refuse an entry of *per_source* that belongs to another sweep."""
    for node, result in per_source.items():
        network.node_index(node)
        placement = result.placement
        require(
            result.source == node,
            f"per_source[{node!r}] is the result of source {result.source!r}",
        )
        require(
            result.alpha == alpha,
            f"per_source[{node!r}] was solved with alpha={result.alpha!r}, not {alpha!r}",
        )
        require(
            placement.system.same_layout(system),
            f"per_source[{node!r}] places another quorum system",
        )
        # A pooled sweep's results carry unpickled copies of the network.
        require(
            placement.network is network or _same_network(placement.network, network),
            f"per_source[{node!r}] was solved on another network",
        )


def _same_network(first: Network, second: Network) -> bool:
    return (
        first.nodes == second.nodes
        and first.capacities() == second.capacities()
        and first.adjacency == second.adjacency
    )


def warm_candidates(previous: QPPResult, *, limit: int = 8) -> list[Node]:
    """Candidate sources for a restricted re-solve, best-first.

    The most promising relays of the *previous* solve: its winner
    first, then the other swept candidates ordered by their
    single-source delay at the relay.  Passed as ``candidate_sources=``,
    the list re-solves only those candidates.

    :mod:`repro.serve` no longer uses it: a re-solve under new rates
    passes the previous result's ``per_source`` to :func:`solve_qpp`
    instead, which keeps every candidate and solves no LP.  A restricted
    list trades the Theorem 1.2 guarantee for speed (see
    ``candidate_sources``), and its certified lower bound is the weaker
    one that holds for any candidate set.
    """
    check_integer_in_range(limit, "limit", low=1)
    require(
        len(previous.per_source) > 0,
        "previous result carries no per-source diagnostics to warm from",
    )
    ranked = sorted(
        previous.per_source,
        key=lambda node: (node != previous.source, previous.per_source[node].delay),
    )
    return ranked[:limit]


def average_strategy(
    per_client: Mapping[Node, AccessStrategy],
    network: Network,
    *,
    rates: Mapping[Node, float] | None = None,
) -> AccessStrategy:
    """The §6 reduction for per-client access strategies.

    When each client ``v`` uses its own strategy ``p_v``, assigning every
    client the (rate-weighted) average strategy preserves the average
    delay analysis of Lemma 3.1; the placement algorithms can then run
    unchanged on the averaged strategy.
    """
    missing = [v for v in network.nodes if v not in per_client]
    require(not missing, f"missing strategies for clients {missing[:5]!r}")
    weights = _client_weights(network, rates)
    strategies = [per_client[v] for v in network.nodes]
    return AccessStrategy.mixture(strategies, list(np.asarray(weights)))
