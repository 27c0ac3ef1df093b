"""repro — a reproduction of *Quorum Placement in Networks to Minimize
Access Delays* (Gupta, Maggs, Oprea, Reiter; PODC 2005).

The library implements the paper end to end:

* **Quorum systems** (:mod:`repro.quorums`): the :class:`QuorumSystem` /
  :class:`AccessStrategy` types, the classical constructions (Grid,
  Majority, projective planes, trees, crumbling walls, ...), and the
  Naor-Wool load-optimal strategy LP.
* **Networks** (:mod:`repro.network`): capacitated weighted graphs, exact
  shortest-path metrics (dense :class:`Metric` and on-demand
  :class:`LazyMetric`, both satisfying :class:`MetricView`), and topology
  generators including the paper's Figure 1 "broom".
* **Placement algorithms** (:mod:`repro.core`): the Theorem 1.2 QPP
  solver, the §3.3 single-source LP-rounding algorithm (Theorem 3.7),
  the §4 optimal Grid/Majority layouts (Theorem 1.3), the §5 total-delay
  algorithm (Theorem 1.4), Lemma 3.1 relay analysis, exact brute-force
  optima, baselines, and the Theorem 3.6 NP-hardness reduction.
* **Substrates**: a declarative LP layer (:mod:`repro.lp`), Generalized
  Assignment with Shmoys-Tardos rounding (:mod:`repro.gap`), and
  precedence scheduling (:mod:`repro.scheduling`).
* **Serving** (:mod:`repro.serve`): placement-as-a-service — a
  versioned placement cache, drift-triggered incremental re-solve, and
  the frozen ``repro-serve-request``/``repro-serve-response`` JSONL
  protocol behind ``repro serve`` (``docs/serving.md``).
* **Analysis & experiments** (:mod:`repro.analysis`,
  :mod:`repro.experiments`): Appendix A integrality-gap instances,
  result tables, workload suites, and an access simulator.
* **Observability** (:mod:`repro.obs`): structured tracing, a process
  metrics registry, and solver telemetry (``repro profile``,
  ``docs/observability.md``).

Stable API
----------
This module is the library's stable surface: every solver entry point
(the 21 ``solve_*`` / ``optimal_*`` functions), the core types
(:class:`Network`, :class:`Metric`, :class:`MetricView`,
:class:`Placement`, :class:`QuorumSystem`, :class:`AccessStrategy`),
the :class:`SolveResult` family, and the exception hierarchy are all
importable directly from ``repro`` — ``__all__`` below is the
authoritative list.  Deep imports (``repro.core.qpp.solve_qpp``)
continue to work but are not part of the stability contract.

Quickstart::

    import numpy as np
    from repro import AccessStrategy, solve_qpp
    from repro.network import random_geometric_network
    from repro.quorums import grid

    net = random_geometric_network(12, 0.5, rng=np.random.default_rng(0))
    net = net.with_capacities(1.0)
    system = grid(3)
    result = solve_qpp(system, AccessStrategy.uniform(system), network=net, alpha=2.0)
    print(result.objective, result.approximation_factor)
"""

from . import (
    analysis,
    core,
    experiments,
    gap,
    lp,
    network,
    obs,
    quorums,
    scheduling,
    serve,
)
from .analysis import GapInstance, solve_gap_instance_lp
from .core import (
    ExactPlacement,
    GridLayoutResult,
    MajorityLayoutResult,
    PartialDeployment,
    Placement,
    Provenance,
    QPPResult,
    RWPlacementResult,
    ScalarizedResult,
    SolveResult,
    SSQPPResult,
    TotalDelayResult,
    average_max_delay,
    average_total_delay,
    optimal_grid_placement,
    optimal_majority_placement,
    per_client_expected_max_delay,
    relay_analysis,
    solve_partial_deployment,
    solve_partial_deployment_exact,
    solve_qpp,
    solve_qpp_exact,
    solve_rw_placement,
    solve_rw_ssqpp,
    solve_scalarized_placement,
    solve_ssqpp,
    solve_ssqpp_exact,
    solve_total_delay,
    solve_total_delay_exact,
    warm_candidates,
)
from .exceptions import (
    CapacityError,
    InfeasibleError,
    IntersectionError,
    ReproError,
    SolverError,
    UnboundedError,
    ValidationError,
)
from .gap import (
    FractionalAssignment,
    GAPSolution,
    GreedyAssignment,
    solve_gap,
    solve_gap_exact,
    solve_gap_greedy,
    solve_gap_lp,
)
from .lp import Solution, solve_model
from .network import LazyMetric, Metric, MetricView, Network
from .quorums import (
    AccessStrategy,
    OptimalStrategyResult,
    QuorumSystem,
    optimal_strategy,
)
from .scheduling import ExactSchedule, solve_scheduling_exact

__version__ = "1.0.0"

__all__ = [
    "AccessStrategy",
    "CapacityError",
    "ExactPlacement",
    "ExactSchedule",
    "FractionalAssignment",
    "GAPSolution",
    "GapInstance",
    "GreedyAssignment",
    "GridLayoutResult",
    "InfeasibleError",
    "IntersectionError",
    "LazyMetric",
    "MajorityLayoutResult",
    "Metric",
    "MetricView",
    "Network",
    "OptimalStrategyResult",
    "PartialDeployment",
    "Placement",
    "Provenance",
    "QPPResult",
    "QuorumSystem",
    "RWPlacementResult",
    "ReproError",
    "SSQPPResult",
    "ScalarizedResult",
    "Solution",
    "SolveResult",
    "SolverError",
    "TotalDelayResult",
    "UnboundedError",
    "ValidationError",
    "__version__",
    "analysis",
    "average_max_delay",
    "average_total_delay",
    "core",
    "experiments",
    "gap",
    "lp",
    "network",
    "obs",
    "optimal_grid_placement",
    "optimal_majority_placement",
    "optimal_strategy",
    "per_client_expected_max_delay",
    "quorums",
    "relay_analysis",
    "scheduling",
    "serve",
    "solve_gap",
    "solve_gap_exact",
    "solve_gap_greedy",
    "solve_gap_instance_lp",
    "solve_gap_lp",
    "solve_model",
    "solve_partial_deployment",
    "solve_partial_deployment_exact",
    "solve_qpp",
    "solve_qpp_exact",
    "solve_rw_placement",
    "solve_rw_ssqpp",
    "solve_scalarized_placement",
    "solve_scheduling_exact",
    "solve_ssqpp",
    "solve_ssqpp_exact",
    "solve_total_delay",
    "solve_total_delay_exact",
    "warm_candidates",
]
