"""Certification tests for the landmark distance oracle and the pruned
large-scale QPP sweep.

Two guarantees are on trial.  First, the triangle-inequality sandwich:
for every pair ``(u, v)`` the oracle's bounds satisfy
``lower <= d(u, v) <= upper``, with equality whenever ``u`` or ``v`` is
a landmark.  Second, *result preservation*: because ``solve_qpp`` prunes
only candidates whose certified lower bound already exceeds the best
realized delay, the pruned sweep must return bitwise the same placement,
objective, and winning source as the unpruned one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve_qpp, solve_qpp_exact
from repro.exceptions import ValidationError
from repro.network import (
    LandmarkOracle,
    LazyMetric,
    Network,
    farthest_point_landmarks,
    random_geometric_network,
    uniform_capacities,
)
from repro.obs import counter
from repro.quorums import AccessStrategy, majority

SEEDS = [3, 11, 27]


def _instance(seed, *, n=24, radius=0.45):
    rng = np.random.default_rng(seed)
    network = uniform_capacities(
        random_geometric_network(n, radius, rng=rng), 2.0
    )
    system = majority(5)
    return network, system, AccessStrategy.uniform(system)


# -- the sandwich ---------------------------------------------------------------------


class TestOracleBounds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lower_true_upper_on_every_pair(self, seed):
        network, _, _ = _instance(seed)
        dense = network.metric()
        oracle = LandmarkOracle.build(network.lazy_metric(), 6)
        lower, upper = oracle.bounds_columns(np.arange(network.size))
        assert np.all(lower <= dense.matrix + 1e-12)
        assert np.all(dense.matrix <= upper + 1e-12)
        assert np.all(lower >= 0.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_at_landmarks(self, seed):
        network, _, _ = _instance(seed)
        dense = network.metric()
        oracle = LandmarkOracle.build(network.lazy_metric(), 4)
        for landmark in oracle.landmarks:
            for other in network.nodes:
                low, high = oracle.bounds(landmark, other)
                true = dense.distance(landmark, other)
                assert low == pytest.approx(true, abs=1e-12)
                assert high == pytest.approx(true, abs=1e-12)

    def test_certify_reports_a_clean_certificate(self):
        network, _, _ = _instance(7)
        oracle = LandmarkOracle.build(network.lazy_metric(), 5)
        certificate = oracle.certify(sample=16)
        assert certificate.ok
        assert certificate.violations == 0
        assert certificate.pairs_checked > 0
        assert certificate.max_violation <= certificate.tolerance
        assert 0.0 <= certificate.mean_gap <= certificate.max_gap
        assert certificate.landmarks == len(oracle.landmarks)

    def test_farthest_point_landmarks_are_deterministic_and_spread(self):
        network, _, _ = _instance(13)
        view = network.lazy_metric()
        picked = farthest_point_landmarks(view, 5)
        again = farthest_point_landmarks(view, 5)
        assert picked == again
        assert len(set(picked)) == len(picked)
        # Requesting more landmarks than nodes clamps to the node count.
        assert len(farthest_point_landmarks(view, network.size + 10)) == network.size

    def test_disconnected_network_rejected(self):
        network = Network(range(4), [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValidationError, match="non-finite"):
            LandmarkOracle.build(LazyMetric(network), 2)


# -- result-preserving pruning --------------------------------------------------------


def _solve_large(network, system, strategy, **kwargs):
    return solve_qpp(
        system,
        strategy,
        network=network,
        alpha=2.0,
        scale="large",
        **kwargs,
    )


class TestPrunedSweep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pruning_never_changes_the_result(self, seed):
        """The acceptance bar of the lazy tier: prune=True is an
        optimization, not an approximation."""
        network, system, strategy = _instance(seed)
        candidates = list(network.nodes)
        pruned = _solve_large(
            network,
            system,
            strategy,
            candidate_sources=candidates,
            prune=True,
        )
        skipped = counter("qpp.prune.skipped").value
        evaluated = counter("qpp.prune.evaluated").value
        unpruned = _solve_large(
            network,
            system,
            strategy,
            candidate_sources=candidates,
            prune=False,
        )
        assert pruned.source == unpruned.source
        assert pruned.objective == unpruned.objective
        assert pruned.placement.as_dict() == unpruned.placement.as_dict()
        assert pruned.load_violation_factor == unpruned.load_violation_factor
        # The sweep actually skipped work on at least one seed-stable
        # instance — otherwise this test proves nothing.
        assert skipped > 0
        assert evaluated >= 1

    def test_large_path_matches_dense_path(self):
        """An all-node large solve agrees with the dense solver up to
        metric-symmetry rounding (last-ulp; the realized evaluation
        transposes d(v, f(u)) into d(f(u), v))."""
        network, system, strategy = _instance(5, n=20)
        candidates = list(network.nodes)
        dense = solve_qpp(
            system,
            strategy,
            network=network,
            alpha=2.0,
            candidate_sources=candidates,
        )
        large = _solve_large(
            network,
            system,
            strategy,
            candidate_sources=candidates,
        )
        assert large.source == dense.source
        assert large.objective == pytest.approx(dense.objective, rel=1e-12)
        assert large.placement.as_dict() == dense.placement.as_dict()
        # Every node is a candidate, so both report the Thm 3.3 bound too.
        assert large.optimum_lower_bound == pytest.approx(
            dense.optimum_lower_bound, rel=1e-12
        )

    def test_landmark_sweep_bound_stays_below_the_optimum(self):
        """With fewer landmarks than nodes the Thm 3.3 minimum does not
        apply; the reported bound must still not exceed the optimum."""
        network = uniform_capacities(
            random_geometric_network(8, 0.6, rng=np.random.default_rng(9)), 1.0
        )
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        result = _solve_large(network, system, strategy, landmarks=3)
        exact = solve_qpp_exact(system, strategy, network=network)
        assert len(result.per_source) == 3
        assert result.provenance.algorithm == "qpp.relay-sweep-large"
        assert 0.0 <= result.optimum_lower_bound <= exact.objective * (1 + 1e-9)

    def test_scale_argument_validated(self):
        network, system, strategy = _instance(3, n=10)
        with pytest.raises(ValidationError):
            solve_qpp(system, strategy, network=network, scale="huge")
        with pytest.raises(ValidationError):
            solve_qpp(
                system,
                strategy,
                network=network,
                scale="large",
                parallel="fork",
            )
