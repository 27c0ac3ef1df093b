"""Tests for read/write placement and the LP formulation options."""

import numpy as np
import pytest

from repro.core import (
    average_max_delay,
    capacity_violation_factor,
    node_loads,
    solve_rw_placement,
    solve_rw_ssqpp,
    solve_ssqpp,
)
from repro.core.ssqpp import build_ssqpp_lp
from repro.exceptions import ValidationError
from repro.experiments import small_suite
from repro.lp import RowBlock
from repro.lp.solve import _compile
from repro.network import random_geometric_network, uniform_capacities
from repro.quorums import AccessStrategy, grid_rw, majority, read_one_write_all


@pytest.fixture
def network(rng):
    return uniform_capacities(random_geometric_network(9, 0.5, rng=rng), 1.0)


class TestRWPlacement:
    def test_single_source_guarantees_hold(self, network):
        rw = grid_rw(3)
        result = solve_rw_ssqpp(network=network, rw_system=rw, source=0, read_fraction=0.8)
        assert result.within_guarantees

    def test_read_heavy_workload_gets_lower_delay(self, network):
        """Rows are smaller than row+column writes, so a read-heavy mix
        should place to a lower average delay than write-only."""
        rw = grid_rw(3)
        read_heavy = solve_rw_placement(
            rw, network, read_fraction=0.95, candidate_sources=[0, 1]
        )
        write_only = solve_rw_placement(
            rw, network, read_fraction=0.0, candidate_sources=[0, 1]
        )
        assert read_heavy.average_delay <= write_only.average_delay + 1e-6

    def test_load_bound_respected(self, network):
        rw = grid_rw(3)
        result = solve_rw_placement(
            rw, network, read_fraction=0.5, alpha=2.0, candidate_sources=[0]
        )
        violation = capacity_violation_factor(result.placement, result.strategy)
        assert violation <= result.load_factor_bound + 1e-6

    def test_rowa_collapses_reads(self, network):
        """ROWA with an all-read workload: every singleton read can sit
        anywhere; delays should be near zero for the chosen source."""
        rw = read_one_write_all(3)
        result = solve_rw_ssqpp(rw, network, 0, read_fraction=1.0)
        # All elements fit near/at the source (capacity permitting).
        assert result.delay <= result.delay_bound + 1e-9

    def test_reported_delay_matches_placement(self, network):
        rw = grid_rw(2)
        result = solve_rw_placement(
            rw, network, read_fraction=0.6, candidate_sources=[0, 3]
        )
        assert result.average_delay == pytest.approx(
            average_max_delay(result.placement, result.strategy)
        )


class TestFormulations:
    def test_formulations_agree_on_suite(self):
        for instance in small_suite(31)[:4]:
            source = instance.network.nodes[0]
            values = {}
            for formulation in ("prefix", "cumulative"):
                model, *_ = build_ssqpp_lp(
                    instance.system,
                    instance.strategy,
                    instance.network,
                    source,
                    formulation=formulation,
                )
                values[formulation] = model.solve().objective
            assert values["prefix"] == pytest.approx(
                values["cumulative"], abs=1e-7
            )

    def test_cumulative_solve_keeps_guarantees(self, network):
        system = majority(5)
        strategy = AccessStrategy.uniform(system)
        result = solve_ssqpp(
            system, strategy, network, 0, formulation="cumulative"
        )
        assert result.within_guarantees

    def test_unknown_formulation_rejected(self, network):
        system = majority(3)
        strategy = AccessStrategy.uniform(system)
        with pytest.raises(ValidationError, match="formulation"):
            build_ssqpp_lp(system, strategy, network, 0, formulation="magic")

    def test_cumulative_has_fewer_nonzeros_per_constraint(self, network):
        """The point of the cumulative form: constraint rows stay O(1)."""
        system = majority(7)
        strategy = AccessStrategy.uniform(system)
        prefix_model, *_ = build_ssqpp_lp(
            system, strategy, network, 0, formulation="prefix"
        )
        cumulative_model, *_ = build_ssqpp_lp(
            system, strategy, network, 0, formulation="cumulative"
        )

        def max_prefix_row_terms(model):
            # The compiled rows of the "prefix" block (14): the block's
            # constraint positions, mapped to their rows of A_ub.
            (block,) = [
                item for item in model._constraints
                if isinstance(item, RowBlock) and item.name == "prefix"
            ]
            lp = _compile(model)
            positions = np.arange(block.start, block.start + block.size)
            assert not lp.is_eq[positions].any()
            ub_rows = np.cumsum(~lp.is_eq)[positions] - 1
            return int(lp.a_ub[ub_rows].getnnz(axis=1).max())

        assert max_prefix_row_terms(cumulative_model) == 2
        assert max_prefix_row_terms(prefix_model) > 3
