"""Tests for the GAP substrate: instances, LP, Shmoys-Tardos rounding."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import InfeasibleError, ValidationError
from repro.gap import (
    FractionalAssignment,
    GAPInstance,
    round_fractional_assignment,
    solve_gap,
    solve_gap_exact,
    solve_gap_lp,
)


def make_instance(costs, loads, capacities, jobs=None, machines=None):
    costs = np.asarray(costs, dtype=float)
    loads = np.asarray(loads, dtype=float)
    jobs = tuple(jobs) if jobs else tuple(range(costs.shape[1]))
    machines = tuple(machines) if machines else tuple(
        f"m{i}" for i in range(costs.shape[0])
    )
    return GAPInstance(jobs, machines, costs, loads, np.asarray(capacities, dtype=float))


class TestInstance:
    def test_validation_shapes(self):
        with pytest.raises(ValidationError):
            make_instance([[1.0]], [[1.0, 2.0]], [1.0])

    def test_forbidden_pairs_must_match(self):
        with pytest.raises(ValidationError, match="BOTH"):
            make_instance([[math.inf]], [[1.0]], [1.0])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            make_instance([[-1.0]], [[1.0]], [1.0])

    def test_from_dicts(self):
        inst = GAPInstance.from_dicts(
            jobs=["j1", "j2"],
            machines=["a", "b"],
            cost={("a", "j1"): 1.0, ("b", "j1"): 2.0, ("b", "j2"): 1.0},
            load={("a", "j1"): 0.5, ("b", "j1"): 0.5, ("b", "j2"): 0.5},
            capacity={"a": 1.0, "b": 1.0},
        )
        assert inst.allowed(0, 0)
        assert not inst.allowed(0, 1)  # ("a", "j2") missing => forbidden

    def test_from_dicts_requires_load_for_every_cost(self):
        with pytest.raises(ValidationError, match="no load"):
            GAPInstance.from_dicts(
                jobs=["j"],
                machines=["a"],
                cost={("a", "j"): 1.0},
                load={},
                capacity={"a": 1.0},
            )

    def test_assignment_cost_and_loads(self):
        inst = make_instance([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        assignment = {0: "m0", 1: "m1"}
        assert inst.assignment_cost(assignment) == pytest.approx(5.0)
        assert inst.machine_loads(assignment) == {"m0": 1.0, "m1": 1.0}

    def test_assignment_with_forbidden_pair_rejected(self):
        inst = make_instance(
            [[math.inf, 2.0], [3.0, 4.0]],
            [[math.inf, 1.0], [1.0, 1.0]],
            [2.0, 2.0],
        )
        with pytest.raises(ValidationError, match="forbidden"):
            inst.assignment_cost({0: "m0", 1: "m1"})

    def test_max_load_on_machine(self):
        inst = make_instance([[1.0, 2.0]], [[0.3, 0.9]], [1.0])
        assert inst.max_load_on_machine(0) == pytest.approx(0.9)


class TestLP:
    def test_lp_lower_bounds_exact(self, rng):
        for _ in range(10):
            inst = make_instance(
                rng.uniform(1, 5, (3, 4)),
                rng.uniform(0.2, 0.8, (3, 4)),
                rng.uniform(1.2, 2.0, 3),
            )
            try:
                exact = solve_gap_exact(inst)
            except InfeasibleError:
                continue
            fractional = solve_gap_lp(inst)
            assert fractional.cost <= exact.cost + 1e-6

    def test_lp_respects_forbidden_and_oversized_pairs(self):
        # Job 1 only fits (capacity-wise) on machine 1.
        inst = make_instance(
            [[1.0, 1.0], [5.0, 5.0]],
            [[0.5, 2.0], [0.5, 1.0]],
            [1.0, 1.5],
        )
        fractional = solve_gap_lp(inst)
        assert fractional.fractions[0, 1] == pytest.approx(0.0)
        assert fractional.fractions[1, 1] == pytest.approx(1.0)

    def test_lp_infeasible_when_job_fits_nowhere(self):
        inst = make_instance([[1.0]], [[2.0]], [1.0])
        with pytest.raises(InfeasibleError, match="fits on no machine"):
            solve_gap_lp(inst)

    def test_fractional_support_queries(self):
        # Two jobs of load 1, two machines of capacity 1, symmetric costs:
        # the LP must split the load; query helpers read the split back.
        inst = make_instance(
            [[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]
        )
        fractional = solve_gap_lp(inst)
        support_union = set(fractional.job_support(0)) | set(fractional.job_support(1))
        assert support_union == {0, 1}
        total = fractional.machine_fractional_load(0) + fractional.machine_fractional_load(1)
        assert total == pytest.approx(2.0)


class TestRounding:
    def test_theorem_3_11_guarantees_random_instances(self, rng):
        """Cost <= fractional cost; machine load <= T_i + p_i^max."""
        checked = 0
        for _ in range(30):
            inst = make_instance(
                rng.uniform(1, 10, (4, 6)),
                rng.uniform(0.1, 1.0, (4, 6)),
                rng.uniform(0.8, 2.0, 4),
            )
            try:
                fractional = solve_gap_lp(inst)
            except InfeasibleError:
                continue
            rounded = round_fractional_assignment(fractional)
            assert rounded.cost <= fractional.cost + 1e-6
            for i, machine in enumerate(inst.machines):
                bound = inst.capacities[i] + inst.max_load_on_machine(i)
                assert rounded.machine_loads[machine] <= bound + 1e-6
            checked += 1
        assert checked >= 15  # most random instances must be feasible

    def test_integral_input_passes_through(self):
        inst = make_instance([[1.0, 9.0], [9.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
        fractions = np.array([[1.0, 0.0], [0.0, 1.0]])
        fractional = FractionalAssignment(instance=inst, fractions=fractions, cost=2.0)
        rounded = round_fractional_assignment(fractional)
        assert rounded.assignment == {0: "m0", 1: "m1"}
        assert rounded.cost == pytest.approx(2.0)

    def test_malformed_fractions_rejected(self):
        inst = make_instance([[1.0]], [[1.0]], [1.0])
        bad = FractionalAssignment(
            instance=inst, fractions=np.array([[0.4]]), cost=0.4
        )
        with pytest.raises(ValidationError, match="fractional total"):
            round_fractional_assignment(bad)

    def test_split_job_lands_on_exactly_one_machine(self):
        inst = make_instance(
            [[2.0], [2.0]],
            [[1.0], [1.0]],
            [0.5, 0.5],
        )
        fractions = np.array([[0.5], [0.5]])
        fractional = FractionalAssignment(instance=inst, fractions=fractions, cost=2.0)
        rounded = round_fractional_assignment(fractional)
        assert rounded.assignment[0] in ("m0", "m1")


#: A relay sweep whose rounding meets equal-cost matchings: sweep_dense
#: seed 9, network 4 of the repository benchmark.
_TIED_SWEEP = """
import json
import numpy as np
from repro import AccessStrategy
from repro.core.qpp import solve_qpp
from repro.network import random_geometric_network
from repro.quorums import grid

network = random_geometric_network(
    30, 0.4, rng=np.random.default_rng(103)
).with_capacities(2.0)
system = grid(3)
result = solve_qpp(system, AccessStrategy.uniform(system), network=network)
print(json.dumps({
    "objective": repr(result.objective),
    "placement": sorted(repr(item) for item in result.placement.as_dict().items()),
}))
"""


class TestHashSeedIndependence:
    """String hashing is salted per process (``PYTHONHASHSEED``); the
    rounding's matching must not break cost ties in hash order."""

    def _solve_under(self, hash_seed):
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (source_root, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        completed = subprocess.run(
            [sys.executable, "-c", _TIED_SWEEP],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        return json.loads(completed.stdout.splitlines()[-1])

    def test_placements_and_objectives_match_across_hash_seeds(self):
        first, second = self._solve_under("0"), self._solve_under("2")
        assert first == second
        assert float(first["objective"]) == pytest.approx(0.44766701393407304)


class TestSolver:
    def test_solve_gap_end_to_end(self, rng):
        inst = make_instance(
            rng.uniform(1, 5, (3, 5)),
            rng.uniform(0.2, 0.6, (3, 5)),
            np.full(3, 1.5),
        )
        solution = solve_gap(inst)
        assert set(solution.assignment) == set(inst.jobs)
        assert solution.cost <= solution.lp_cost + 1e-6
        factors = solution.load_violation_factors(inst)
        assert all(f <= 2.0 + 1e-6 for f in factors.values())

    def test_exact_matches_enumeration_guarantee(self):
        inst = make_instance(
            [[1.0, 10.0], [10.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [1.0, 1.0],
        )
        exact = solve_gap_exact(inst)
        assert exact.cost == pytest.approx(2.0)
        assert exact.assignment == {0: "m0", 1: "m1"}

    def test_exact_infeasible_raises(self):
        inst = make_instance([[1.0, 1.0]], [[0.8, 0.8]], [1.0])
        with pytest.raises(InfeasibleError):
            solve_gap_exact(inst)

    def test_exact_respects_capacities_strictly(self, rng):
        for _ in range(5):
            inst = make_instance(
                rng.uniform(1, 5, (3, 4)),
                rng.uniform(0.2, 0.7, (3, 4)),
                rng.uniform(1.0, 1.6, 3),
            )
            try:
                exact = solve_gap_exact(inst)
            except InfeasibleError:
                continue
            for i, machine in enumerate(inst.machines):
                assert exact.machine_loads[machine] <= inst.capacities[i] + 1e-9
