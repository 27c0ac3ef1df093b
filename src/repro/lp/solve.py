"""Solver backend for :class:`repro.lp.model.Model`.

Compiles a model to sparse matrices and delegates to scipy's HiGHS
interface.  Two methods matter for this library:

* ``"highs"`` — let HiGHS pick (usually fastest); used by default.
* ``"highs-ds"`` — dual simplex, which returns a *basic* (vertex)
  solution.  The Shmoys-Tardos style roundings in :mod:`repro.gap`
  tolerate any feasible fractional point, but vertex solutions have at
  most ``#jobs + #machines`` fractional assignments and round faster, so
  rounding-sensitive callers request this method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .._validation import cost, raises
from ..exceptions import InfeasibleError, SolverError, UnboundedError
from ..obs.metrics import counter
from ..obs.trace import span
from .model import LinExpr, Model, RowBlock, Variable

__all__ = ["Solution", "solve_model"]

_SUPPORTED_METHODS = ("highs", "highs-ds", "highs-ipm")

# Internal sign of each constraint sense: ">=" rows are negated into
# "<=" rows, the other two keep their coefficients.
_FLIP = {"<=": 1.0, ">=": -1.0, "==": 1.0}

# Every LP in the library funnels through solve_model(), so these two
# counters are the authoritative solver-effort telemetry (surfaced by
# `repro profile` and the bench reports).
_LP_SOLVES = counter("lp.solve.count")
_LP_ITERATIONS = counter("lp.iterations.total")


@dataclass(frozen=True)
class Solution:
    """An optimal solution to a linear program.

    Attributes
    ----------
    objective:
        Optimal objective value, in the *model's* sense (a maximization
        model reports the maximum, not the negated internal minimum).
    values:
        Optimal value of every variable, in index order.
    status:
        Human-readable solver status (always ``"optimal"``; failures raise).
    iterations:
        Simplex/IPM iteration count reported by HiGHS, for diagnostics.
    constraint_duals:
        Dual values (shadow prices), one per constraint in the order they
        were added to the model (a :class:`~repro.lp.model.RowBlock`
        contributes its rows in block order), sign-normalized to the
        model's sense: the marginal change of the reported optimum per
        unit increase of the constraint's right-hand side.  ``None`` when
        the backend did not report duals.
    """

    objective: float
    values: np.ndarray
    status: str
    iterations: int
    constraint_duals: np.ndarray | None = None

    def dual_of(self, constraint) -> float:
        """Shadow price of a constraint added to the solved model.

        Requires the constraint object returned by
        :meth:`repro.lp.model.Model.add_constraint` and that the backend
        reported duals.
        """
        index = getattr(constraint, "_dual_index", None)
        if index is None:
            raise SolverError(
                "constraint carries no dual index; was it added to the "
                "model that produced this solution?"
            )
        if self.constraint_duals is None:
            raise SolverError("the solver reported no dual values")
        return float(self.constraint_duals[index])

    def block_duals(self, block: RowBlock) -> np.ndarray:
        """Shadow prices of the rows of *block*, in block row order.

        Requires the handle returned by
        :meth:`repro.lp.model.Model.add_rows` on the solved model and
        that the backend reported duals.
        """
        if self.constraint_duals is None:
            raise SolverError("the solver reported no dual values")
        if block.start + block.size > len(self.constraint_duals):
            raise SolverError(
                f"row block {block.name!r} does not belong to the model "
                "that produced this solution"
            )
        return self.constraint_duals[block.start : block.start + block.size].copy()

    def value(self, variable: Variable) -> float:
        """The optimal value of *variable*."""
        return float(self.values[variable.index])

    def expression_value(self, expr: LinExpr) -> float:
        """Evaluate a linear expression at the optimal point."""
        return float(
            sum(coef * self.values[index] for index, coef in expr.coefficients.items())
            + expr.constant
        )


class CompiledLP(NamedTuple):
    """A model in :func:`scipy.optimize.linprog` form.

    ``is_eq`` and ``flip`` map the model's constraint positions to the
    internal rows: the equality rows, in position order, make up
    ``a_eq``; the others, in position order, make up ``a_ub`` with
    their coefficients multiplied by ``flip``.
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    bounds: list[tuple[float, float]]
    sign: float
    is_eq: np.ndarray
    flip: np.ndarray


def _compile(model: Model) -> CompiledLP:
    """Build the (c, A_ub, b_ub, A_eq, b_eq, bounds) input of linprog.

    Every constraint becomes COO entries keyed by its position in the
    model: a comparison-built :class:`~repro.lp.model.Constraint` is one
    row ``expr (sense) 0``, and a bulk row ``A x (sense) rhs`` is read as
    the expression ``A x - rhs``, so both normalize identically (a zero
    right-hand side compiles to ``-0.0`` either way).  The entries are
    concatenated once and split into the ``<=`` and ``==`` matrices by
    vectorized position maps; the CSR conversion sorts each row, so the
    order of entries within a row does not reach the solver.
    """
    n = model.num_variables
    objective = model._objective
    if objective is None:
        raise SolverError(f"model {model.name!r} has no objective; call minimize()/maximize()")
    sign = 1.0 if model._sense == "min" else -1.0
    c = np.zeros(n)
    terms = len(objective.coefficients)
    c[np.fromiter(objective.coefficients, dtype=np.intp, count=terms)] = sign * np.fromiter(
        objective.coefficients.values(), dtype=float, count=terms
    )

    m = model.num_constraints
    constants = np.empty(m)
    flip = np.empty(m)
    is_eq = np.empty(m, dtype=bool)
    single_rows: list[int] = []
    single_cols: list[int] = []
    single_data: list[float] = []
    row_parts, col_parts, data_parts = [], [], []
    position = 0
    for item in model._constraints:
        if isinstance(item, RowBlock):
            occupied = slice(position, position + item.size)
            constants[occupied] = 0.0 - item.rhs
            row_parts.append(position + item.rows)
            col_parts.append(item.cols)
            data_parts.append(item.data)
        else:
            occupied = slice(position, position + 1)
            item._dual_index = position
            coefficients = item.expr.coefficients
            constants[position] = item.expr.constant
            single_rows += [position] * len(coefficients)
            single_cols += coefficients
            single_data += coefficients.values()
        flip[occupied] = _FLIP[item.sense]
        is_eq[occupied] = item.sense == "=="
        position = occupied.stop
    rows = np.concatenate([np.array(single_rows, dtype=np.intp), *row_parts])
    cols = np.concatenate([np.array(single_cols, dtype=np.intp), *col_parts])
    data = flip[rows] * np.concatenate([np.array(single_data, dtype=float), *data_parts])
    rhs = -flip * constants

    # A position's internal row is its rank among positions of its kind.
    internal = np.where(is_eq, np.cumsum(is_eq), np.cumsum(~is_eq)) - 1
    entry_eq = is_eq[rows]

    def matrix(kind_rows: np.ndarray, kind_entries: np.ndarray):
        count = int(kind_rows.sum())
        if not count:
            return None, None
        coo = (data[kind_entries], (internal[rows[kind_entries]], cols[kind_entries]))
        return sparse.csr_matrix(coo, shape=(count, n)), rhs[kind_rows]

    a_ub, b_ub = matrix(~is_eq, ~entry_eq)
    a_eq, b_eq = matrix(is_eq, entry_eq)
    return CompiledLP(c, a_ub, b_ub, a_eq, b_eq, model.bounds(), sign, is_eq, flip)


@cost("n**2 * q**2")
@raises("InfeasibleError", "UnboundedError", transient=("SolverError",))
def solve_model(model: Model, method: str = "highs") -> Solution:
    """Solve *model* and return its optimal :class:`Solution`.

    Raises
    ------
    InfeasibleError
        If the constraints admit no feasible point.
    UnboundedError
        If the objective is unbounded in the optimization direction.
    SolverError
        For any other solver failure (iteration limit, numerical issues)
        or if no objective was set.
    """
    if method not in _SUPPORTED_METHODS:
        raise SolverError(
            f"unsupported LP method {method!r}; expected one of {_SUPPORTED_METHODS}"
        )
    with span("lp.compile", model=model.name) as sp:
        lp = _compile(model)
        sp.set(
            rows=model.num_constraints,
            nonzeros=sum(a.nnz for a in (lp.a_ub, lp.a_eq) if a is not None),
        )
    with span(
        "lp.solve",
        model=model.name,
        method=method,
        variables=model.num_variables,
        constraints=model.num_constraints,
    ) as sp:
        result = linprog(
            lp.c,
            A_ub=lp.a_ub,
            b_ub=lp.b_ub,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=lp.bounds,
            method=method,
        )
        _LP_SOLVES.inc()
        if result.status == 2:
            raise InfeasibleError(f"LP {model.name!r} is infeasible")
        if result.status == 3:
            raise UnboundedError(f"LP {model.name!r} is unbounded")
        if not result.success:
            raise SolverError(f"LP {model.name!r} failed: {result.message}")
        values = np.asarray(result.x, dtype=float)
        constant = model._objective.constant if model._objective is not None else 0.0
        objective = lp.sign * float(result.fun) + constant
        iterations = int(getattr(result, "nit", 0) or 0)
        _LP_ITERATIONS.inc(iterations)
        sp.set(iterations=iterations)

    # Normalize HiGHS marginals to per-added-constraint shadow prices in
    # the model's sense: d(objective)/d(rhs).  The internal problem is a
    # minimization of sign * objective; a ">=" constraint flips its rhs.
    # Internal rows of each kind follow position order, so each kind's
    # marginals scatter straight back onto its positions.
    constraint_duals: np.ndarray | None = None
    ub_marginals = getattr(getattr(result, "ineqlin", None), "marginals", None)
    eq_marginals = getattr(getattr(result, "eqlin", None), "marginals", None)
    is_eq = lp.is_eq
    has_eq, has_ub = bool(is_eq.any()), not bool(is_eq.all())
    if (has_eq or has_ub) and (eq_marginals is not None or not has_eq) and (
        ub_marginals is not None or not has_ub
    ):
        marginals = np.empty(len(is_eq))
        if has_eq:
            marginals[is_eq] = eq_marginals
        if has_ub:
            marginals[~is_eq] = ub_marginals
        constraint_duals = lp.sign * lp.flip * marginals

    return Solution(
        objective=objective,
        values=values,
        status="optimal",
        iterations=iterations,
        constraint_duals=constraint_duals,
    )
