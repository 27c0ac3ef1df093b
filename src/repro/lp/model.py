"""A small declarative linear-programming modeling layer.

The paper's algorithms repeatedly need linear programs: the single-source
quorum placement LP (9)-(14), the GAP relaxation (15)-(18), and the
Naor-Wool load-optimal access strategy LP.  scipy's
:func:`scipy.optimize.linprog` wants raw matrices, which makes those
formulations error-prone to write directly.  This module provides the thin
modeling language the rest of the package builds on:

>>> from repro.lp import Model
>>> m = Model(name="example")
>>> x = m.variable("x", lb=0)
>>> y = m.variable("y", lb=0)
>>> _ = m.add_constraint(x + 2 * y >= 4, name="demand")
>>> m.minimize(3 * x + y)
>>> solution = m.solve()
>>> round(solution.objective, 6)
2.0
>>> round(solution.value(y), 6)
2.0

The layer is deliberately small: continuous variables, linear expressions,
``<=``/``>=``/``==`` constraints, and a single linear objective.  Large
structured LPs skip the expression objects altogether: :meth:`Model.add_variables`
and :meth:`Model.add_rows` take whole blocks of columns and coordinate
(COO) rows as numpy arrays, so the quorum-placement LPs (which have tens
of thousands of prefix-constraint nonzeros) cost numpy time to build and
compile, not Python-object time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .._validation import require
from ..exceptions import ValidationError

__all__ = ["Variable", "LinExpr", "Constraint", "RowBlock", "Model"]

Number = Union[int, float]


class LinExpr:
    """An immutable-ish linear expression ``sum(coef_i * var_i) + constant``.

    Expressions support ``+``, ``-``, scalar ``*`` and ``/``, and comparison
    operators that build :class:`Constraint` objects.  Variables are referred
    to by their integer index within a model; mixing variables from different
    models is detected when the constraint or objective is added.
    """

    __slots__ = ("coefficients", "constant")

    def __init__(
        self, coefficients: Mapping[int, float] | None = None, constant: float = 0.0
    ) -> None:
        self.coefficients: dict[int, float] = dict(coefficients or {})
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_terms(terms: Iterable[tuple["Variable", Number]], constant: float = 0.0) -> "LinExpr":
        """Build an expression from ``(variable, coefficient)`` pairs."""
        coefficients: dict[int, float] = {}
        for var, coef in terms:
            coefficients[var.index] = coefficients.get(var.index, 0.0) + float(coef)
        return LinExpr(coefficients, constant)

    def copy(self) -> "LinExpr":
        return LinExpr(self.coefficients, self.constant)

    # -- arithmetic ------------------------------------------------------------

    def _add_inplace(self, other: "LinExpr | Variable | Number", sign: float) -> "LinExpr":
        result = self.copy()
        if isinstance(other, LinExpr):
            for index, coef in other.coefficients.items():
                result.coefficients[index] = result.coefficients.get(index, 0.0) + sign * coef
            result.constant += sign * other.constant
        elif isinstance(other, Variable):
            result.coefficients[other.index] = result.coefficients.get(other.index, 0.0) + sign
        elif isinstance(other, (int, float)):
            result.constant += sign * other
        else:
            return NotImplemented
        return result

    def __add__(self, other: "LinExpr | Variable | Number") -> "LinExpr":
        return self._add_inplace(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other: "LinExpr | Variable | Number") -> "LinExpr":
        return self._add_inplace(other, -1.0)

    def __rsub__(self, other: "LinExpr | Variable | Number") -> "LinExpr":
        return (-self)._add_inplace(other, 1.0)

    def __neg__(self) -> "LinExpr":
        return LinExpr({i: -c for i, c in self.coefficients.items()}, -self.constant)

    def __mul__(self, scalar: Number) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return LinExpr(
            {i: c * scalar for i, c in self.coefficients.items()}, self.constant * scalar
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Number) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        if scalar == 0:
            # Mirrors Python number semantics on purpose: `expr / 0` must
            # behave like `1 / 0` for arithmetic-generic callers.
            raise ZeroDivisionError(  # repro-lint: disable=R002
                "division of linear expression by zero"
            )
        return self * (1.0 / scalar)

    # -- comparisons build constraints ------------------------------------------

    def __le__(self, other: "LinExpr | Variable | Number") -> "Constraint":
        return Constraint(self - other, "<=")

    def __ge__(self, other: "LinExpr | Variable | Number") -> "Constraint":
        return Constraint(self - other, ">=")

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        if isinstance(other, (LinExpr, Variable, int, float)):
            return Constraint(self - other, "==")
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # expressions are mutable accumulators

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coefficients.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


@dataclass(frozen=True)
class Variable:
    """A continuous decision variable belonging to a :class:`Model`.

    Instances are created via :meth:`Model.variable`; the dataclass is
    frozen so variables can be used as dictionary keys.
    """

    index: int
    name: str

    def to_expr(self) -> LinExpr:
        return LinExpr({self.index: 1.0})

    # Delegate arithmetic to LinExpr so `2 * x + y <= 3` works naturally.
    def __add__(self, other):
        return self.to_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return -self.to_expr() + other

    def __neg__(self):
        return -self.to_expr()

    def __mul__(self, scalar):
        return self.to_expr() * scalar

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.to_expr() / scalar

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    # NOTE: == on variables intentionally retains identity semantics from the
    # frozen dataclass so variables behave well in dicts and sets.  Build
    # equality constraints from expressions, e.g. ``x + 0 == 1`` or
    # ``x.to_expr() == 1``, or use Model.add_constraint(expr == rhs).


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalized form."""

    expr: LinExpr
    sense: str
    name: str = ""

    def __post_init__(self) -> None:
        require(self.sense in ("<=", ">=", "=="), f"invalid constraint sense {self.sense!r}")


@dataclass(frozen=True, eq=False)
class RowBlock:
    """A block of constraints added in one call to :meth:`Model.add_rows`.

    Row ``i`` of the block reads ``sum(data[k] * x[cols[k]]) (sense)
    rhs[i]``, the sum running over the entries ``k`` with ``rows[k] ==
    i``.  The block occupies constraint positions ``start ..
    start + size - 1`` of its model, so the handle is also how
    :meth:`repro.lp.solve.Solution.block_duals` finds the rows' shadow
    prices.
    """

    name: str
    sense: str
    start: int
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    rhs: np.ndarray

    @property
    def size(self) -> int:
        """Number of rows in the block."""
        return len(self.rhs)


@dataclass
class _VariableRecord:
    """``count`` consecutive variables sharing bounds (one for :meth:`Model.variable`)."""

    name: str
    lb: float
    ub: float
    count: int = 1


@dataclass
class Model:
    """A linear program under construction.

    Parameters
    ----------
    name:
        Optional human-readable model name used in error messages.
    """

    name: str = "model"
    _variables: list[_VariableRecord] = field(default_factory=list)
    _constraints: list[Constraint | RowBlock] = field(default_factory=list)
    _objective: LinExpr | None = None
    _sense: str = "min"
    _num_variables: int = 0
    _num_rows: int = 0

    # -- building ---------------------------------------------------------------

    def variable(
        self, name: str = "", *, lb: float = 0.0, ub: float = math.inf
    ) -> Variable:
        """Add a continuous variable with bounds ``lb <= x <= ub``.

        The default bounds (``0 <= x``) match the non-negativity convention
        of every LP in the paper.
        """
        if lb > ub:
            raise ValidationError(
                f"variable {name!r}: lower bound {lb} exceeds upper bound {ub}"
            )
        index = self._num_variables
        record = _VariableRecord(name or f"x{index}", float(lb), float(ub))
        self._variables.append(record)
        self._num_variables += 1
        return Variable(index, record.name)

    def variables(self, count: int, prefix: str = "x", **bounds) -> list[Variable]:
        """Add *count* variables named ``{prefix}0 .. {prefix}{count-1}``."""
        return [self.variable(f"{prefix}{i}", **bounds) for i in range(count)]

    def add_variables(
        self, count: int, *, lb: float = 0.0, ub: float = math.inf, name: str = "x"
    ) -> np.ndarray:
        """Add *count* variables sharing the bounds ``lb <= x <= ub``.

        Returns their column indices as an integer array, ready to index
        the ``cols`` of :meth:`add_rows`.  Variable ``i`` of the block is
        named ``{name}[i]`` (a block of one keeps the bare *name*).
        """
        require(count >= 0, f"variable count must be non-negative, got {count!r}")
        if lb > ub:
            raise ValidationError(
                f"variables {name!r}: lower bound {lb} exceeds upper bound {ub}"
            )
        start = self._num_variables
        self._variables.append(_VariableRecord(name, float(lb), float(ub), count))
        self._num_variables += count
        return np.arange(start, start + count)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparison operators."""
        if not isinstance(constraint, Constraint):
            raise ValidationError(
                "add_constraint expects a Constraint (built from a comparison "
                f"such as `expr <= 1`), got {constraint!r}"
            )
        self._check_indices(constraint.expr)
        if name:
            constraint.name = name
        self._constraints.append(constraint)
        self._num_rows += 1
        return constraint

    def add_rows(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        rhs: np.ndarray,
        sense: str,
        name: str = "",
    ) -> RowBlock:
        """Add ``len(rhs)`` constraints given as coordinate (COO) entries.

        Entry ``k`` puts coefficient ``data[k]`` on variable ``cols[k]``
        in row ``rows[k]`` of the block; row ``i`` then reads
        ``sum(entries) (sense) rhs[i]``.  Duplicate ``(row, col)``
        entries are summed.  Returns the :class:`RowBlock` handle.
        """
        require(sense in ("<=", ">=", "=="), f"invalid constraint sense {sense!r}")
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        data = np.asarray(data, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        one_dimensional = rows.ndim == cols.ndim == data.ndim == rhs.ndim == 1
        if not (one_dimensional and len(rows) == len(cols) == len(data)):
            raise ValidationError(
                f"row block {name!r}: rows, cols, data and rhs must be 1-D, "
                "with one row, column and coefficient per entry"
            )
        if len(rows) and (rows.min() < 0 or rows.max() >= len(rhs)):
            raise ValidationError(
                f"row block {name!r}: row indices must lie in [0, {len(rhs)})"
            )
        if len(cols) and (cols.min() < 0 or cols.max() >= self._num_variables):
            raise ValidationError(
                f"row block {name!r} references a column outside [0, "
                f"{self._num_variables}) of model {self.name!r}"
            )
        block = RowBlock(name, sense, self._num_rows, rows, cols, data, rhs)
        self._constraints.append(block)
        self._num_rows += block.size
        return block

    def minimize(self, objective: LinExpr | Variable) -> None:
        """Set a minimization objective."""
        self._set_objective(objective, "min")

    def maximize(self, objective: LinExpr | Variable) -> None:
        """Set a maximization objective."""
        self._set_objective(objective, "max")

    def _set_objective(self, objective: LinExpr | Variable, sense: str) -> None:
        expr = objective.to_expr() if isinstance(objective, Variable) else objective
        if not isinstance(expr, LinExpr):
            raise ValidationError(f"objective must be a linear expression, got {objective!r}")
        self._check_indices(expr)
        self._objective = expr
        self._sense = sense

    def _check_indices(self, expr: LinExpr) -> None:
        n = self._num_variables
        for index in expr.coefficients:
            if not 0 <= index < n:
                raise ValidationError(
                    f"expression references variable index {index}, but model "
                    f"{self.name!r} has only {n} variables; variables from a "
                    "different model were probably mixed in"
                )

    # -- introspection ------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._num_variables

    @property
    def num_constraints(self) -> int:
        """Number of constraint rows, bulk blocks counted row by row."""
        return self._num_rows

    def variable_name(self, index: int) -> str:
        start = 0
        for record in self._variables:
            if 0 <= index - start < record.count:
                if record.count == 1:
                    return record.name
                return f"{record.name}[{index - start}]"
            start += record.count
        raise ValidationError(f"model {self.name!r} has no variable {index}")

    def bounds(self) -> list[tuple[float, float]]:
        """Bounds for every variable, in index order."""
        bounds: list[tuple[float, float]] = []
        for record in self._variables:
            bounds += [(record.lb, record.ub)] * record.count
        return bounds

    # -- solving -----------------------------------------------------------------

    def solve(self, method: str = "highs"):
        """Solve the model; see :func:`repro.lp.solve.solve_model`."""
        from .solve import solve_model

        return solve_model(self, method=method)
