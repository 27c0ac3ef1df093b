"""Declarative linear-programming layer over scipy's HiGHS solver.

Public surface:

* :class:`~repro.lp.model.Model` — build LPs with variables, expressions
  and constraints.
* :class:`~repro.lp.model.Variable`, :class:`~repro.lp.model.LinExpr`,
  :class:`~repro.lp.model.Constraint` — the modeling primitives.
* :meth:`~repro.lp.model.Model.add_variables` /
  :meth:`~repro.lp.model.Model.add_rows` — bulk columns and COO rows;
  the returned :class:`~repro.lp.model.RowBlock` reads back its duals
  through :meth:`~repro.lp.solve.Solution.block_duals`.
* :func:`~repro.lp.solve.solve_model` / :class:`~repro.lp.solve.Solution`
  — solving and reading back results.
"""

from .model import Constraint, LinExpr, Model, RowBlock, Variable
from .solve import Solution, solve_model

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "RowBlock",
    "Variable",
    "Solution",
    "solve_model",
]
