"""Linear assignment: minimum-cost bijection between rows and columns.

scipy.optimize, which holds the solver, is imported on the first assignment
and bound once, by ``_bind_assignment``; a sweep that assigns binds it before
its first timed trial. Brute force, the loss bound and the inequality suites
never assign, and scipy.optimize (with the scipy.sparse and scipy.spatial it
loads) is about a third of the package's import time.

scipy's solver is Crouse's shortest augmenting path (Crouse 2016, "On
implementing 2D rectangular assignment algorithms"), which starts from zero
dual prices. ``solve_lap`` hands it the column-reduced cost, each column less
its minimum, the opening step of Jonker and Volgenant (1987): every column
then holds a zero, and scipy reaches the optimum in fewer augmenting steps.
The reduction is exact. A bijection uses each column once, so it shifts every
assignment's total by the same constant and leaves the set of optimal
assignments unchanged; the returned total is summed from the caller's matrix.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NumericalFailure
from .linalg import as_matrix

_linear_sum_assignment = None  # scipy.optimize.linear_sum_assignment, once bound


def solve_lap(cost) -> tuple[np.ndarray, float]:
    """Minimize sum_i cost[i, a[i]] over bijections a of 0..n-1.

    Returns (assignment, total). The cost matrix must be square with finite
    entries; the optimum is exact, not approximate, and the total is summed
    from `cost` itself.

    scipy solves the column-reduced matrix, `cost` less each column's
    minimum, which has the same optimal assignments. Where several
    assignments are exactly optimal, the one returned may differ from the one
    scipy picks on the unreduced matrix; every pick is optimal. A finite cost
    whose column range exceeds the float range has no finite reduction, and
    is solved as given, without a warning. An optimal total that overflows
    the float range raises NumericalFailure, the package's one overflow rule.
    """
    c = as_matrix(cost, "cost matrix")
    if c.shape[0] != c.shape[1]:
        raise ContractViolation(f"cost matrix must be square, got {c.shape}")
    with np.errstate(over="raise"):
        try:
            reduced = c - c.min(axis=0)
        except FloatingPointError:
            reduced = c
        rows, cols = (_linear_sum_assignment or _bind_assignment())(reduced)
        try:
            return cols.astype(np.intp, copy=False), float(c[rows, cols].sum())
        except FloatingPointError as exc:
            raise NumericalFailure("assignment total overflows the float range") from exc


def _bind_assignment():
    """Import scipy's assignment, bind it and return it; binding again is a
    no-op."""
    global _linear_sum_assignment
    from scipy.optimize import linear_sum_assignment as _linear_sum_assignment
    return _linear_sum_assignment
