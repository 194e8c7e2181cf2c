"""Linear assignment: minimum-cost bijection between rows and columns.

scipy.optimize, which holds the solver, is imported on the first assignment
and bound once, by ``_bind_assignment``; a sweep that assigns binds it before
its first timed trial. Brute force, the loss bound and the inequality suites
never assign, and scipy.optimize (with the scipy.sparse and scipy.spatial it
loads) is about a third of the package's import time.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .linalg import as_matrix

_linear_sum_assignment = None  # scipy.optimize.linear_sum_assignment, once bound


def solve_lap(cost) -> tuple[np.ndarray, float]:
    """Minimize sum_i cost[i, a[i]] over bijections a of 0..n-1.

    Returns (assignment, total). The cost matrix must be square with finite
    entries; the optimum is exact, not approximate.
    """
    c = as_matrix(cost, "cost matrix")
    if c.shape[0] != c.shape[1]:
        raise ContractViolation(f"cost matrix must be square, got {c.shape}")
    rows, cols = (_linear_sum_assignment or _bind_assignment())(c)
    assignment = cols.astype(np.intp, copy=False)
    return assignment, float(c[rows, cols].sum())


def _bind_assignment():
    """Import scipy's assignment, bind it and return it; binding again is a
    no-op."""
    global _linear_sum_assignment
    from scipy.optimize import linear_sum_assignment as _linear_sum_assignment
    return _linear_sum_assignment
