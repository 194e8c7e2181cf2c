"""Linear assignment: minimum-cost bijection between rows and columns."""
from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContractViolation
from .linalg import as_matrix


def solve_lap(cost) -> tuple[np.ndarray, float]:
    """Minimize sum_i cost[i, a[i]] over bijections a of 0..n-1.

    Returns (assignment, total). The cost matrix must be square with finite
    entries; the optimum is exact, not approximate.
    """
    c = as_matrix(cost, "cost matrix")
    if c.shape[0] != c.shape[1]:
        raise ContractViolation(f"cost matrix must be square, got {c.shape}")
    rows, cols = linear_sum_assignment(c)
    assignment = cols.astype(np.intp, copy=False)
    return assignment, float(c[rows, cols].sum())
