"""Test oracles shared by several test modules: designs with known exact
alignments and factorization-free reference values."""
from __future__ import annotations

import numpy as np


def block_design(half: int):
    """Points stacked on (1, 0) and (0, 1), identity mixing. Any alignment
    that keeps the two groups intact is exact."""
    x = np.vstack((np.tile([1.0, 0.0], (half, 1)),
                   np.tile([0.0, 1.0], (half, 1))))
    swap = np.concatenate((np.arange(half, 2 * half), np.arange(half)))
    return x, swap


def grid_procrustes_loss(a: np.ndarray, b: np.ndarray, step: float = 1e-3) -> float:
    """Oracle: minimize ||a - b q||_F^2 by brute force over a dense angle grid
    covering both components (rotations and reflections) of the 2-D orthogonal
    group. Exact objective values at each grid point, no factorization."""
    m = b.T @ a
    base = float(np.sum(a * a) + np.sum(b * b))
    thetas = np.arange(0.0, 2.0 * np.pi, step)
    c, s = np.cos(thetas), np.sin(thetas)
    rot_trace = c * (m[0, 0] + m[1, 1]) + s * (m[1, 0] - m[0, 1])
    ref_trace = c * (m[0, 0] - m[1, 1]) + s * (m[0, 1] + m[1, 0])
    return base - 2.0 * max(float(rot_trace.max()), float(ref_trace.max()))
