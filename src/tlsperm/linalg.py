"""Dense linear-algebra primitives with pinned conventions.

Everything downstream assumes the conventions fixed here: thin factorizations,
singular values and eigenvalues sorted descending, and a deterministic sign for
singular vectors so repeated runs produce identical factors. The public
functions check their input with ``as_matrix``; the underscored kernels
(``_svd``, ``_singular_values``, ``_solve``, ``_orthogonal_procrustes``) take
matrices that are already checked.

The small dense kernels call LAPACK drivers from ``scipy.linalg.lapack``
directly, bound once below: ``dgesdd`` for the thin SVD and for singular
values alone, ``dgesv`` for square solves, ``dlange`` for the largest
magnitude behind a one-pass finiteness check. At the sizes used here the
``numpy.linalg`` wrappers cost more than the LAPACK work. The drivers return
Fortran-ordered arrays; every kernel here returns C-ordered ones, as
``numpy.linalg`` does, because later reductions and products sum in memory
order and outputs must not depend on the route. A nonzero LAPACK ``info``
raises NumericalFailure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ContractViolation, NumericalFailure

_gesdd = lapack.dgesdd
_gesv = lapack.dgesv
_lange = lapack.dlange

_RANK_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, rejecting anything else."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractViolation(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{name} contains NaN or Inf entries")
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """True when every entry of a float64 matrix is finite, in one pass: its
    largest magnitude (dlange propagates NaN) cannot overflow or raise numpy
    warnings, unlike a sum. A C-ordered array is read in place."""
    return math.isfinite(_lange("M", arr.T))


@dataclass
class SvdResult:
    """Thin SVD factors: a = u @ diag(s) @ v.T with s sorted descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _svd(arr: np.ndarray) -> SvdResult:
    """Thin SVD of a validated matrix with a deterministic sign convention.

    Each left singular vector is flipped, together with its right partner, so
    that its largest-magnitude entry is positive (first such entry on ties).
    The rule is applied to all columns at once: the pivot of column k is
    argmax |u[:, k]|, the first index among equal magnitudes, and columns
    whose pivot entry is negative are multiplied by -1 (exact, so the factors
    equal a column-by-column negation bit for bit). A pivot entry is never
    zero, as the columns of u have unit norm.
    """
    u, s, v = _svd_factors(arr)
    pivots = np.abs(u).argmax(axis=0)
    signs = np.copysign(1.0, u[pivots, np.arange(s.shape[0])])
    return SvdResult(u=u * signs, s=s, v=v * signs)


def _svd_factors(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw thin factors (u, s, v) of a validated matrix, a = u @ diag(s) @ v.T,
    C-ordered, with the signs LAPACK chose."""
    u, s, vt, info = _gesdd(arr, compute_uv=1, full_matrices=0)
    _check_info("dgesdd", info)
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt.T)


def singular_values(a) -> np.ndarray:
    """Singular values only, descending. Cheaper than _svd when factors are unused."""
    return _singular_values(as_matrix(a, "singular_values input"))


def _singular_values(arr: np.ndarray) -> np.ndarray:
    """singular_values() on an array that is already a validated matrix."""
    _, s, _, info = _gesdd(arr, compute_uv=0)
    _check_info("dgesdd", info)
    return s


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b for a validated square a and a matrix b, C-ordered."""
    _, _, x, info = _gesv(a, b)
    _check_info("dgesv", info)
    return np.ascontiguousarray(x)


def _check_info(driver: str, info: int) -> None:
    """Turn a nonzero LAPACK info into NumericalFailure: positive info is a
    failed convergence or an exactly singular factor, negative a bad argument."""
    if info != 0:
        raise NumericalFailure(f"{driver} failed with info={info}")


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending."""
    arr = as_matrix(a, "sym_eigvals input")
    if arr.shape[0] != arr.shape[1]:
        raise ContractViolation(f"sym_eigvals needs a square matrix, got {arr.shape}")
    asym = np.linalg.norm(arr - arr.T)
    if asym > 1e-12 * (1.0 + np.linalg.norm(arr)):
        raise ContractViolation("sym_eigvals input is not symmetric")
    vals = np.linalg.eigvalsh((arr + arr.T) / 2.0)
    return vals[::-1]


def _orthogonal_procrustes(am: np.ndarray, bm: np.ndarray) -> tuple[np.ndarray, float]:
    """Best orthogonal alignment of bm onto am, validated matrices of one shape.

    Returns (q, loss) with q minimizing ||am - bm q||_F^2 over the full orthogonal
    group, reflections included, and loss the attained minimum.
    """
    f = _svd(bm.T @ am)
    q = f.u @ f.v.T
    loss = float(np.linalg.norm(am - bm @ q) ** 2)
    return q, loss


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(a, "frobenius_norm input")))


def condition_number(a) -> float:
    """Ratio of largest to smallest singular value, inf when rank deficient."""
    arr = as_matrix(a, "condition_number input")
    if arr.shape[0] < arr.shape[1]:
        raise ContractViolation("condition_number expects at least as many rows as columns")
    s = _singular_values(arr)
    if s[0] <= 0.0 or s[-1] <= _RANK_TOL * s[0]:
        return float("inf")
    return float(s[0] / s[-1])
