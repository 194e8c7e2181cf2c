"""Dense linear-algebra primitives with pinned conventions.

Everything downstream assumes the conventions fixed here: thin factorizations,
singular values sorted descending, and singular vectors with the signs LAPACK
chose. Callers that use both factors pair u_k with v_k, so a joint sign flip
cancels bit for bit; ``model.generate_design`` keeps u alone and fixes its
signs itself. The only public function is ``as_matrix``, the check that the
package's public functions run on their matrix inputs; the underscored kernels
(``_svd_factors``, ``_singular_values``, ``_solve``, ``_orthogonal_procrustes``,
``_rank_deficient``) take checked input.

The small dense kernels call LAPACK drivers from ``scipy.linalg.lapack``
directly, bound once below: ``dgesdd`` for the thin SVD and for singular
values alone, ``dgesv`` for square solves, ``dlange`` for the largest
magnitude and the Frobenius norm. ``tls.tls_objective`` checks its stack with
``_lange`` and scores it by ``_singular_values``.
``model._covariance`` takes Frobenius norms from ``_lange``, which scales its
sum of squares and so overflows only when the norm itself does. At the sizes
used here the ``numpy.linalg`` wrappers cost more than the LAPACK work. The
drivers return Fortran-ordered arrays; every kernel here returns C-ordered
ones, as ``numpy.linalg`` does, because later reductions and products sum in
memory order and outputs must not depend on the route. A nonzero LAPACK ``info``
raises NumericalFailure.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import ContractViolation, NumericalFailure

_gesdd = lapack.dgesdd
_gesv = lapack.dgesv
_lange = lapack.dlange


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, rejecting anything else."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractViolation(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{name} contains NaN or Inf entries")
    return arr


def _svd_factors(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw thin factors (u, s, v) of a validated matrix, a = u @ diag(s) @ v.T,
    C-ordered, with the signs LAPACK chose."""
    u, s, vt, info = _gesdd(arr, compute_uv=1, full_matrices=0)
    _check_info("dgesdd", info)
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt.T)


def _singular_values(arr: np.ndarray) -> np.ndarray:
    """Singular values of a validated matrix, descending. Cheaper than
    _svd_factors when the factors are unused."""
    # compute_uv=0 by position: f2py's keyword parsing is a measurable share
    # of a call brute force makes per permutation
    _, s, _, info = _gesdd(arr, 0)
    _check_info("dgesdd", info)
    return s


def _rank_deficient(s: np.ndarray) -> bool:
    """The one numerical-rank rule, on singular values s sorted descending."""
    return s[0] <= 0.0 or s[-1] <= 1e-10 * s[0]


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


def _orthogonal_procrustes(am: np.ndarray, bm: np.ndarray) -> tuple[np.ndarray, float]:
    """Best orthogonal alignment of bm onto am, validated matrices of one shape.

    Returns (q, loss) with q minimizing ||am - bm q||_F^2 over the full orthogonal
    group, reflections included, and loss the attained minimum.
    """
    u, _, v = _svd_factors(bm.T @ am)
    q = u @ v.T
    loss = float(np.linalg.norm(am - bm @ q) ** 2)
    return q, loss

