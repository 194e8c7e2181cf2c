"""Recovery metrics, the high-probability loss bound, and inequality checks.

The bound and the two inequality checks mirror the analysis the estimators
rest on; the checks return (lhs, rhs) pairs so harness code and tests can
assert the inequality and inspect the gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import (
    _orthogonal_procrustes,
    _svd,
    as_matrix,
    condition_number,
    frobenius_norm,
    singular_values,
    sym_eigvals,
)
from .model import (
    Rng,
    _check_covariance,
    as_covariance,
    as_permutation,
    random_orthogonal,
    snr,
    stream,
)
from .tls import tls_objective


def hamming_distance(pi_a, pi_b) -> int:
    """Number of positions where the two permutations disagree."""
    a = as_permutation(pi_a)
    return _hamming_distance(a, as_permutation(pi_b, a.size))


def _hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """hamming_distance() on validated permutations of one length."""
    return int(np.count_nonzero(a != b))


def quadratic_loss(x, pi_star, pi_hat) -> float:
    """Mean squared row displacement (1/np) ||x[pi_hat] - x[pi_star]||_F^2."""
    mat = as_matrix(x, "design")
    n = mat.shape[0]
    return _quadratic_loss(mat, as_permutation(pi_star, n), as_permutation(pi_hat, n))


def _quadratic_loss(mat: np.ndarray, star: np.ndarray, hat: np.ndarray) -> float:
    """quadratic_loss() on a validated design and permutations of its rows."""
    n, p = mat.shape
    diff = mat[hat] - mat[star]
    return float(np.sum(diff * diff)) / (n * p)


def procrustes_loss(x, pi_star, pi_hat) -> float:
    """Normalized alignment loss, invariant to orthogonal re-mixing.

    (1/||x||_F^2) min over orthogonal q of ||x[pi_star] - x[pi_hat] q||_F^2.
    Zero whenever the misassignment is absorbable by an orthogonal map, even
    if the permutations differ.
    """
    mat = as_matrix(x, "design")
    n = mat.shape[0]
    return _procrustes_loss(mat, as_permutation(pi_star, n), as_permutation(pi_hat, n))


def _procrustes_loss(mat: np.ndarray, star: np.ndarray, hat: np.ndarray) -> float:
    """procrustes_loss() on a validated design and permutations of its rows."""
    denom = float(np.linalg.norm(mat)) ** 2
    if denom <= 0.0:
        raise ContractViolation("design must be nonzero")
    _, raw = _orthogonal_procrustes(mat[star], mat[hat])
    return raw / denom


# -- high-probability loss bound --------------------------------------------

@dataclass
class BoundValue:
    """Assembled bound plus the quantities it was built from.

    probability_statement = 1 - n^(-eta^2) is the headline confidence level;
    probability_derivation = 1 - 2p * n^(-eta^2) is the conservative level the
    union-bound argument actually delivers. Raw values are stored (the second
    can go negative for small n); display code clips to [0, 1]. noiseless
    marks the zero-covariance case, where the bound degenerates to 0.
    """

    bound: float
    a_n: float
    snr: float
    probability_statement: float
    probability_derivation: float
    noiseless: bool = False


def recovery_bound(x, r, sigma, eta: float, c: float = 1.0 / 32.0) -> BoundValue:
    """Upper bound on the normalized alignment loss of the exact estimator.

    Holds with probability at least probability_statement for designs at the
    stated snr. The mixing matrix enters only through its extreme singular
    values, clipped at 1 from above (largest) and below (smallest).
    """
    mat = as_matrix(x, "design")
    n, p = mat.shape
    if n < 2:
        raise ContractViolation("bound needs n >= 2")
    rm = as_matrix(r, "mixing matrix")
    if rm.shape != (p, p):
        raise ContractViolation(f"mixing matrix must be {p}x{p}, got {rm.shape}")
    if not (0.0 < eta < math.inf and 0.0 < c < math.inf):
        raise ContractViolation("eta and c must be positive")
    norm_x = frobenius_norm(mat)
    if norm_x <= 0.0:
        raise ContractViolation("design must be nonzero")
    cov = as_covariance(sigma, p)
    vals = sym_eigvals(cov)
    lam1 = float(vals[0])
    trace = float(vals.sum())
    prob_statement = 1.0 - n ** (-eta * eta)
    prob_derivation = 1.0 - 2.0 * p * n ** (-eta * eta)
    if lam1 <= 0.0:
        return BoundValue(
            bound=0.0, a_n=0.0, snr=float("inf"),
            probability_statement=prob_statement,
            probability_derivation=prob_derivation,
            noiseless=True,
        )
    sr = singular_values(rm)
    if sr[-1] <= 1e-12 * sr[0]:
        raise ContractViolation("mixing matrix must be invertible")
    s_top = max(1.0, float(sr[0]))
    s_bot = min(1.0, float(sr[-1]))
    a_n = math.sqrt((trace / lam1) * math.log(n) / (c * n))
    bound = (2.0 * p / (s_bot ** 2 * norm_x ** 2)) * (1.0 + eta * a_n) * lam1 * (
        16.0 * s_top * norm_x * math.sqrt(2.0 * n) + 2.0 * n
    )
    return BoundValue(
        bound=bound, a_n=a_n, snr=snr(mat, cov),
        probability_statement=prob_statement,
        probability_derivation=prob_derivation,
    )


def eig_tail_rhs(sigma, n: int, eps: float, c: float = 1.0 / 32.0) -> float:
    """Tail probability bound for the top eigenvalue of the stacked noise Gram.

    Bounds Pr(largest eigenvalue >= 2 n lam1 (1 + eps)) by
    2p exp(-c n eps^2 lam1 / trace), clipped at 1. Valid for 0 < eps <= 4n.
    """
    cov = as_matrix(sigma, "covariance")
    p = cov.shape[0]
    cov = _check_covariance(cov, p)
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if not 0.0 < eps <= 4.0 * n:
        raise ContractViolation(f"eps must lie in (0, 4n], got {eps}")
    if not 0.0 < c < math.inf:
        raise ContractViolation("c must be positive")
    vals = sym_eigvals(cov)
    lam1 = float(vals[0])
    if lam1 <= 0.0:
        raise ContractViolation("covariance must have a positive top eigenvalue")
    trace = float(vals.sum())
    raw = 2.0 * p * math.exp(-c * n * eps * eps * lam1 / trace)
    return min(1.0, raw)


# -- inequality checks -------------------------------------------------------

def procrustes_residual_gap(x, pi) -> tuple[float, float]:
    """(lhs, rhs) of: best orthogonal alignment of x[pi] onto x is bounded by
    twice the rank-p residual of [x | x[pi]]. Needs a perfectly conditioned x."""
    mat = as_matrix(x, "design")
    if abs(condition_number(mat) - 1.0) > 1e-6:
        raise ContractViolation("check requires condition number 1")
    perm = as_permutation(pi, mat.shape[0])
    _, lhs = _orthogonal_procrustes(mat, mat[perm])
    rhs = 2.0 * tls_objective(mat, mat[perm])
    return lhs, rhs


def trace_max_check(x, pi, samples: int = 256, rng: Rng | None = None) -> tuple[float, float]:
    """(lhs, rhs) of: max of 2 tr(u.T m v) over u.T u + v.T v = I equals the
    nuclear norm of m = x.T @ x[pi].

    lhs is the best value over sampled feasible pairs plus the constructed
    maximizer (orthogonal pair scaled by 1/sqrt(2)), so lhs should match rhs
    to rounding while never exceeding it.
    """
    mat = as_matrix(x, "design")
    perm = as_permutation(pi, mat.shape[0])
    p = mat.shape[1]
    if samples < 0:
        raise ContractViolation("samples must be nonnegative")
    if rng is None:
        rng = stream(0)
    m = mat.T @ mat[perm]
    f = _svd(m)
    rhs = float(f.s.sum())

    def value(u: np.ndarray, v: np.ndarray) -> float:
        return 2.0 * float(np.sum(u * (m @ v)))

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    best = value(f.u * inv_sqrt2, f.v * inv_sqrt2)
    for k in range(samples):
        if k % 2 == 0:
            # general feasible pair: orthonormal columns of a tall QR, split
            q, _ = np.linalg.qr(rng.standard_normal((2 * p, p)))
            u, v = q[:p], q[p:]
        else:
            # scaled pair of independent orthogonal matrices
            u = random_orthogonal(p, rng) * inv_sqrt2
            v = random_orthogonal(p, rng) * inv_sqrt2
        best = max(best, value(u, v))
    return best, rhs
