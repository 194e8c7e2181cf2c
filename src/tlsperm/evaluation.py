"""Recovery metrics, the high-probability loss bound, the inequality checks
and their randomized suite.

The bounds and the two inequality checks mirror the analysis the estimators
rest on; the checks return (lhs, rhs) pairs so harness code and tests can
assert the inequality and inspect the gap. run_lemma_suite, which ``tlsperm
lemma`` runs, draws random instances for both checks and for the noise-Gram
tail bound, and owns the tolerances that turn a gap into a violation. Both
bounds read the noise covariance only through its eigenvalues, taken once by
``model._covariance``; a design norm, trace or bound that overflows raises
NumericalFailure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalFailure
from .linalg import (_orthogonal_procrustes, _rank_deficient, _singular_values, _svd_factors,
                     as_matrix)
from .model import (Rng, _covariance, _snr, as_covariance, as_permutation, generate_design,
                    random_orthogonal, random_permutation, stream)
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
    if the permutations differ, and exactly zero when they are equal.
    """
    mat = as_matrix(x, "design")
    n = mat.shape[0]
    return _procrustes_loss(mat, as_permutation(pi_star, n), as_permutation(pi_hat, n))


def _procrustes_loss(mat: np.ndarray, star: np.ndarray, hat: np.ndarray) -> float:
    """procrustes_loss() on a validated design and permutations of its rows."""
    denom = float(np.linalg.norm(mat)) ** 2
    if denom <= 0.0:
        raise ContractViolation("design must be nonzero")
    if np.array_equal(star, hat):  # q = I aligns exactly; a fitted q is only near I
        return 0.0
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
    with np.errstate(over="ignore"):  # an overflowing norm is inf, checked below
        norm_x = float(np.linalg.norm(mat))
    if norm_x <= 0.0:
        raise ContractViolation("design must be nonzero")
    cov, vals = _covariance(sigma, p)
    lam1 = float(vals[0])
    with np.errstate(over="ignore"):  # an overflowing trace is inf, checked below
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
    sr = _singular_values(rm)
    if _rank_deficient(sr):
        raise ContractViolation("mixing matrix must be invertible")
    s_top = max(1.0, float(sr[0]))
    s_bot = min(1.0, float(sr[-1]))
    a_n = math.sqrt((trace / lam1) * math.log(n) / (c * n))
    bound = (2.0 * p / (s_bot ** 2 * norm_x ** 2)) * (1.0 + eta * a_n) * lam1 * (
        16.0 * s_top * norm_x * math.sqrt(2.0 * n) + 2.0 * n
    )
    if not all(map(math.isfinite, (norm_x, trace, a_n, bound))):
        raise NumericalFailure("loss bound is not finite; the inputs may overflow")
    return BoundValue(
        bound=bound, a_n=a_n, snr=_snr(mat, cov),
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
    _, vals = _covariance(cov, p)
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if not 0.0 < eps <= 4.0 * n:
        raise ContractViolation(f"eps must lie in (0, 4n], got {eps}")
    if not 0.0 < c < math.inf:
        raise ContractViolation("c must be positive")
    lam1 = float(vals[0])
    if lam1 <= 0.0:
        raise ContractViolation("covariance must have a positive top eigenvalue")
    with np.errstate(over="ignore"):
        trace = float(vals.sum())
    if not math.isfinite(trace):
        raise NumericalFailure("covariance trace is not finite")
    raw = 2.0 * p * math.exp(-c * n * eps * eps * lam1 / trace)
    return min(1.0, raw)


# -- inequality checks -------------------------------------------------------

def procrustes_residual_gap(x, pi) -> tuple[float, float]:
    """(lhs, rhs) of: best orthogonal alignment of x[pi] onto x is bounded by
    twice the rank-p residual of [x | x[pi]]. Needs a perfectly conditioned x."""
    mat = as_matrix(x, "design")
    s = _singular_values(mat)
    # condition number s[0] / s[-1], inf for a wide or rank-deficient design
    if mat.shape[0] < mat.shape[1] or _rank_deficient(s) or abs(s[0] / s[-1] - 1.0) > 1e-6:
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
    u, s, v = _svd_factors(m)
    rhs = float(s.sum())

    def value(u: np.ndarray, v: np.ndarray) -> float:
        return 2.0 * float(np.sum(u * (m @ v)))

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    best = value(u * inv_sqrt2, v * inv_sqrt2)
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


# -- randomized inequality suite ---------------------------------------------

def run_lemma_suite(kind: str, trials: int, seed: int, n: int = 2000,
                    p: int = 2, eps: float = 0.5) -> list[dict]:
    """Randomized checks of the supporting inequalities.

    kinds: procrustes (alignment loss vs twice the rank-p residual), tracemax
    (constrained trace maximum vs nuclear norm), eigtail (empirical tail
    frequency of the stacked noise Gram vs its bound). Returns the rows: one
    per trial, or one for all of eigtail's, each with its 0/1 violation flag.
    """
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    # the eigtail options are checked on every kind, before any draw
    tail_rhs = eig_tail_rhs(as_covariance(1.0, p), n, eps)
    rows: list[dict] = []
    if kind in ("procrustes", "tracemax"):
        for t in range(trials):
            rng = stream(seed, t)
            pt = int(rng.integers(1, 4))
            nt = int(rng.integers(2 * pt, 13))
            x = generate_design(nt, pt, rng)
            perm = random_permutation(nt, rng)
            if kind == "procrustes":
                lhs, rhs = procrustes_residual_gap(x, perm)
                bad = lhs > rhs + 1e-9
            else:
                lhs, rhs = trace_max_check(x, perm, samples=64, rng=rng)
                bad = lhs > rhs + 1e-9 or lhs < rhs - max(0.02 * rhs, 1e-9)
            rows.append({"kind": kind, "trial": t, "n": nt, "p": pt,
                         "lhs": lhs, "rhs": rhs, "violation": int(bad)})
        return rows
    if kind != "eigtail":
        raise ContractViolation(f"unknown suite kind {kind!r}")
    threshold = 2.0 * n * (1.0 + eps)
    exceed = 0
    for t in range(trials):
        rng = stream(seed, t)
        e1 = rng.standard_normal((n, p))
        e2 = rng.standard_normal((n, p))
        top1 = float(np.linalg.eigvalsh(e1.T @ e1)[-1])
        top2 = float(np.linalg.eigvalsh(e2.T @ e2)[-1])
        if top2 + top1 >= threshold:
            exceed += 1
    freq = exceed / trials
    bad = freq > tail_rhs
    rows.append({"kind": kind, "trial": trials, "n": n, "p": p,
                 "lhs": freq, "rhs": tail_rhs, "violation": int(bad)})
    return rows
