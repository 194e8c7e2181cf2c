"""Permutation estimators.

Three routes to a row alignment between y2 and y1:

* brute force over all n! permutations (small n only), exact argmin of the
  rank-p residual;
* an alternating scheme that interleaves the rank-p fit with a linear
  assignment over one of four cost matrices (c1..c4);
* a faster ordinary-least-squares alternation that ignores design noise.

Both iterative schemes run on one engine, ``_alternate``, and supply only a
fit step and a cost step. Both descend: an exact assignment minimises a
majoriser of the rank-p residual, and the least-squares scheme is
block-coordinate descent. The engine stops at a fixed point, a stall, MAX_ITER
fits or a degenerate fit.

Every estimator works in one frame: after validation, ``tls._framed_pair``
divides y1 and y2 by the power of two that puts their largest magnitude in
[0.5, 1). Every fit, cost, assignment and stop rule runs there, and each
objective returns to the caller's units by an exact power of two. So a common
rescaling of y1 and y2 by 2^k returns the same estimate, and an objective that
does not fit in the caller's units is the one overflow, a NumericalFailure.

Inputs are validated once, by the public functions. The engine and the private
kernels (``_cost``, ``tls._fit``) take arrays that are already validated.
alta's objectives, a degenerate fit's included, are the residuals ``tls._fit``
returns from its own SVD; brute force and aloa score by ``tls_objective``,
which checks a float64 pair in one pass over the stack it scores, other input
by ``_observation_pair`` first. ``solve_lap``'s scan never rejects
an engine cost: every one is a square float64 matrix, finite by construction,
since in the frame every entry is below 1, alta's fits pass a rank rule that
bounds r_hat (see ``tls._fit``), and aloa's fits are projections of y2.

Cost-matrix frame: every cost is built on the aligned pair the fit saw, y2
and y1p = y1[pi]. Entry (i, j) scores pairing y2 row i with aligned row j, so
an assignment ``a`` gives the next permutation ``pi[a]``.

The c1-c3 costs and aloa's cost are squared row distances from one helper,
``_sqdist`` (scipy's cdist). scipy.spatial loads at the first cost build and
scipy.optimize at the first assignment, not with the package, so brute force
loads neither.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, RankDeficient
from .lap import solve_lap
from .linalg import _rank_deficient, _solve, _svd_factors, as_matrix
from .model import as_permutation, identity_permutation
from .tls import TlsFit, _fit, _framed_pair, _observation_pair, _unscaled, tls_objective

COST_KINDS = ("c1", "c2", "c3", "c4")

BRUTE_FORCE_LIMIT = 9
STALL_TOL = 1e-10  # relative; the only stop for ping-pong between exact ties
MAX_ITER = 50  # fits per alternation

_cdist = None  # scipy.spatial.distance.cdist, once bound


@dataclass
class EstimateResult:
    """Outcome of one estimator run.

    perm is the best iterate found and best_objective its rank-p residual;
    objective_trace holds the rank-p residual of every evaluated iterate in
    visit order (a single entry for brute force). failure is None on clean
    runs, otherwise a short marker and the best iterate seen before the
    failure. ols_residual_trace is filled by the least-squares alternation,
    whose selection metric it is.
    """

    perm: np.ndarray
    iterations: int
    objective_trace: list[float]
    best_objective: float
    converged: bool
    failure: str | None = None
    ols_residual_trace: list[float] | None = field(default=None)


def brute_force_tls(y1, y2) -> EstimateResult:
    """Exact argmin of the rank-p residual over all n! row alignments.

    Refuses n > BRUTE_FORCE_LIMIT. Ties break to the lexicographically first permutation.
    Scores in the frame of ``_framed_pair``, where every residual is at most 2pn.
    """
    m1, m2, n, e = _framed_pair(y1, y2)
    if n > BRUTE_FORCE_LIMIT:
        raise ContractViolation(f"brute force refused for n={n} > limit={BRUTE_FORCE_LIMIT}")
    # permutations come in lexicographic order, so on a tie of objectives the
    # comparison of the permutations themselves picks the first enumerated
    best_obj, best_perm = min((tls_objective(m2, m1.take(perm, axis=0)), perm)
                              for perm in itertools.permutations(range(n)))
    best_obj = _unscaled(best_obj, e)
    return EstimateResult(
        perm=np.array(best_perm, dtype=np.intp),
        iterations=math.factorial(n),
        objective_trace=[best_obj],
        best_objective=best_obj,
        converged=True,
    )


def build_cost(kind: str, fit: TlsFit, y1p, y2) -> np.ndarray:
    """Assemble one of the four assignment cost matrices.

    fit = tls_fit(y2, y1p) at the aligned y1p = y1[pi]. Row i indexes y2 row i
    and column j aligned row j, so an assignment a gives the permutation pi[a].

    c1[i, j] = ||y2[i] - (x_hat @ r_hat)[j]||^2
    c2[i, j] = ||x_hat[i] - y1p[j]||^2
    c3 = c1 + c2
    c4[i, j] = min over x of ||y2[i] - r_hat.T @ x||^2 + ||y1p[j] - x||^2

    The c4 minimum has the closed form x = (r_hat r_hat.T + I)^{-1}
    (r_hat y2[i] + y1p[j]); the p x p system is factored once and the value is
    expanded so the whole matrix fills in O(n^2 p).
    """
    _check_kind(kind)
    m1, m2, _, p = _observation_pair(y1p, y2)
    x_hat = as_matrix(fit.x_hat, "x_hat")
    r_hat = as_matrix(fit.r_hat, "r_hat")
    if x_hat.shape != m1.shape or r_hat.shape != (p, p):
        raise ContractViolation("fit shapes are inconsistent with the observations")
    return _cost(kind, x_hat, r_hat, m1, m2)


def _cost(kind: str, x_hat: np.ndarray, r_hat: np.ndarray,
          m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """build_cost() on validated arrays."""
    if kind == "c1":
        return _sqdist(m2, x_hat @ r_hat)
    if kind == "c2":
        return _sqdist(x_hat, m1)
    if kind == "c3":
        return _sqdist(m2, x_hat @ r_hat) + _sqdist(x_hat, m1)
    # c4: with u_i = r_hat @ y2[i], v_j = y1[j], m = r_hat r_hat.T + I, the
    # minimum equals ||y2_i||^2 + ||y1_j||^2 - (u_i+v_j).T m^{-1} (u_i+v_j).
    m = r_hat @ r_hat.T + np.eye(m1.shape[1])
    u = m2 @ r_hat.T
    mu = _solve(m, u.T).T
    mv = _solve(m, m1.T).T
    quad_u = np.einsum("ij,ij->i", m2, m2) - np.einsum("ij,ij->i", u, mu)
    quad_v = np.einsum("ij,ij->i", m1, m1) - np.einsum("ij,ij->i", m1, mv)
    return quad_u[:, None] + quad_v[None, :] - 2.0 * (u @ mv.T)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, by scipy's
    cdist, which the first call binds."""
    return (_cdist or _bind_cdist())(a, b, "sqeuclidean")


def _bind_cdist():
    """Import scipy's cdist, bind it and return it; binding again is a no-op."""
    global _cdist
    from scipy.spatial.distance import cdist as _cdist
    return _cdist


def _check_kind(kind: str) -> None:
    if kind not in COST_KINDS:
        raise ContractViolation(f"unknown cost kind {kind!r}, expected one of {COST_KINDS}")


def _start(y1, y2, init) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Validate the inputs shared by the iterative schemes: (y1, y2) in the
    frame of _framed_pair, the first perm, and the frame's exponent."""
    m1, m2, n, e = _framed_pair(y1, y2)
    pi = identity_permutation(n) if init is None else as_permutation(init, n)
    return m1, m2, pi, e


def _alternate(m1, pi, e, fit, cost) -> tuple[EstimateResult, list[float]]:
    """Alternate fit and assignment from pi in the frame of _framed_pair;
    return the result and the trace of the selection metric, both scaled back
    to the caller's units by 2^e.

    fit(pi, y1p) gives (selection metric, rank-p objective, model) at the
    aligned y1p = m1[pi], the model None when the fit is degenerate;
    cost(model, y1p) gives the assignment cost, whose assignment a makes pi[a]
    the next permutation. Each step descends, so an assignment can only
    revisit the current permutation. Stops at that fixed point, when the
    metric improves by at most STALL_TOL (relative), after MAX_ITER fits, or
    on a degenerate fit, which sets the failure marker.
    """
    perms: list[np.ndarray] = []
    scores: list[float] = []
    objectives: list[float] = []
    converged = False
    failure = None
    for it in range(MAX_ITER):
        perms.append(pi)
        y1p = m1[pi]
        score, objective, model = fit(pi, y1p)
        scores.append(score)
        objectives.append(objective)
        if model is None:
            failure = "degenerate_fit"
            break
        if it > 0 and scores[-2] - scores[-1] <= STALL_TOL * abs(scores[-2]):
            converged = True
            break
        assignment, _ = solve_lap(cost(model, y1p))
        pi_next = pi[assignment]
        if (pi_next == pi).all():
            converged = True
            break
        pi = pi_next
    best = int(np.argmin(scores))
    objectives = [_unscaled(v, e) for v in objectives]
    result = EstimateResult(perm=perms[best], iterations=len(scores),
                            objective_trace=objectives, best_objective=objectives[best],
                            converged=converged, failure=failure)
    return result, [_unscaled(v, e) for v in scores]


def alta(y1, y2, kind: str = "c3", init=None) -> EstimateResult:
    """Alternate the rank-p fit with a linear assignment over cost `kind`.

    Each exact assignment minimises a majoriser of the rank-p objective, so it
    never rises. Stops at a fixed point, on a relative improvement of at most
    STALL_TOL, after MAX_ITER fits, or on a degenerate fit, which sets a
    failure marker instead of raising. Returns the best recorded iterate.
    """
    _check_kind(kind)
    m1, m2, pi, e = _start(y1, y2, init)

    def fit(pi, y1p):
        objective, f = _fit(m2, y1p)
        return objective, objective, f

    def cost(f: TlsFit, y1p: np.ndarray) -> np.ndarray:
        return _cost(kind, f.x_hat, f.r_hat, y1p, m2)

    return _alternate(m1, pi, e, fit, cost)[0]


def aloa(y1, y2, init=None) -> EstimateResult:
    """Alternate an ordinary-least-squares fit with a linear assignment.

    Treats y1 as a noise-free design: r solves min ||y1[pi] r - y2||_F and the
    assignment cost is ||y2[i] - (y1[pi] r)[j]||^2. Selection and stopping
    use the least-squares residual; the rank-p objective is recorded alongside
    for comparison with the other estimators.

    y1 is factored once, y1 = U S V.T in the frame. U[pi] spans the columns
    of y1[pi] with orthonormal columns, so the least-squares fit y1[pi] r is
    the projection U[pi] (U[pi].T y2), no larger than y2, and r itself is
    never formed.
    """
    m1, m2, pi, e = _start(y1, y2, init)
    u1, s1, _ = _svd_factors(m1)
    if _rank_deficient(s1):
        raise RankDeficient("y1 must have full column rank for the least-squares route")

    def fit(pi, y1p):
        fitted = u1[pi] @ (u1[pi].T @ m2)
        residual = float(np.linalg.norm(fitted - m2) ** 2)
        return residual, tls_objective(m2, y1p), fitted

    def cost(fitted: np.ndarray, y1p: np.ndarray) -> np.ndarray:
        return _sqdist(m2, fitted)

    result, residuals = _alternate(m1, pi, e, fit, cost)
    result.ols_residual_trace = residuals
    return result
