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
block-coordinate descent. The engine stops at a fixed point, a stall, max_iter
or a degenerate fit. A non-finite objective or cost matrix (inputs so large
that squares overflow) raises NumericalFailure; numpy's overflow warnings are
silenced on the way, since the failure itself reports them.

Inputs are validated once, by the public functions. The engine and the
private kernels (``_cost``, ``tls._fit``, ``tls._objective``) take arrays that
are already validated.

Cost-matrix frame: every cost is built on the aligned pair the fit saw, y2
and y1p = y1[pi]. Entry (i, j) scores pairing y2 row i with aligned row j, so
an assignment ``a`` gives the next permutation ``pi[a]``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ContractViolation, DegenerateFit, NumericalFailure, RankDeficient
from .lap import solve_lap
from .linalg import _singular_values, as_matrix
from .model import as_permutation, identity_permutation
from .tls import TlsFit, _fit, _objective, _observation_pair, tls_objective

COST_KINDS = ("c1", "c2", "c3", "c4")

BRUTE_FORCE_LIMIT = 9
STALL_TOL = 1e-10  # relative; the only stop for ping-pong between exact ties


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


def brute_force_tls(y1, y2, limit: int = BRUTE_FORCE_LIMIT) -> EstimateResult:
    """Exact argmin of the rank-p residual over all n! row alignments.

    Refuses n > limit. Ties break to the lexicographically first permutation.
    Raises NumericalFailure when no alignment has a finite residual.
    """
    m1, m2, n, _ = _observation_pair(y1, y2)
    if n > limit:
        raise ContractViolation(f"brute force refused for n={n} > limit={limit}")
    best_obj = np.inf
    best_perm = identity_permutation(n)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for tup in itertools.permutations(range(n)):
            perm = np.array(tup, dtype=np.intp)
            obj = tls_objective(m2, m1[perm])
            count += 1
            if obj < best_obj:
                best_obj = obj
                best_perm = perm
    if not np.isfinite(best_obj):
        raise NumericalFailure("rank-p residual is not finite at any alignment")
    return EstimateResult(
        perm=best_perm,
        iterations=count,
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
        return cdist(m2, x_hat @ r_hat, "sqeuclidean")
    if kind == "c2":
        return cdist(x_hat, m1, "sqeuclidean")
    if kind == "c3":
        return cdist(m2, x_hat @ r_hat, "sqeuclidean") + cdist(x_hat, m1, "sqeuclidean")
    # c4: with u_i = r_hat @ y2[i], v_j = y1[j], m = r_hat r_hat.T + I, the
    # minimum equals ||y2_i||^2 + ||y1_j||^2 - (u_i+v_j).T m^{-1} (u_i+v_j).
    m = r_hat @ r_hat.T + np.eye(m1.shape[1])
    u = m2 @ r_hat.T
    mu = np.linalg.solve(m, u.T).T
    mv = np.linalg.solve(m, m1.T).T
    quad_u = np.einsum("ij,ij->i", m2, m2) - np.einsum("ij,ij->i", u, mu)
    quad_v = np.einsum("ij,ij->i", m1, m1) - np.einsum("ij,ij->i", m1, mv)
    return quad_u[:, None] + quad_v[None, :] - 2.0 * (u @ mv.T)


def _check_kind(kind: str) -> None:
    if kind not in COST_KINDS:
        raise ContractViolation(f"unknown cost kind {kind!r}, expected one of {COST_KINDS}")


def _start(y1, y2, init, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the inputs shared by the iterative schemes: (y1, y2, first perm)."""
    if max_iter < 1:
        raise ContractViolation("max_iter must be >= 1")
    m1, m2, n, _ = _observation_pair(y1, y2)
    pi = identity_permutation(n) if init is None else as_permutation(init, n)
    return m1, m2, pi


def _alternate(m1, pi, fit, cost, max_iter: int) -> tuple[EstimateResult, list[float]]:
    """Alternate fit and assignment from pi; return the result and the trace
    of the selection metric.

    fit(y1p) gives (selection metric, rank-p objective, model) at the aligned
    y1p = m1[pi], the model None when the fit is degenerate; cost(model, y1p)
    gives the assignment cost, whose assignment a makes pi[a] the next
    permutation. Each step descends, so an assignment can only revisit the
    current permutation. Stops at that fixed point, when the metric improves by
    at most STALL_TOL (relative), after max_iter fits, or on a degenerate fit,
    which sets the failure marker.
    """
    perms: list[np.ndarray] = []
    scores: list[float] = []
    objectives: list[float] = []
    converged = False
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iter):
            perms.append(pi)
            y1p = m1[pi]
            score, objective, model = fit(y1p)
            if not (math.isfinite(score) and math.isfinite(objective)):
                raise NumericalFailure("objective is not finite; the inputs may overflow")
            scores.append(score)
            objectives.append(objective)
            if model is None:
                failure = "degenerate_fit"
                break
            if it > 0 and scores[-2] - scores[-1] <= STALL_TOL * abs(scores[-2]):
                converged = True
                break
            c = cost(model, y1p)
            if not np.isfinite(c).all():
                raise NumericalFailure("cost matrix is not finite; the inputs may overflow")
            assignment, _ = solve_lap(c)
            pi_next = pi[assignment]
            if np.array_equal(pi_next, pi):
                converged = True
                break
            pi = pi_next
    best = int(np.argmin(scores))
    result = EstimateResult(perm=perms[best], iterations=len(scores),
                            objective_trace=objectives, best_objective=objectives[best],
                            converged=converged, failure=failure)
    return result, scores


def alta(y1, y2, kind: str = "c3", init=None, max_iter: int = 50) -> EstimateResult:
    """Alternate the rank-p fit with a linear assignment over cost `kind`.

    Each exact assignment minimises a majoriser of the rank-p objective, so it
    never rises. Stops at a fixed point, on a relative improvement of at most
    STALL_TOL, after max_iter fits, or on a degenerate fit, which sets a
    failure marker instead of raising. Returns the best recorded iterate.
    """
    _check_kind(kind)
    m1, m2, pi = _start(y1, y2, init, max_iter)

    def fit(y1p):
        try:
            f = _fit(m2, y1p)
        except DegenerateFit:
            objective = _objective(m2, y1p)
            return objective, objective, None
        return f.objective, f.objective, f

    def cost(f: TlsFit, y1p: np.ndarray) -> np.ndarray:
        return _cost(kind, f.x_hat, f.r_hat, y1p, m2)

    return _alternate(m1, pi, fit, cost, max_iter)[0]


def aloa(y1, y2, init=None, max_iter: int = 50) -> EstimateResult:
    """Alternate an ordinary-least-squares fit with a linear assignment.

    Treats y1 as a noise-free design: r solves min ||y1[pi] r - y2||_F and the
    assignment cost is ||y2[i] - (y1[pi] r)[j]||^2. Selection and stopping
    use the least-squares residual; the rank-p objective is recorded alongside
    for comparison with the other estimators.
    """
    m1, m2, pi = _start(y1, y2, init, max_iter)
    sv = _singular_values(m1)
    if sv[0] <= 0.0 or sv[-1] <= 1e-10 * sv[0]:
        raise RankDeficient("y1 must have full column rank for the least-squares route")

    def fit(y1p):
        r_hat, *_ = np.linalg.lstsq(y1p, m2, rcond=None)
        residual = float(np.linalg.norm(y1p @ r_hat - m2) ** 2)
        return residual, _objective(m2, y1p), r_hat

    def cost(r_hat: np.ndarray, y1p: np.ndarray) -> np.ndarray:
        return cdist(m2, y1p @ r_hat, "sqeuclidean")

    result, residuals = _alternate(m1, pi, fit, cost, max_iter)
    result.ols_residual_trace = residuals
    return result
