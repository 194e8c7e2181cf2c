"""Total-least-squares fit for a row-aligned observation pair.

Given y2 and an already-aligned y1p (both n x p), the fit finds the nearest
rank-p matrix to [y2 | y1p] in Frobenius norm. The residual, the sum of the
p smallest squared singular values of the stack, is the objective every
estimator in this package minimizes over row alignments.

``tls_objective`` scores it for brute force, aloa, cli and evaluation. alta
takes every iterate's from ``_fit``'s SVD, which returns the residual with the
fit, or with None when the denoised design fails the rank rule. It converts
any input to float arrays and checks a pair by one pass over the stack it
scores; a pair that pass refuses goes to its one fallback, ``_framed_pair``,
whose ``_observation_pair`` is the check ``tls_fit`` runs on every input.

The estimators' power-of-two frame lives here too: ``_framed_pair`` rescales a
validated pair, and ``_unscaled``, the one rule for an objective that
overflows, returns an objective to the caller's units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateFit, NumericalFailure
from .linalg import _lange, _rank_deficient, _singular_values, _solve, _svd_factors, as_matrix


def _observation_pair(y1, y2) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Validate y1 and y2 as n x p matrices of one shape with n >= 2p."""
    m1 = as_matrix(y1, "y1")
    m2 = as_matrix(y2, "y2")
    if m1.shape != m2.shape:
        raise ContractViolation(f"y1 and y2 shapes differ: {m1.shape} vs {m2.shape}")
    n, p = m1.shape
    if n < 2 * p:
        raise ContractViolation(f"need n >= 2p, got n={n}, p={p}")
    return m1, m2, n, p


def _framed_pair(y1, y2) -> tuple[np.ndarray, np.ndarray, int, int]:
    """_observation_pair(y1, y2) divided by the power of two 2^k that puts the
    largest magnitude of either in [0.5, 1); k = 0 for a zero pair. Returns
    (m1, m2, n, e = 2k); _unscaled(objective, e) is in the caller's units. The
    division is exact for entries within 2^1021 of the largest, so relative
    rules and comparisons decide as they would unscaled."""
    m1, m2, n, _ = _observation_pair(y1, y2)
    k = math.frexp(max(_lange("M", m1.T), _lange("M", m2.T)))[1]
    return np.ldexp(m1, -k), np.ldexp(m2, -k), n, 2 * k


def _unscaled(value: float, e: int) -> float:
    """value * 2^e, exactly when representable; NumericalFailure on overflow."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise NumericalFailure("objective overflows in the units of the inputs") from None


def tls_objective(y2, y1p) -> float:
    """Sum of the p smallest squared singular values of [y2 | y1p].

    y1p and then y2 are converted to float arrays. A pair of one 2-D shape
    with n >= 2p >= 2 whose stack is finite and at most 2^480 in magnitude is
    scored by linalg._singular_values. Every other pair is rescored in the
    frame of _framed_pair, which raises _observation_pair's named error for a
    bad shape or a non-finite entry and, through _unscaled, NumericalFailure
    when the residual overflows.
    """
    y1p = np.asarray(y1p, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y2.ndim == 2 and y2.shape == y1p.shape and y2.shape[0] >= 2 * y2.shape[1] >= 2:
        stack = np.concatenate((y2, y1p), axis=1)
        # dlange's largest magnitude propagates NaN; a C-ordered stack is read
        # in place as its Fortran-ordered transpose. Up to 2^480 the squared
        # norm of any array numpy can hold (2^60 entries at most), which
        # bounds the residual, stays below 2^1020.
        if _lange("M", stack.T) <= 2.0 ** 480:
            tail = _singular_values(stack)[y2.shape[1]:]
            return float(np.add.reduce(tail * tail))
    y1p, y2, _, e = _framed_pair(y1p, y2)
    return _unscaled(tls_objective(y2, y1p), e)


@dataclass
class TlsFit:
    """x_hat: denoised aligned design (n x p, in y2's row order);
    r_hat: fitted mixing matrix (p x p); objective: rank-p residual."""

    x_hat: np.ndarray
    r_hat: np.ndarray
    objective: float


def tls_fit(y2, y1p) -> TlsFit:
    """Rank-p fit of the stacked pair.

    The rank-p truncation of [y2 | y1p] splits by columns into a denoised y2
    block and a denoised y1p block (x_hat). r_hat solves the exactly
    consistent system x_hat @ r = denoised y2; no inverse is formed. Raises
    DegenerateFit when x_hat is numerically rank deficient relative to the
    stack (see _fit).
    """
    m1, m2, _, _ = _observation_pair(y1p, y2)
    fit = _fit(m2, m1)[1]
    if fit is None:
        raise DegenerateFit("denoised design is numerically rank deficient")
    return fit


def _fit(m2: np.ndarray, m1p: np.ndarray) -> tuple[float, TlsFit | None]:
    """(objective, fit) for a validated pair, from one SVD of [y2 | y1p]; fit
    is None when the rank rule below finds x_hat degenerate, and the objective,
    the rank-p residual, is returned either way.

    With [y2 | y1p] = U S V.T, A = V[:p, :p] and B = V[p:, :p], the rank-p
    truncation has blocks y2_hat = U_p S_p A.T and x_hat = U_p S_p B.T. As U_p
    has orthonormal columns, x_hat has the singular values of the p x p
    matrix S_p B.T, and x_hat @ r = y2_hat reduces to B.T @ r = A.T.

    The raw LAPACK factors are used as they come; the one sign rule lives in
    model.generate_design, the only caller that keeps U alone. Flipping
    column k of U and of V multiplies U_p, A and B on the right by one
    D = diag(+-1), and D^2 = I, so x_hat = U_p D S_p D B.T and
    r_hat = (D B.T)^-1 (D A.T) are unchanged. They are unchanged bit for bit:
    negation is exact, each product in x_hat meets the sign twice, and the LU
    factorization of D B.T picks the same pivots as that of B.T, carrying row
    k's sign through to row k of the right-hand side, where it cancels.

    The rank rule judges x_hat's smallest singular value against the stack's
    largest, s[0], and that bounds r_hat: sigma_min(x_hat) <= s[0] *
    sigma_min(B), so a fit that passes has sigma_min(B) > 1e-10, and as
    ||A|| <= 1, ||r_hat|| < 1e10. In the estimators' frame every entry of the
    pair is below 1, so every cost built from such a fit is finite.
    """
    p = m2.shape[1]
    u, s, v = _svd_factors(np.concatenate((m2, m1p), axis=1))
    tail = s[p:]
    objective = float(np.add.reduce(tail * tail))
    a, b = v[:p, :p], v[p:, :p]
    if _rank_deficient((s[0], _singular_values(s[:p, None] * b.T)[-1])):
        return objective, None
    x_hat = (u[:, :p] * s[:p]) @ b.T
    return objective, TlsFit(x_hat=x_hat, r_hat=_solve(b.T, a.T), objective=objective)
