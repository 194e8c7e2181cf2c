"""Problem instances, permutation bookkeeping, and seeded randomness.

Permutation convention used package-wide: applying ``pi`` to a matrix ``A``
yields ``B`` with ``B[i] = A[pi[i]]`` (numpy fancy indexing ``A[pi]``). In
matrix form ``B = P @ A`` where ``P[i, pi[i]] = 1``.

Random streams are counter-based (Philox) and keyed by an integer path, so
harness trials can be generated independently and in any order while staying
reproducible: ``stream(seed, grid_index, trial_index)``. ``_covariance`` is
the one check of a noise covariance and the one source of its eigenvalues.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalFailure, RankDeficient
from .linalg import _lange, _rank_deficient, _svd_factors, as_matrix

Rng = np.random.Generator


def stream(seed: int, *path: int) -> Rng:
    """Independent generator for (seed, *path). Same key, same bits, any order."""
    if seed < 0 or any(k < 0 for k in path):
        raise ContractViolation("stream keys must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


# -- permutations ----------------------------------------------------------

def as_permutation(perm, n: int | None = None) -> np.ndarray:
    """Validate a permutation of 0..n-1 and return it as an int array."""
    arr = np.asarray(perm)
    if arr.ndim != 1 or arr.size == 0 or not np.issubdtype(arr.dtype, np.integer):
        raise ContractViolation("permutation must be a nonempty 1-D integer array")
    arr = arr.astype(np.intp)
    if n is not None and arr.size != n:
        raise ContractViolation(f"permutation has length {arr.size}, expected {n}")
    if not np.array_equal(np.sort(arr), np.arange(arr.size)):
        raise ContractViolation("permutation is not a bijection on 0..n-1")
    return arr


def identity_permutation(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.intp)


def random_permutation(n: int, rng: Rng) -> np.ndarray:
    if n < 1:
        raise ContractViolation("random_permutation needs n >= 1")
    return rng.permutation(n).astype(np.intp)


def partial_shuffle(n: int, k: int, rng: Rng) -> np.ndarray:
    """Uniformly shuffle the first k indices, keep the remaining n-k fixed."""
    if not 0 <= k <= n:
        raise ContractViolation(f"partial_shuffle needs 0 <= k <= n, got k={k}, n={n}")
    perm = identity_permutation(n)
    perm[:k] = rng.permutation(k)
    return perm


# -- instances -------------------------------------------------------------

@dataclass
class ProblemInstance:
    """Ground truth: design x (n x p), mixing r (p x p), true row permutation,
    and the common noise covariance sigma (p x p)."""

    x: np.ndarray
    r: np.ndarray
    pi_star: np.ndarray
    sigma: np.ndarray


@dataclass
class Observations:
    """Observed pair: y1 = x + e1, y2 = x[pi_star] @ r + e2."""

    y1: np.ndarray
    y2: np.ndarray


def as_covariance(sigma, p: int) -> np.ndarray:
    """Scalar sigma means sigma^2 * I_p; a matrix is validated as symmetric PSD."""
    return _covariance(sigma, p)[0]


def _covariance(sigma, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The one covariance check: as_covariance(sigma, p) and its eigenvalues,
    descending. A scalar's are sigma^2, p times, with no eigendecomposition. A
    matrix's come from one eigvalsh of its symmetric part; that part and the
    symmetry test are formed from halves, so no finite entry overflows them.
    Both tolerances are relative: rescaling never changes the verdict."""
    if p < 1:
        raise ContractViolation("p must be >= 1")
    if np.isscalar(sigma):
        s = float(sigma)
        if s < 0:
            raise ContractViolation("scalar noise level must be nonnegative")
        v = s * s
        if not math.isfinite(v):
            raise ContractViolation("covariance contains NaN or Inf entries")
        cov = v * np.eye(p)
        return cov, cov.diagonal()  # read-only view: v, p times
    cov = as_matrix(sigma, "covariance")
    if cov.shape != (p, p):
        raise ContractViolation(f"covariance must be {p}x{p}, got {cov.shape}")
    half, half_t = cov * 0.5, cov.T * 0.5
    # dlange scales its sum of squares: no overflow unless the norm overflows
    if _lange("F", half - half_t) > 1e-12 * _lange("F", half):
        raise ContractViolation("covariance must be symmetric")
    vals = np.linalg.eigvalsh(half + half_t)[::-1]
    if vals[-1] < -1e-12 * vals[0]:
        raise ContractViolation("covariance must be positive semidefinite")
    return cov, vals


def generate_design(n: int, p: int, rng: Rng) -> np.ndarray:
    """Well-conditioned design: orthonormal column basis of a Gaussian draw,
    rescaled so the Frobenius norm is sqrt(n*p). Condition number is 1.

    The basis is u alone, so LAPACK's arbitrary signs would show: each column
    is negated, exactly, unless its first largest-magnitude entry is positive.
    This is the package's one sign rule; every other SVD pairs u with v, where
    a joint flip cancels. A rank-deficient draw raises RankDeficient."""
    if not 1 <= p <= n:
        raise ContractViolation(f"generate_design needs 1 <= p <= n, got n={n}, p={p}")
    u, s, _ = _svd_factors(rng.standard_normal((n, p)))
    if _rank_deficient(s):
        raise RankDeficient("gaussian draw was rank deficient")
    u = u * np.copysign(1.0, u[np.abs(u).argmax(axis=0), np.arange(p)])
    return math.sqrt(n * p) * u / float(np.linalg.norm(u))


def rotation_2d(theta_degrees: float) -> np.ndarray:
    if not math.isfinite(theta_degrees):
        raise ContractViolation(f"rotation angle must be finite, got {theta_degrees}")
    t = math.radians(theta_degrees)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def random_orthogonal(p: int, rng: Rng) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw, signs fixed."""
    if p < 1:
        raise ContractViolation("random_orthogonal needs p >= 1")
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def _noise_factor(cov: np.ndarray) -> np.ndarray:
    """l with l @ l.T = cov for a validated symmetric PSD cov, so z @ l.T has
    N(0, cov) rows for standard normal z; eigh factors a singular cov."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # PSD-singular: clip the eigenvalues' rounding dust at zero.
        vals, vecs = np.linalg.eigh(cov * 0.5 + cov.T * 0.5)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def generate_observations(instance: ProblemInstance, rng: Rng) -> Observations:
    """Draw one observed pair from the model, factoring the covariance once."""
    x = as_matrix(instance.x, "design")
    n, p = x.shape
    r = as_matrix(instance.r, "mixing matrix")
    if r.shape != (p, p):
        raise ContractViolation(f"mixing matrix must be {p}x{p}, got {r.shape}")
    pi_star = as_permutation(instance.pi_star, n)
    return _draw(x, r, pi_star, _noise_factor(as_covariance(instance.sigma, p)).T, rng)


def _draw(x: np.ndarray, r: np.ndarray, pi_star: np.ndarray, left_t: np.ndarray,
          rng: Rng) -> Observations:
    """generate_observations() on checked inputs; left_t is the noise factor transposed."""
    y1 = x + rng.standard_normal(x.shape) @ left_t
    y2 = x[pi_star] @ r + rng.standard_normal(x.shape) @ left_t
    return Observations(y1=y1, y2=y2)


def snr(x, sigma) -> float:
    """Signal-to-noise ratio ||x||_F^2 / (n * tr(sigma)); inf for zero noise."""
    mat = as_matrix(x, "design")
    return _snr(mat, as_covariance(sigma, mat.shape[1]))


def _snr(mat: np.ndarray, cov: np.ndarray) -> float:
    """snr() on a validated design and covariance; NumericalFailure on overflow."""
    with np.errstate(over="ignore"):  # an overflow is inf, raised below
        trace, norm = float(np.trace(cov)), float(np.linalg.norm(mat))
    if not (math.isfinite(trace) and math.isfinite(norm)):
        raise NumericalFailure("signal-to-noise ratio overflows")
    if trace <= 0.0:
        return float("inf")
    return norm ** 2 / (mat.shape[0] * trace)
