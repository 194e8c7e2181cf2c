"""Problem instances, permutation bookkeeping, and seeded randomness.

Permutation convention used package-wide: applying ``pi`` to a matrix ``A``
yields ``B`` with ``B[i] = A[pi[i]]`` (numpy fancy indexing ``A[pi]``). In
matrix form ``B = P @ A`` where ``P[i, pi[i]] = 1``.

Random streams are counter-based (Philox) and keyed by an integer path, so
harness trials can be generated independently and in any order while staying
reproducible: ``stream(seed, grid_index, trial_index)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, RankDeficient
from .linalg import _svd, as_matrix

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


def apply_permutation(perm, a) -> np.ndarray:
    """Row-permute: result[i] = a[perm[i]]."""
    mat = as_matrix(a, "apply_permutation input")
    p = as_permutation(perm, mat.shape[0])
    return mat[p]


def invert_permutation(perm) -> np.ndarray:
    """Inverse under composition: apply(inv, apply(perm, a)) == a."""
    p = as_permutation(perm)
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=np.intp)
    return inv


def random_permutation(n: int, rng: Rng) -> np.ndarray:
    if n < 1:
        raise ContractViolation("random_permutation needs n >= 1")
    return rng.permutation(n).astype(np.intp)


def partial_shuffle(n: int, k: int, rng: Rng) -> np.ndarray:
    """Uniformly shuffle the first k indices, keep the remaining n-k fixed."""
    if not 0 <= k <= n:
        raise ContractViolation(f"partial_shuffle needs 0 <= k <= n, got k={k}, n={n}")
    perm = identity_permutation(n)
    if k > 1:
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
    """Observed pair: y1 = x + e1, y2 = apply(pi_star, x) @ r + e2."""

    y1: np.ndarray
    y2: np.ndarray


def as_covariance(sigma, p: int) -> np.ndarray:
    """Scalar sigma means sigma^2 * I_p; a matrix is validated as symmetric PSD."""
    if p < 1:
        raise ContractViolation("p must be >= 1")
    if np.isscalar(sigma):
        s = float(sigma)
        if s < 0:
            raise ContractViolation("scalar noise level must be nonnegative")
        return (s * s) * np.eye(p)
    return _check_covariance(as_matrix(sigma, "covariance"), p)


def _check_covariance(cov: np.ndarray, p: int) -> np.ndarray:
    """Check a validated matrix for shape p x p, symmetry and PSD; return it."""
    if cov.shape != (p, p):
        raise ContractViolation(f"covariance must be {p}x{p}, got {cov.shape}")
    if np.linalg.norm(cov - cov.T) > 1e-12 * (1.0 + np.linalg.norm(cov)):
        raise ContractViolation("covariance must be symmetric")
    vals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    if vals[0] < -1e-12 * max(1.0, float(vals[-1])):
        raise ContractViolation("covariance must be positive semidefinite")
    return cov


def generate_design(n: int, p: int, rng: Rng) -> np.ndarray:
    """Well-conditioned design: orthonormal column basis of a Gaussian draw,
    rescaled so the Frobenius norm is sqrt(n*p). Condition number is 1."""
    if not 1 <= p <= n:
        raise ContractViolation(f"generate_design needs 1 <= p <= n, got n={n}, p={p}")
    for _ in range(2):
        draw = rng.standard_normal((n, p))
        f = _svd(draw)
        if f.s[-1] > 1e-10 * f.s[0]:
            u = f.u
            return math.sqrt(n * p) * u / float(np.linalg.norm(u))
    raise RankDeficient("gaussian draw was rank deficient twice in a row")


def rotation_2d(theta_degrees: float) -> np.ndarray:
    t = math.radians(theta_degrees)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def random_orthogonal(p: int, rng: Rng) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR of a Gaussian draw, signs fixed."""
    if p < 1:
        raise ContractViolation("random_orthogonal needs p >= 1")
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.sign(np.diag(r))


def sample_noise(n: int, sigma, rng: Rng) -> np.ndarray:
    """n rows drawn i.i.d. from N(0, sigma). Accepts any symmetric PSD sigma."""
    cov = as_matrix(sigma, "noise covariance")
    return _sample_noise(n, _check_covariance(cov, cov.shape[0]), rng)


def _sample_noise(n: int, cov: np.ndarray, rng: Rng) -> np.ndarray:
    """sample_noise() with a validated covariance."""
    z = rng.standard_normal((n, cov.shape[0]))
    try:
        left = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # PSD-singular: factor through the eigendecomposition, clipping dust.
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        left = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return z @ left.T


def generate_observations(instance: ProblemInstance, rng: Rng) -> Observations:
    """Draw one observed pair from the model."""
    x = as_matrix(instance.x, "design")
    n, p = x.shape
    r = as_matrix(instance.r, "mixing matrix")
    if r.shape != (p, p):
        raise ContractViolation(f"mixing matrix must be {p}x{p}, got {r.shape}")
    pi_star = as_permutation(instance.pi_star, n)
    cov = as_covariance(instance.sigma, p)
    e1 = _sample_noise(n, cov, rng)
    e2 = _sample_noise(n, cov, rng)
    y1 = x + e1
    y2 = x[pi_star] @ r + e2
    return Observations(y1=y1, y2=y2)


def normalize_condition(y1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace y1 by its orthonormal column basis.

    Returns (y1_new, v, s) with y1 = y1_new @ diag(s) @ v.T and
    y1_new = y1 @ v @ diag(1/s). Requires full column rank.
    """
    mat = as_matrix(y1, "normalize_condition input")
    f = _svd(mat)
    if f.s[-1] <= 1e-10 * f.s[0]:
        raise RankDeficient("cannot normalize a rank-deficient matrix")
    return f.u, f.v, f.s


def snr(x, sigma) -> float:
    """Signal-to-noise ratio ||x||_F^2 / (n * tr(sigma)); inf for zero noise."""
    mat = as_matrix(x, "design")
    cov = as_covariance(sigma, mat.shape[1])
    trace = float(np.trace(cov))
    if trace <= 0.0:
        return float("inf")
    return float(np.linalg.norm(mat)) ** 2 / (mat.shape[0] * trace)
