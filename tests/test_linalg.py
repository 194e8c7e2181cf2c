"""Factorization contracts, checked against independent routes where possible:
grid search over the 2-D orthogonal group for the alignment problem, sampled
trace maximization for the nuclear norm, squared singular values for the
symmetric eigenvalues. The factorization kernels are private and take checked
matrices, so they are called directly. The one sign rule for singular vectors,
in generate_design, is checked here against a column-by-column reference."""
from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest

from tlsperm import linalg
from tlsperm.errors import ContractViolation, NumericalFailure
from tlsperm.evaluation import trace_max_check
from tlsperm.linalg import (
    _orthogonal_procrustes,
    _rank_deficient,
    _singular_values,
    _solve,
    _svd_factors,
    as_matrix,
)
from tlsperm.model import (
    _covariance,
    generate_design,
    random_orthogonal,
    random_permutation,
    stream,
)

from oracles import grid_procrustes_loss


class TestAsMatrix:
    def test_accepts_lists(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == float and out.shape == (2, 2)

    def test_rejects_vectors(self):
        with pytest.raises(ContractViolation):
            as_matrix(np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            as_matrix(np.ones((0, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ContractViolation):
            as_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ContractViolation):
            as_matrix(np.array([[np.inf], [0.0]]))

    def test_native_float_array_comes_back_as_is(self):
        a = stream(5).standard_normal((6, 4))
        frozen = a.copy()
        frozen.setflags(write=False)
        for arr in (a, frozen, a[:, ::2], a.T):
            assert as_matrix(arr) is arr

    def test_other_inputs_convert_as_asarray_does(self):
        a = stream(6).standard_normal((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PendingDeprecationWarning)
            mat = np.matrix(a)

        class Sub(np.ndarray):
            pass

        for x in ([[1, 2], [3, 4]], np.arange(6).reshape(3, 2), a.astype(np.float32),
                  mat, a.view(Sub), a.astype(">f8"), a.astype(">f8")[::2]):
            out = as_matrix(x)
            ref = np.asarray(x, dtype=float)
            assert type(out) is np.ndarray and out.dtype == ref.dtype == np.float64
            assert out.dtype.isnative
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_message_on_every_route(self, bad):
        a = np.ones((3, 2))
        a[1, 0] = bad
        for x in (a, a[:, ::-1], a.astype(np.float32), a.astype(">f8"), a.tolist()):
            with pytest.raises(ContractViolation, match="^y1 contains NaN or Inf entries$"):
                as_matrix(x, "y1")


class TestSvd:
    """The raw factors of _svd_factors, with the signs LAPACK chose."""

    @pytest.mark.parametrize("shape", [(3, 3), (6, 2), (2, 6), (10, 4), (1, 1)])
    def test_reconstruction_and_orthonormal_factors(self, shape):
        a = stream(11, *shape).standard_normal(shape)
        u, s, v = _svd_factors(a)
        k = min(shape)
        assert u.shape == (shape[0], k) and v.shape == (shape[1], k)
        assert np.allclose(u @ np.diag(s) @ v.T, a, atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(k), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(k), atol=1e-10)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_diagonal_matrix_known_values(self):
        _, s, _ = _svd_factors(np.diag([3.0, 1.0, 2.0]))
        assert s == pytest.approx([3.0, 2.0, 1.0])

    def test_deterministic_repeat(self):
        a = stream(13).standard_normal((5, 4))
        for first, second in zip(_svd_factors(a), _svd_factors(a)):
            assert np.array_equal(first, second)

    def test_singular_values_match_full_factorization(self):
        a = stream(14).standard_normal((8, 3))
        assert _singular_values(a) == pytest.approx(_svd_factors(a)[1], abs=1e-12)


def loop_sign_svd(u: np.ndarray, s: np.ndarray, vt: np.ndarray):
    """Reference sign rule, one column at a time: flip column k of u and v
    when the first largest-magnitude entry of u[:, k] is negative."""
    u, v = u.copy(), vt.T.copy()
    for k in range(s.shape[0]):
        pivot = int(np.argmax(np.abs(u[:, k])))
        if u[pivot, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    return u, s, v


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scaled_design(u: np.ndarray) -> np.ndarray:
    """generate_design's rescaling of an orthonormal basis u (n x p)."""
    n, p = u.shape
    return math.sqrt(n * p) * u / float(np.linalg.norm(u))


class TestSvdSignRule:
    """generate_design keeps the left singular vectors alone, so it is the one
    place where their signs show and the one place that fixes them. Its
    vectorised rule must give the design of the column-by-column rule bit for
    bit: byte-identical sweeps depend on it."""

    @pytest.mark.parametrize("shape", [(7, 3), (60, 4), (5, 5), (300, 2), (1, 1), (2, 1)])
    def test_matches_column_loop_bitwise(self, shape):
        for seed in range(5):
            got = generate_design(*shape, stream(15, seed, *shape))
            draw = stream(15, seed, *shape).standard_normal(shape)
            ref_u, _, _ = loop_sign_svd(*np.linalg.svd(draw, full_matrices=False))
            assert same_bits(got, scaled_design(ref_u))

    def test_sign_convention_largest_entry_positive(self):
        x = generate_design(7, 3, stream(12))
        for k in range(3):
            col = x[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0

    @pytest.mark.parametrize("u", [
        [[-0.5, 0.0], [0.5, 0.0], [0.0, 1.0]],   # -[1, -1, 0]: flipped
        [[0.5, 0.0], [-0.5, 0.0], [0.0, -1.0]],  # [1, -1, 0]: kept
        [[-0.5, 0.5], [-0.5, -0.5], [0.0, 0.0]],
        [[0.0, -1.0], [-1.0, 0.0], [0.0, 0.0]],
    ])
    def test_exact_magnitude_ties_pick_first_index(self, monkeypatch, u):
        """LAPACK rarely returns exact ties, so the raw factors are planted."""
        u = np.array(u)
        s = np.array([2.0, 1.0])
        vt = np.array([[0.6, -0.8], [-0.8, -0.6]])
        monkeypatch.setattr(linalg, "_gesdd", lambda a, compute_uv, full_matrices: (
            np.asfortranarray(u), s, np.asfortranarray(vt), 0))
        got = generate_design(3, 2, stream(16))
        ref_u, _, _ = loop_sign_svd(u, s, vt)
        assert same_bits(got, scaled_design(ref_u))
        for k in range(2):
            mags = np.abs(got[:, k])
            assert got[int(np.flatnonzero(mags == mags.max())[0]), k] > 0

    def test_paired_factor_callers_do_not_see_the_signs(self, monkeypatch):
        """The other SVD callers pair u_k with v_k: flipping any set of raw
        factor pairs leaves the Procrustes map, its loss and the trace
        maximiser's value bit for bit."""
        rng = stream(17)
        a, b = rng.standard_normal((9, 3)), rng.standard_normal((9, 3))
        x, perm = rng.standard_normal((9, 3)), random_permutation(9, rng)
        ref = (*_orthogonal_procrustes(a, b), trace_max_check(x, perm, samples=0))
        real = linalg._gesdd
        for flips in itertools.product((1.0, -1.0), repeat=3):
            signs = np.array(flips)

            def flipped(arr, compute_uv=1, full_matrices=1):
                u, s, vt, info = real(arr, compute_uv=compute_uv, full_matrices=full_matrices)
                return u * signs, s, vt * signs[:, None], info

            monkeypatch.setattr(linalg, "_gesdd", flipped)
            q, loss = _orthogonal_procrustes(a, b)
            assert same_bits(q, ref[0]) and loss == ref[1]
            assert trace_max_check(x, perm, samples=0) == ref[2]


class TestLapackDrivers:
    """The kernels call LAPACK drivers directly: results come back C-ordered
    and agree with numpy.linalg, and a nonzero info is a NumericalFailure."""

    # (shape of the SVD input, order k of the solve): the n x 2p stacks and
    # p x p systems of the fit and the c4 cost, and the 2 x 2 kernels at p=2
    CASES = [((n, 2 * p), p) for n in (4, 7, 60, 300) for p in (1, 2, 3)] + [((2, 2), 2)]

    @pytest.mark.parametrize("shape, k", CASES)
    def test_matches_numpy_within_two_ulp(self, shape, k):
        rng = stream(24, *shape)
        for _ in range(3):
            a = rng.standard_normal(shape)
            # LAPACK may sign the two routes' vectors differently; fix both
            ref = loop_sign_svd(*np.linalg.svd(a, full_matrices=False))
            u, s, v = _svd_factors(a)
            for got, want in (*zip(loop_sign_svd(u, s, v.T), ref),
                              (_singular_values(a), np.linalg.svd(a, compute_uv=False))):
                np.testing.assert_array_max_ulp(got, want, maxulp=2)
            m = rng.standard_normal((k, k))
            rhs = a.T[:k]
            np.testing.assert_array_max_ulp(_solve(m, rhs), np.linalg.solve(m, rhs), maxulp=2)

    @pytest.mark.parametrize("shape", [(7, 4), (60, 6), (2, 2)])
    def test_results_are_c_ordered(self, shape):
        a = stream(25, *shape).standard_normal(shape)
        x = _solve(a.T @ a, a.T)
        for arr in (*_svd_factors(a), _singular_values(a), x):
            assert arr.flags.c_contiguous

    def test_nonzero_info_is_numerical_failure(self, monkeypatch):
        def failing(real):
            return lambda *args, **kwargs: real(*args, **kwargs)[:-1] + (1,)

        monkeypatch.setattr(linalg, "_gesdd", failing(linalg._gesdd))
        monkeypatch.setattr(linalg, "_gesv", failing(linalg._gesv))
        a = stream(26).standard_normal((5, 2))
        for call in (lambda: _svd_factors(a), lambda: _singular_values(a),
                     lambda: _solve(a.T @ a, a.T)):
            with pytest.raises(NumericalFailure, match="info=1"):
                call()


class TestRankDeficient:
    """The one numerical-rank rule: the smallest singular value at most 1e-10
    of the largest, or all zero. Each case also equals the expressions it
    replaced, in tls._fit and aloa, and negated in generate_design."""

    @pytest.mark.parametrize("s, deficient", [
        (np.array([1.0, 1e-10]), True),
        (np.array([1.0, np.nextafter(1e-10, 1.0)]), False),
        (np.array([0.0, 0.0]), True),
    ])
    def test_threshold(self, s, deficient):
        assert _rank_deficient(s) == deficient
        assert _rank_deficient(s) == (s[0] <= 0.0 or s[-1] <= 1e-10 * s[0])
        assert (not _rank_deficient(s)) == (s[-1] > 1e-10 * s[0])


class TestSymEigvals:
    """The symmetric eigenvalues, descending, as model._covariance takes them
    from a checked covariance."""

    def test_diagonal_known(self):
        vals = _covariance(np.diag([1.0, 5.0, 3.0]), 3)[1]
        assert vals == pytest.approx([5.0, 3.0, 1.0])

    def test_matches_squared_singular_values(self):
        a = stream(15).standard_normal((9, 4))
        gram = a.T @ a
        assert _covariance(gram, 4)[1] == pytest.approx(_singular_values(a) ** 2, rel=1e-10)


class TestOrthogonalProcrustes:
    def test_exact_alignment_recovered(self):
        rng = stream(16)
        b = rng.standard_normal((8, 3))
        q0 = random_orthogonal(3, rng)
        a = b @ q0
        q, loss = _orthogonal_procrustes(a, b)
        assert loss == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(q, q0, atol=1e-10)

    def test_reflections_are_allowed(self):
        b = stream(17).standard_normal((6, 2))
        a = b @ np.diag([1.0, -1.0])
        _, loss = _orthogonal_procrustes(a, b)
        assert loss == pytest.approx(0.0, abs=1e-18)

    def test_returned_q_is_orthogonal(self):
        rng = stream(18)
        q, _ = _orthogonal_procrustes(rng.standard_normal((5, 3)),
                                      rng.standard_normal((5, 3)))
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_beats_random_orthogonal_candidates(self):
        rng = stream(19)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((7, 3))
        q, loss = _orthogonal_procrustes(a, b)
        for _ in range(200):
            cand = random_orthogonal(3, rng)
            assert loss <= np.linalg.norm(a - b @ cand) ** 2 + 1e-9

    def test_matches_dense_grid_over_planar_orthogonal_group(self):
        # independent oracle: dense 1e-3 rad grid over rotations + reflections
        rng = stream(20)
        worst = 0.0
        for _ in range(100):
            a = 0.4 * rng.standard_normal((5, 2))
            b = 0.4 * rng.standard_normal((5, 2))
            _, loss = _orthogonal_procrustes(a, b)
            gap = grid_procrustes_loss(a, b) - loss
            worst = max(worst, abs(gap))
            assert -1e-9 <= gap <= 1e-6
        assert worst <= 1e-6


class TestNuclearNorm:
    def test_matches_sampled_trace_maximization(self):
        # trace_max_check's rhs is the nuclear norm of a = x.T @ x[perm]
        # (the paper's trace-maximization lemma). Oracle: nuclear norm = max
        # over orthogonal q of tr(a q); a large Haar-ish sample should come
        # within 2% and never exceed it
        rng = stream(22)
        x = rng.standard_normal((6, 3))
        perm = random_permutation(6, rng)
        a = x.T @ x[perm]
        _, nn = trace_max_check(x, perm, samples=0)
        z = rng.standard_normal((200_000, 3, 3))
        q, r = np.linalg.qr(z)
        q = q * np.sign(np.einsum("nii->ni", r))[:, None, :]
        traces = np.einsum("ij,nji->n", a, q)
        sampled = float(traces.max())
        assert nn >= sampled - 1e-9
        assert nn <= sampled * 1.02

