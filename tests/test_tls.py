"""Rank-p objective and fit. The fit is checked against the optimality
characterization directly: its residual must not be beaten by any sampled
rank-p approximation of the stacked pair."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from tlsperm import linalg
from tlsperm.errors import ContractViolation, DegenerateFit
from tlsperm.linalg import singular_values, svd, sym_eigvals
from tlsperm.model import (
    apply_permutation,
    generate_design,
    random_orthogonal,
    random_permutation,
    rotation_2d,
    stream,
)
from tlsperm.tls import tls_fit, tls_objective


def block_design(half: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Two stacked blocks of +-1 rows and the permutation swapping them."""
    x = np.vstack([
        np.column_stack([np.ones(half), -np.ones(half)]),
        np.column_stack([np.ones(half), np.ones(half)]),
    ])
    swap = np.concatenate([np.arange(half, 2 * half), np.arange(half)])
    return x, swap


class TestObjective:
    def test_zero_on_exactly_consistent_pair(self):
        rng = stream(30)
        x = generate_design(8, 2, rng)
        r = rotation_2d(60.0)
        assert tls_objective(x @ r, x) == pytest.approx(0.0, abs=1e-20)

    def test_zero_y2_gives_zero(self):
        y1 = stream(31).standard_normal((6, 2))
        assert tls_objective(np.zeros((6, 2)), y1) == pytest.approx(0.0, abs=1e-20)

    def test_known_value_identity_stack(self):
        # [y2 | y1p] = I2 has both singular values 1; the smallest 1 of them
        # squared is 1
        assert tls_objective(np.array([[1.0], [0.0]]),
                             np.array([[0.0], [1.0]])) == pytest.approx(1.0)

    def test_block_design_zero_at_truth_and_at_block_swap(self):
        x, swap = block_design()
        assert tls_objective(x, x) == pytest.approx(0.0, abs=1e-12)
        assert tls_objective(x, apply_permutation(swap, x)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_gram_eigenvalue_route(self):
        # independent identity: squared singular values of the stack are the
        # eigenvalues of its Gram matrix
        rng = stream(32)
        for _ in range(50):
            y2 = rng.standard_normal((7, 2))
            y1 = rng.standard_normal((7, 2))
            stack = np.hstack([y2, y1])
            eigs = sym_eigvals(stack.T @ stack)
            assert tls_objective(y2, y1) == pytest.approx(float(eigs[2:].sum()),
                                                          rel=1e-9, abs=1e-12)

    def test_orthogonal_invariance(self):
        rng = stream(33)
        y2 = rng.standard_normal((9, 3))
        y1 = rng.standard_normal((9, 3))
        qa, qb = random_orthogonal(3, rng), random_orthogonal(3, rng)
        assert tls_objective(y2 @ qa, y1 @ qb) == pytest.approx(
            tls_objective(y2, y1), rel=1e-9)

    def test_joint_row_permutation_invariance(self):
        rng = stream(34)
        y2 = rng.standard_normal((8, 2))
        y1 = rng.standard_normal((8, 2))
        perm = random_permutation(8, rng)
        assert tls_objective(y2[perm], y1[perm]) == pytest.approx(
            tls_objective(y2, y1), rel=1e-9)

    def test_rejects_too_few_rows(self):
        with pytest.raises(ContractViolation):
            tls_objective(np.ones((3, 2)), np.ones((3, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            tls_objective(np.ones((6, 2)), np.ones((6, 3)))


class TestFit:
    def test_noiseless_recovery(self):
        rng = stream(35)
        x = generate_design(10, 2, rng)
        r = rotation_2d(60.0)
        fit = tls_fit(x @ r, x)
        assert np.allclose(fit.x_hat, x, atol=1e-9)
        assert np.allclose(fit.r_hat, r, atol=1e-9)
        assert fit.objective == pytest.approx(0.0, abs=1e-18)

    def test_objective_matches_standalone_computation(self):
        rng = stream(36)
        y2 = rng.standard_normal((12, 3))
        y1 = rng.standard_normal((12, 3))
        fit = tls_fit(y2, y1)
        assert fit.objective == pytest.approx(tls_objective(y2, y1), abs=1e-12)

    def test_residual_equals_objective_and_beats_sampled_rank_p(self):
        rng = stream(37)
        y2 = rng.standard_normal((6, 2))
        y1 = rng.standard_normal((6, 2))
        stack = np.hstack([y2, y1])
        fit = tls_fit(y2, y1)
        y2_hat = fit.x_hat @ fit.r_hat
        resid = float(np.linalg.norm(stack - np.hstack([y2_hat, fit.x_hat])) ** 2)
        assert resid == pytest.approx(fit.objective, rel=1e-8, abs=1e-10)
        for _ in range(1000):
            basis, _ = np.linalg.qr(rng.standard_normal((6, 2)))
            candidate = basis @ (basis.T @ stack)  # rank-2 projection of the data
            assert resid <= float(np.linalg.norm(stack - candidate) ** 2) + 1e-9

    def test_fitted_pair_is_rank_p(self):
        rng = stream(38)
        y2 = rng.standard_normal((10, 2))
        y1 = rng.standard_normal((10, 2))
        fit = tls_fit(y2, y1)
        s = singular_values(np.hstack([fit.x_hat @ fit.r_hat, fit.x_hat]))
        assert s[2] <= 1e-8 * s[0]

    def test_degenerate_when_aligned_block_vanishes(self):
        y2 = stream(39).standard_normal((6, 2))
        with pytest.raises(DegenerateFit):
            tls_fit(y2, np.zeros((6, 2)))

    def test_mixing_estimate_reasonable_under_mild_noise(self):
        rng = stream(40)
        x = generate_design(200, 2, rng)
        r = rotation_2d(60.0)
        y1 = x + 0.05 * rng.standard_normal((200, 2))
        y2 = x @ r + 0.05 * rng.standard_normal((200, 2))
        fit = tls_fit(y2, y1)
        assert np.linalg.norm(fit.r_hat - r) <= 0.05

    @pytest.mark.parametrize("n", [8, 60, 300])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_two_factorization_route(self, n, p):
        """The one-SVD fit against the route it replaces: truncate the SVD of
        the stack, then re-factor x_hat for the rank check and solve for r_hat
        by least squares. Objective and x_hat are bitwise equal."""
        for seed in range(6):
            rng = stream(41, n, p, seed)
            y2 = rng.standard_normal((n, p))
            y1 = rng.standard_normal((n, p))
            f = svd(np.hstack((y2, y1)))
            objective = float(np.sum(f.s[p:] ** 2))
            low_rank = (f.u[:, :p] * f.s[:p]) @ f.v[:, :p].T
            x_hat = low_rank[:, p:]
            sv = singular_values(x_hat)
            assert sv[-1] > 1e-10 * sv[0]
            r_hat, *_ = np.linalg.lstsq(x_hat, low_rank[:, :p], rcond=None)
            fit = tls_fit(y2, y1)
            assert fit.objective == objective
            assert np.array_equal(fit.x_hat, x_hat)
            assert np.linalg.norm(fit.r_hat - r_hat) <= 1e-10 * np.linalg.norm(r_hat)

    @pytest.mark.parametrize("n, p", [(7, 2), (60, 1), (300, 3)])
    def test_signs_of_raw_factors_cancel_bitwise(self, monkeypatch, n, p):
        """The fit skips the sign rule of svd(): flipping any set of singular
        vector pairs in the driver's factors leaves x_hat and r_hat bit for bit,
        and both come back C-ordered."""
        rng = stream(42, n, p)
        y2 = rng.standard_normal((n, p))
        y1 = rng.standard_normal((n, p))
        ref = tls_fit(y2, y1)
        real = linalg._gesdd
        for flips in itertools.product((1.0, -1.0), repeat=2 * p):
            signs = np.array(flips)

            def flipped(a, compute_uv=1, full_matrices=1):
                u, s, vt, info = real(a, compute_uv=compute_uv, full_matrices=full_matrices)
                if compute_uv:
                    u, vt = u * signs, vt * signs[:, None]
                return u, s, vt, info

            monkeypatch.setattr(linalg, "_gesdd", flipped)
            fit = tls_fit(y2, y1)
            assert fit.x_hat.tobytes() == ref.x_hat.tobytes()
            assert fit.r_hat.tobytes() == ref.r_hat.tobytes()
            assert fit.x_hat.flags.c_contiguous and fit.r_hat.flags.c_contiguous
