"""Recovery metrics against hand-computable cases, the loss bound against an
independent in-test assembly of the same formula, and the inequality checks
against exhaustive / constructed certificates."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tlsperm.errors import ContractViolation
from tlsperm.evaluation import (
    eig_tail_rhs,
    hamming_distance,
    procrustes_loss,
    procrustes_residual_gap,
    quadratic_loss,
    recovery_bound,
    trace_max_check,
)
from tlsperm.model import (
    generate_design,
    identity_permutation,
    random_permutation,
    rotation_2d,
    snr,
    stream,
)


def block_design(half: int):
    x = np.vstack((np.tile([1.0, 0.0], (half, 1)),
                   np.tile([0.0, 1.0], (half, 1))))
    swap = np.concatenate((np.arange(half, 2 * half), np.arange(half)))
    return x, swap


class TestMetrics:
    def test_identical_permutations_give_zero_everywhere(self):
        x = generate_design(9, 2, stream(40))
        pi = random_permutation(9, stream(41))
        assert hamming_distance(pi, pi) == 0
        assert quadratic_loss(x, pi, pi) == 0.0
        assert procrustes_loss(x, pi, pi) <= 1e-15

    def test_block_swap_hand_values(self):
        # swapping the groups moves every row by sqrt(2), but the move is a
        # coordinate exchange, so an orthogonal map absorbs it entirely
        x, swap = block_design(half=5)
        ident = identity_permutation(10)
        assert hamming_distance(ident, swap) == 10
        assert quadratic_loss(x, ident, swap) == pytest.approx(1.0, abs=1e-15)
        assert procrustes_loss(x, ident, swap) <= 1e-12

    def test_single_transposition_quadratic_value(self):
        x = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0]])
        pi = np.array([1, 0, 2])
        # rows 0 and 1 trade places: 2 * ||(1,0)-(3,0)||^2 / (n p) = 8 / 6
        assert quadratic_loss(x, identity_permutation(3), pi) == pytest.approx(8.0 / 6.0)
        assert hamming_distance(identity_permutation(3), pi) == 2

    def test_metrics_are_symmetric_in_their_arguments(self):
        rng = stream(42)
        x = generate_design(8, 3, rng)
        a = random_permutation(8, rng)
        b = random_permutation(8, rng)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert quadratic_loss(x, a, b) == pytest.approx(quadratic_loss(x, b, a))
        assert procrustes_loss(x, a, b) == pytest.approx(procrustes_loss(x, b, a))

    def test_procrustes_never_exceeds_unaligned_quadratic(self):
        rng = stream(43)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, min(4, n + 1)))
            x = rng.standard_normal((n, p))
            a = random_permutation(n, rng)
            b = random_permutation(n, rng)
            quad = quadratic_loss(x, a, b)
            proc = procrustes_loss(x, a, b)
            norm_sq = float(np.linalg.norm(x) ** 2)
            assert -1e-15 <= proc <= quad * n * p / norm_sq + 1e-12
            assert proc <= 4.0 + 1e-9

    def test_mismatched_sizes_and_zero_design_rejected(self):
        with pytest.raises(ContractViolation):
            hamming_distance([0, 1, 2], [0, 1])
        with pytest.raises(ContractViolation):
            quadratic_loss(np.ones((3, 1)), [0, 1, 2], [0, 1])
        with pytest.raises(ContractViolation):
            procrustes_loss(np.zeros((3, 2)), [0, 1, 2], [0, 1, 2])


class TestRecoveryBound:
    def test_matches_independent_assembly(self):
        # everything below is recomputed from scratch, sharing no code with
        # the implementation beyond numpy itself
        rng = stream(44)
        n, p = 40, 2
        x = rng.standard_normal((n, p)) * 1.7
        r = np.array([[2.0, 0.3], [0.1, 0.4]])
        cov = np.array([[0.05, 0.01], [0.01, 0.02]])
        eta, c = 1.3, 0.02
        got = recovery_bound(x, r, cov, eta=eta, c=c)

        lam = np.linalg.eigvalsh(cov)
        lam1, trace = float(lam[-1]), float(lam.sum())
        sr = np.linalg.svd(r, compute_uv=False)
        s_top, s_bot = max(1.0, float(sr[0])), min(1.0, float(sr[-1]))
        norm_x = float(np.linalg.norm(x))
        a_n = math.sqrt((trace / lam1) * math.log(n) / (c * n))
        want = (2.0 * p / (s_bot ** 2 * norm_x ** 2)) * (1.0 + eta * a_n) \
            * lam1 * (16.0 * s_top * norm_x * math.sqrt(2.0 * n) + 2.0 * n)
        assert got.bound == pytest.approx(want, rel=1e-12)
        assert got.a_n == pytest.approx(a_n, rel=1e-12)
        assert got.snr == pytest.approx(norm_x ** 2 / (n * trace), rel=1e-12)
        assert got.probability_statement == pytest.approx(1.0 - n ** (-eta * eta))
        assert got.probability_derivation == pytest.approx(1.0 - 2.0 * p * n ** (-eta * eta))
        assert not got.noiseless

    def test_reference_configuration_value(self):
        # n=300, p=2, unit-singular-value mixing, cov 0.04 I, eta=1, c=1/32:
        # the closed form collapses to (4/600)(1+a_n) 0.04 (9600+600)
        x = generate_design(300, 2, stream(45))
        got = recovery_bound(x, rotation_2d(60.0), 0.04 * np.eye(2), eta=1.0)
        a_n = math.sqrt(64.0 * math.log(300.0) / 300.0)
        assert got.bound == pytest.approx(2.72 * (1.0 + a_n), rel=1e-10)
        assert got.bound == pytest.approx(5.7204, rel=1e-4)
        assert got.snr == pytest.approx(snr(x, 0.04 * np.eye(2)), rel=1e-12)

    def test_decreases_as_design_energy_grows(self):
        x = generate_design(50, 2, stream(46))
        r = rotation_2d(30.0)
        values = [recovery_bound(t * x, r, 0.01 * np.eye(2), eta=1.0).bound
                  for t in (1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_mixing_singular_values_clip_at_one(self):
        # shrinking the mixing matrix below unit scale hurts (s_bot < 1),
        # growing it hurts (s_top > 1); a rotation is the neutral case
        x = generate_design(50, 2, stream(47))
        cov = 0.01 * np.eye(2)
        neutral = recovery_bound(x, rotation_2d(45.0), cov, eta=1.0).bound
        small = recovery_bound(x, 0.5 * rotation_2d(45.0), cov, eta=1.0).bound
        large = recovery_bound(x, 2.0 * rotation_2d(45.0), cov, eta=1.0).bound
        assert small > neutral
        assert large > neutral

    def test_noiseless_covariance_degenerates_to_zero(self):
        x = generate_design(20, 2, stream(48))
        got = recovery_bound(x, rotation_2d(10.0), 0.0, eta=1.0)
        assert got.noiseless
        assert got.bound == 0.0
        assert got.a_n == 0.0
        assert got.snr == float("inf")

    def test_derivation_probability_stored_raw(self):
        x = generate_design(3, 2, stream(49))
        got = recovery_bound(x, rotation_2d(10.0), 0.1, eta=1.0)
        assert got.probability_derivation == pytest.approx(1.0 - 4.0 / 3.0)
        assert got.probability_statement == pytest.approx(2.0 / 3.0)

    def test_validation(self):
        x = generate_design(10, 2, stream(50))
        r = rotation_2d(5.0)
        for eta, c in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan),
                       (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ContractViolation):
                recovery_bound(x, r, 0.1, eta=eta, c=c)
        with pytest.raises(ContractViolation):
            recovery_bound(x[:1], np.eye(2), 0.1, eta=1.0)
        with pytest.raises(ContractViolation):
            recovery_bound(np.zeros((10, 2)), r, 0.1, eta=1.0)
        with pytest.raises(ContractViolation):
            recovery_bound(x, np.eye(3), 0.1, eta=1.0)
        with pytest.raises(ContractViolation):
            recovery_bound(x, np.zeros((2, 2)), 0.1, eta=1.0)


class TestEigTailRhs:
    def test_matches_direct_formula_when_below_one(self):
        cov = 0.04 * np.eye(2)
        got = eig_tail_rhs(cov, n=2000, eps=0.5)
        want = 4.0 * math.exp(-(1.0 / 32.0) * 2000 * 0.25 * 0.5)
        assert got == pytest.approx(want, rel=1e-12)
        assert got < 1.0

    def test_anisotropic_covariance_uses_top_eigenvalue_over_trace(self):
        cov = np.diag([0.09, 0.01])
        got = eig_tail_rhs(cov, n=1000, eps=0.4, c=0.05)
        want = 4.0 * math.exp(-0.05 * 1000 * 0.16 * 0.9)
        assert got == pytest.approx(want, rel=1e-12)

    def test_clips_at_one(self):
        assert eig_tail_rhs(0.1 * np.eye(2), n=5, eps=0.01) == 1.0

    def test_eps_boundary_and_validation(self):
        cov = 0.1 * np.eye(2)
        assert eig_tail_rhs(cov, n=3, eps=12.0) <= 1.0
        with pytest.raises(ContractViolation):
            eig_tail_rhs(cov, n=3, eps=0.0)
        with pytest.raises(ContractViolation):
            eig_tail_rhs(cov, n=3, eps=12.0 + 1e-9)
        with pytest.raises(ContractViolation):
            eig_tail_rhs(cov, n=0, eps=0.5)
        with pytest.raises(ContractViolation):
            eig_tail_rhs(np.zeros((2, 2)), n=10, eps=0.5)
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ContractViolation):
                eig_tail_rhs(cov, n=10, eps=0.5, c=c)


class TestProcrustesResidualGap:
    def test_identity_permutation_both_sides_vanish(self):
        x = generate_design(10, 2, stream(51))
        lhs, rhs = procrustes_residual_gap(x, identity_permutation(10))
        assert lhs <= 1e-12
        assert rhs <= 1e-12

    def test_block_swap_absorbed_by_orthogonal_map(self):
        x, swap = block_design(half=4)
        lhs, rhs = procrustes_residual_gap(x, swap)
        assert lhs <= 1e-12
        assert rhs <= 1e-12

    def test_holds_across_random_designs_and_permutations(self):
        rng = stream(52)
        positive = 0
        for _ in range(100):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, min(3, n // 2) + 1))
            x = generate_design(n, p, rng)
            pi = random_permutation(n, rng)
            lhs, rhs = procrustes_residual_gap(x, pi)
            assert -1e-12 <= lhs <= rhs + 1e-9
            positive += rhs > 1e-9
        assert positive > 50

    def test_requires_unit_condition_number(self):
        x = generate_design(8, 2, stream(53)) @ np.diag([2.0, 1.0])
        with pytest.raises(ContractViolation):
            procrustes_residual_gap(x, identity_permutation(8))


class TestTraceMaxCheck:
    def test_identity_permutation_reaches_full_energy(self):
        # the cross matrix is n I_p, so the nuclear norm is exactly n p and
        # the constructed pair attains it
        x = generate_design(12, 3, stream(54))
        lhs, rhs = trace_max_check(x, identity_permutation(12), samples=32)
        assert rhs == pytest.approx(36.0, rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sampled_pairs_never_beat_constructed_maximizer(self):
        rng = stream(55)
        for _ in range(25):
            n = int(rng.integers(3, 10))
            p = int(rng.integers(1, min(4, n) + 1))
            x = rng.standard_normal((n, p))
            pi = random_permutation(n, rng)
            lhs, rhs = trace_max_check(x, pi, samples=64, rng=rng)
            assert lhs <= rhs + 1e-9
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_zero_samples_still_attains_and_is_deterministic(self):
        x = generate_design(6, 2, stream(56))
        pi = random_permutation(6, stream(57))
        lhs, rhs = trace_max_check(x, pi, samples=0)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        again = trace_max_check(x, pi, samples=16, rng=stream(58))
        assert trace_max_check(x, pi, samples=16, rng=stream(58)) == again

    def test_negative_samples_rejected(self):
        x = generate_design(4, 2, stream(59))
        with pytest.raises(ContractViolation):
            trace_max_check(x, identity_permutation(4), samples=-1)
