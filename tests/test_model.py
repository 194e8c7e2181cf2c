"""Instance generation and permutation semantics. The permutation convention
(result row i = input row perm[i]) is pinned here once; everything else in the
package leans on it."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsperm.errors import ContractViolation, RankDeficient
from tlsperm.linalg import condition_number, frobenius_norm
from tlsperm.model import (
    Observations,
    ProblemInstance,
    apply_permutation,
    as_covariance,
    as_permutation,
    generate_design,
    generate_observations,
    identity_permutation,
    invert_permutation,
    normalize_condition,
    partial_shuffle,
    random_orthogonal,
    random_permutation,
    rotation_2d,
    sample_noise,
    snr,
    stream,
)

permutation_arrays = st.integers(1, 12).flatmap(
    lambda n: st.permutations(list(range(n))))


class TestStream:
    def test_same_key_same_bits(self):
        a = stream(5, 2, 7).standard_normal(16)
        b = stream(5, 2, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_bits(self):
        a = stream(5, 2, 7).standard_normal(16)
        b = stream(5, 2, 8).standard_normal(16)
        c = stream(6, 2, 7).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_keys(self):
        with pytest.raises(ContractViolation):
            stream(-1)
        with pytest.raises(ContractViolation):
            stream(0, -3)


class TestPermutations:
    def test_apply_semantics_row_lookup(self):
        a = np.arange(8.0).reshape(4, 2)
        perm = np.array([2, 0, 3, 1])
        out = apply_permutation(perm, a)
        for i in range(4):
            assert np.array_equal(out[i], a[perm[i]])

    @given(permutation_arrays)
    @settings(max_examples=60, deadline=None)
    def test_invert_round_trip(self, perm):
        p = np.array(perm)
        a = np.arange(p.size * 3, dtype=float).reshape(p.size, 3)
        assert np.array_equal(apply_permutation(invert_permutation(p),
                                                apply_permutation(p, a)), a)

    @given(permutation_arrays)
    @settings(max_examples=60, deadline=None)
    def test_inverse_composition_is_identity(self, perm):
        p = np.array(perm)
        inv = invert_permutation(p)
        assert np.array_equal(p[inv], np.arange(p.size))
        assert np.array_equal(inv[p], np.arange(p.size))

    def test_validation_rejects_duplicates_floats_and_bad_length(self):
        with pytest.raises(ContractViolation):
            as_permutation(np.array([0, 0, 1]))
        with pytest.raises(ContractViolation):
            as_permutation(np.array([0.0, 1.0]))
        with pytest.raises(ContractViolation):
            as_permutation(np.array([0, 1, 2]), n=4)
        with pytest.raises(ContractViolation):
            as_permutation(np.array([1, 2, 3]))

    def test_identity(self):
        assert np.array_equal(identity_permutation(4), np.arange(4))

    def test_random_permutation_is_valid(self):
        p = random_permutation(30, stream(1))
        as_permutation(p, 30)

    def test_apply_rejects_length_mismatch(self):
        with pytest.raises(ContractViolation):
            apply_permutation(np.array([0, 1]), np.ones((3, 2)))


class TestPartialShuffle:
    def test_suffix_fixed_prefix_permuted(self):
        perm = partial_shuffle(10, 6, stream(2))
        assert np.array_equal(perm[6:], np.arange(6, 10))
        assert np.array_equal(np.sort(perm[:6]), np.arange(6))

    @pytest.mark.parametrize("k", [0, 1])
    def test_trivial_sizes_give_identity(self, k):
        assert np.array_equal(partial_shuffle(5, k, stream(3)), np.arange(5))

    def test_full_shuffle_reaches_every_arrangement(self):
        seen = {tuple(partial_shuffle(3, 3, stream(4, t))) for t in range(300)}
        assert len(seen) == 6

    def test_rejects_bad_k(self):
        with pytest.raises(ContractViolation):
            partial_shuffle(4, 5, stream(5))
        with pytest.raises(ContractViolation):
            partial_shuffle(4, -1, stream(5))


class TestGenerateDesign:
    @pytest.mark.parametrize("n,p", [(4, 2), (10, 2), (12, 3), (5, 1), (3, 3)])
    def test_norm_and_conditioning(self, n, p):
        x = generate_design(n, p, stream(6, n, p))
        assert x.shape == (n, p)
        assert frobenius_norm(x) == pytest.approx(math.sqrt(n * p), abs=1e-10)
        assert abs(condition_number(x) - 1.0) <= 1e-8

    def test_single_cell_is_unit(self):
        x = generate_design(1, 1, stream(7))
        assert abs(x[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_p_above_n(self):
        with pytest.raises(ContractViolation):
            generate_design(2, 3, stream(8))


class TestMixing:
    def test_rotation_60_degrees(self):
        r = rotation_2d(60.0)
        assert r[0, 0] == pytest.approx(0.5)
        assert r[1, 0] == pytest.approx(math.sqrt(3) / 2)
        assert np.allclose(r.T @ r, np.eye(2), atol=1e-15)

    def test_rotation_zero_is_identity(self):
        assert np.allclose(rotation_2d(0.0), np.eye(2))

    def test_random_orthogonal_is_orthogonal(self):
        q = random_orthogonal(5, stream(9))
        assert np.allclose(q.T @ q, np.eye(5), atol=1e-12)


class TestCovarianceAndNoise:
    def test_scalar_becomes_isotropic(self):
        assert np.allclose(as_covariance(0.3, 2), 0.09 * np.eye(2))

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(ContractViolation):
            as_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]), 2)
        with pytest.raises(ContractViolation):
            as_covariance(np.array([[1.0, 0.0], [0.0, -0.1]]), 2)
        with pytest.raises(ContractViolation):
            as_covariance(-0.1, 2)

    @pytest.mark.parametrize("p", [0, -1])
    def test_rejects_dimension_below_one(self, p):
        with pytest.raises(ContractViolation, match=r"^p must be >= 1$"):
            as_covariance(0.3, p)

    @pytest.mark.parametrize("sigma, message", [
        (np.ones((2, 3)), "covariance must be 2x2, got (2, 3)"),
        (np.ones(2), "noise covariance must be a nonempty 2-D array, got shape (2,)"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "covariance must be symmetric"),
        (np.array([[1.0, 0.0], [0.0, -0.1]]), "covariance must be positive semidefinite"),
    ])
    def test_sample_noise_error_messages(self, sigma, message):
        with pytest.raises(ContractViolation) as exc:
            sample_noise(5, sigma, stream(9))
        assert str(exc.value) == message

    def test_zero_covariance_gives_zero_noise(self):
        e = sample_noise(50, np.zeros((2, 2)), stream(10))
        assert np.all(e == 0.0)

    def test_empirical_covariance_anisotropic(self):
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        e = sample_noise(200_000, cov, stream(11))
        emp = e.T @ e / e.shape[0]
        assert np.allclose(emp, cov, atol=0.02)

    def test_singular_covariance_supported(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        e = sample_noise(10_000, cov, stream(12))
        # both columns identical up to sampling of the shared factor
        assert np.allclose(e[:, 0], e[:, 1], atol=1e-12)


class TestGenerateObservations:
    def _instance(self, sigma, n=8, seed=13):
        rng = stream(seed)
        x = generate_design(n, 2, rng)
        pi = random_permutation(n, rng)
        return ProblemInstance(x=x, r=rotation_2d(60.0), pi_star=pi,
                               sigma=as_covariance(sigma, 2)), rng

    def test_noiseless_identities(self):
        inst, rng = self._instance(0.0)
        obs = generate_observations(inst, rng)
        assert np.array_equal(obs.y1, inst.x)
        assert np.allclose(obs.y2, inst.x[inst.pi_star] @ inst.r, atol=1e-15)

    def test_noise_energy_matches_covariance_trace(self):
        inst, rng = self._instance(0.3, n=4000, seed=14)
        obs = generate_observations(inst, rng)
        expected = 4000 * np.trace(as_covariance(0.3, 2))
        assert np.linalg.norm(obs.y1 - inst.x) ** 2 == pytest.approx(expected, rel=0.05)

    def test_seed_determinism(self):
        inst, _ = self._instance(0.2)
        a = generate_observations(inst, stream(15, 0))
        b = generate_observations(inst, stream(15, 0))
        assert np.array_equal(a.y1, b.y1) and np.array_equal(a.y2, b.y2)

    def test_rejects_mismatched_mixing(self):
        inst, rng = self._instance(0.1)
        bad = ProblemInstance(x=inst.x, r=np.eye(3), pi_star=inst.pi_star,
                              sigma=inst.sigma)
        with pytest.raises(ContractViolation):
            generate_observations(bad, rng)


class TestNormalizeCondition:
    def test_reconstruction_and_orthonormal_output(self):
        y1 = stream(16).standard_normal((9, 3)) @ np.diag([3.0, 1.0, 0.2])
        u, v, s = normalize_condition(y1)
        assert np.allclose(u @ np.diag(s) @ v.T, y1, atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-10)
        assert np.allclose(y1 @ v @ np.diag(1.0 / s), u, atol=1e-10)

    def test_rank_deficient_rejected(self):
        y1 = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            normalize_condition(y1)


class TestSnr:
    def test_isotropic_noise_on_unit_energy_design(self):
        x = generate_design(40, 2, stream(17))
        for sig in (0.1, 0.5, 2.0):
            assert snr(x, as_covariance(sig, 2)) == pytest.approx(1.0 / sig ** 2, abs=1e-10)

    def test_zero_noise_is_infinite(self):
        x = generate_design(6, 2, stream(18))
        assert snr(x, np.zeros((2, 2))) == float("inf")

    def test_observations_container_fields(self):
        obs = Observations(y1=np.ones((2, 1)), y2=np.zeros((2, 1)))
        assert obs.y1.shape == obs.y2.shape
