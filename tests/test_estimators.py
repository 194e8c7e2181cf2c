"""Estimator behavior: exact enumeration against an independent second pass,
cost-matrix entries against their definitions (including the closed-form
minimum against a gradient-free minimizer), assignment composition pinned on
noiseless instances, the iterative schemes' selection guarantees, the
model's symmetries (relabelling y1, permuting both rows jointly, a common
scale) for every estimator, and the descent that lets the iterative schemes
stop at a fixed point."""
from __future__ import annotations

import itertools
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from tlsperm import estimators, linalg, model
from tlsperm.errors import ContractViolation, NumericalFailure, RankDeficient
from tlsperm.estimators import (
    COST_KINDS,
    alta,
    aloa,
    brute_force_tls,
    build_cost,
)
from tlsperm.lap import solve_lap
from tlsperm.model import (
    ProblemInstance,
    as_covariance,
    generate_design,
    generate_observations,
    identity_permutation,
    invert_permutation,
    random_orthogonal,
    random_permutation,
    rotation_2d,
    stream,
)
from tlsperm.tls import TlsFit, tls_fit, tls_objective


def block_design(half: int):
    """Points stacked on (1, 0) and (0, 1), identity mixing. Any alignment
    that keeps the two groups intact is exact."""
    x = np.vstack((np.tile([1.0, 0.0], (half, 1)),
                   np.tile([0.0, 1.0], (half, 1))))
    swap = np.concatenate((np.arange(half, 2 * half), np.arange(half)))
    return x, swap


def noiseless_instance(n: int, seed: int, permuted: bool = True):
    rng = stream(seed)
    x = generate_design(n, 2, rng)
    r = rotation_2d(60.0)
    pi = random_permutation(n, rng) if permuted else identity_permutation(n)
    y1 = x
    y2 = x[pi] @ r
    return x, r, pi, y1, y2


def noisy_instance(n: int, sigma: float, seed: int):
    rng = stream(seed)
    x = generate_design(n, 2, rng)
    inst = ProblemInstance(x=x, r=rotation_2d(60.0),
                           pi_star=identity_permutation(n),
                           sigma=as_covariance(sigma, 2))
    obs = generate_observations(inst, rng)
    return x, inst.pi_star, obs.y1, obs.y2


class TestBruteForce:
    def test_recovers_noiseless_permutation(self):
        _, _, pi, y1, y2 = noiseless_instance(7, seed=70)
        res = brute_force_tls(y1, y2)
        assert np.array_equal(res.perm, pi)
        assert res.best_objective <= 1e-18
        assert res.iterations == 5040
        assert res.converged and res.failure is None

    def test_block_design_tie_breaks_to_first_enumerated(self):
        x, _ = block_design(half=3)
        res = brute_force_tls(x, x)
        # many alignments reach zero here; the first in enumeration order is
        # the identity
        assert np.array_equal(res.perm, np.arange(6))
        assert res.best_objective <= 1e-12

    def test_matches_independent_second_pass_exactly(self):
        rng = stream(71)
        for case in range(20):
            n = int(rng.integers(4, 7))
            _, _, y1, y2 = noisy_instance(n, sigma=0.3, seed=710 + case)
            res = brute_force_tls(y1, y2)
            best_obj = np.inf
            best_perm = None
            for tup in itertools.permutations(range(n)):
                perm = np.array(tup, dtype=np.intp)
                obj = tls_objective(y2, y1[perm])
                if obj < best_obj:
                    best_obj = obj
                    best_perm = perm
            assert np.array_equal(res.perm, best_perm)
            assert res.best_objective == best_obj

    def test_never_beaten_by_truth_or_random_alignments(self):
        rng = stream(72)
        _, pi_star, y1, y2 = noisy_instance(6, sigma=0.4, seed=72)
        res = brute_force_tls(y1, y2)
        assert res.best_objective <= tls_objective(y2, y1[pi_star]) + 1e-10
        for _ in range(200):
            perm = random_permutation(6, rng)
            assert res.best_objective <= tls_objective(y2, y1[perm]) + 1e-10

    def test_refuses_large_n(self):
        with pytest.raises(ContractViolation):
            brute_force_tls(np.ones((10, 1)), np.ones((10, 1)))


class TestBuildCost:
    def test_c1_diagonal_vanishes_on_perfect_fit(self):
        _, _, pi, y1, y2 = noiseless_instance(8, seed=73)
        fit = tls_fit(y2, y1[pi])
        c1 = build_cost("c1", fit, y1[pi], y2)
        assert np.all(np.diag(c1) <= 1e-18)

    def test_c2_and_c4_vanish_at_true_pairing(self):
        _, _, pi, y1, y2 = noiseless_instance(8, seed=74)
        fit = tls_fit(y2, y1[pi])
        c2 = build_cost("c2", fit, y1[pi], y2)
        c4 = build_cost("c4", fit, y1[pi], y2)
        assert np.all(np.diag(c2) <= 1e-18)
        assert np.all(np.diag(c4) <= 1e-12)

    def test_c3_is_entrywise_sum(self):
        _, _, y1, y2 = noisy_instance(10, sigma=0.2, seed=75)
        fit = tls_fit(y2, y1)
        c1 = build_cost("c1", fit, y1, y2)
        c2 = build_cost("c2", fit, y1, y2)
        c3 = build_cost("c3", fit, y1, y2)
        assert np.array_equal(c3, c1 + c2)

    def test_c4_identity_mixing_known_value(self):
        # r = I, y2 rows (1, 0), y1 rows (0, 0): the shared point settles at
        # (1/2, 0) and each side contributes 1/4
        y2 = np.tile([1.0, 0.0], (4, 1))
        y1 = np.zeros((4, 2))
        fit = TlsFit(x_hat=np.zeros((4, 2)), r_hat=np.eye(2), objective=0.0)
        c4 = build_cost("c4", fit, y1, y2)
        assert np.allclose(c4, 0.5, atol=1e-12)

    def test_c4_closed_form_matches_gradient_free_minimizer(self):
        rng = stream(76)
        worst = 0.0
        for _ in range(100):
            p = int(rng.integers(1, 4))
            n = 2 * p
            r_hat = rng.standard_normal((p, p))
            y1 = rng.standard_normal((n, p))
            y2 = rng.standard_normal((n, p))
            fit = TlsFit(x_hat=y1.copy(), r_hat=r_hat, objective=0.0)
            c4 = build_cost("c4", fit, y1, y2)
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))

            def objective(x):
                return (np.sum((y2[i] - r_hat.T @ x) ** 2)
                        + np.sum((y1[j] - x) ** 2))

            res = minimize(objective, y1[j], method="Nelder-Mead",
                           options=dict(xatol=1e-10, fatol=1e-12,
                                        maxiter=20_000, maxfev=20_000))
            worst = max(worst, abs(c4[i, j] - res.fun))
        assert worst <= 1e-6

    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_entries_are_nonnegative(self, kind):
        _, _, y1, y2 = noisy_instance(12, sigma=0.5, seed=77)
        fit = tls_fit(y2, y1)
        cost = build_cost(kind, fit, y1, y2)
        assert cost.shape == (12, 12)
        assert cost.min() >= -1e-12

    def test_rejects_unknown_kind(self):
        _, _, y1, y2 = noisy_instance(6, sigma=0.1, seed=78)
        fit = tls_fit(y2, y1)
        with pytest.raises(ContractViolation):
            build_cost("c5", fit, y1, y2)


class TestAssignmentComposition:
    """One fit/assign step on a noiseless instance with a nontrivial true
    permutation, where the correct next iterate is known. Every cost kind
    scores y2 rows against the aligned rows y1[pi], so its assignment a maps
    back onto a permutation of y1 as pi[a]."""

    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_assignment_composes_through_current_iterate(self, kind):
        _, _, pi, y1, y2 = noiseless_instance(9, seed=79)
        fit = tls_fit(y2, y1[pi])
        assignment, _ = solve_lap(build_cost(kind, fit, y1[pi], y2))
        # the aligned pair is exact, so the assignment is the identity and
        # the composed permutation stays at the truth
        assert np.array_equal(assignment, np.arange(9))
        assert np.array_equal(pi[assignment], pi)


class TestAlta:
    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_noiseless_from_truth_stays_at_zero_objective(self, kind):
        _, _, pi, y1, y2 = noiseless_instance(8, seed=82)
        res = alta(y1, y2, kind=kind, init=pi)
        assert res.converged
        assert res.best_objective <= 1e-18
        assert tls_objective(y2, y1[res.perm]) <= 1e-18

    def test_noiseless_identity_truth_recovered_from_partial_start(self):
        _, _, pi, y1, y2 = noiseless_instance(20, seed=83, permuted=False)
        start = random_permutation(20, stream(84))
        res = alta(y1, y2, kind="c3", init=start)
        assert res.best_objective <= tls_objective(y2, y1[start]) + 1e-12

    def test_trace_starts_at_init_and_selection_dominates(self):
        rng = stream(85)
        for case in range(20):
            _, _, y1, y2 = noisy_instance(10, sigma=0.4, seed=850 + case)
            start = random_permutation(10, rng)
            res = alta(y1, y2, kind="c3", init=start)
            assert res.objective_trace[0] == pytest.approx(
                tls_objective(y2, y1[start]), abs=1e-12)
            assert res.best_objective <= res.objective_trace[0] + 1e-12
            assert res.best_objective == pytest.approx(
                tls_objective(y2, y1[res.perm]), abs=1e-12)

    def test_iteration_budget_respected(self):
        _, _, y1, y2 = noisy_instance(12, sigma=0.6, seed=86)
        res = alta(y1, y2, kind="c3", init=random_permutation(12, stream(87)),
                   max_iter=3)
        assert 1 <= res.iterations <= 3
        assert len(res.objective_trace) == res.iterations

    def test_single_iteration_allowed(self):
        _, _, y1, y2 = noisy_instance(8, sigma=0.2, seed=88)
        res = alta(y1, y2, kind="c2", max_iter=1)
        assert res.iterations == 1

    def test_degenerate_fit_marks_failure_and_keeps_best(self):
        y2 = stream(89).standard_normal((6, 2))
        res = alta(np.zeros((6, 2)), y2, kind="c3")
        assert res.failure == "degenerate_fit"
        assert not res.converged
        assert np.array_equal(res.perm, np.arange(6))
        assert len(res.objective_trace) == 1

    def test_rejects_bad_kind_and_bad_max_iter(self):
        _, _, y1, y2 = noisy_instance(6, sigma=0.1, seed=90)
        with pytest.raises(ContractViolation):
            alta(y1, y2, kind="c9")
        with pytest.raises(ContractViolation):
            alta(y1, y2, kind="c1", max_iter=0)

    def test_beats_ols_alternation_at_strong_noise(self):
        # same data for both estimators, mean loss over ten draws
        from tlsperm.evaluation import procrustes_loss
        alta_losses, aloa_losses = [], []
        for t in range(10):
            rng = stream(91, t)
            x = generate_design(300, 2, rng)
            inst = ProblemInstance(x=x, r=rotation_2d(60.0),
                                   pi_star=identity_permutation(300),
                                   sigma=as_covariance(0.2, 2))
            obs = generate_observations(inst, rng)
            ra = alta(obs.y1, obs.y2, kind="c3")
            ro = aloa(obs.y1, obs.y2)
            alta_losses.append(procrustes_loss(x, inst.pi_star, ra.perm))
            aloa_losses.append(procrustes_loss(x, inst.pi_star, ro.perm))
        assert np.mean(alta_losses) < np.mean(aloa_losses)


class TestAloa:
    def test_noiseless_from_truth_fixed_point(self):
        _, _, pi, y1, y2 = noiseless_instance(8, seed=92)
        res = aloa(y1, y2, init=pi)
        assert np.array_equal(res.perm, pi)
        assert res.converged
        assert res.ols_residual_trace[0] <= 1e-18

    def test_small_noise_identity_start_recovers_alignment(self):
        from tlsperm.evaluation import procrustes_loss
        rng = stream(93)
        x = generate_design(300, 2, rng)
        inst = ProblemInstance(x=x, r=rotation_2d(60.0),
                               pi_star=identity_permutation(300),
                               sigma=as_covariance(0.04, 2))
        obs = generate_observations(inst, rng)
        res = aloa(obs.y1, obs.y2)
        assert procrustes_loss(x, inst.pi_star, res.perm) < 0.02

    def test_selection_dominates_init_residual(self):
        rng = stream(94)
        for case in range(10):
            _, _, y1, y2 = noisy_instance(12, sigma=0.5, seed=940 + case)
            start = random_permutation(12, rng)
            res = aloa(y1, y2, init=start)
            r0, *_ = np.linalg.lstsq(y1[start], y2, rcond=None)
            init_residual = float(np.linalg.norm(y1[start] @ r0 - y2) ** 2)
            assert min(res.ols_residual_trace) <= init_residual + 1e-9
            assert res.ols_residual_trace[0] == pytest.approx(init_residual, rel=1e-9)

    def test_records_rank_p_objective_alongside(self):
        _, _, y1, y2 = noisy_instance(10, sigma=0.3, seed=95)
        res = aloa(y1, y2)
        assert len(res.objective_trace) == len(res.ols_residual_trace)
        assert res.objective_trace[0] == pytest.approx(
            tls_objective(y2, y1), abs=1e-12)

    def test_trace_starts_at_init_and_best_objective_is_at_perm(self):
        # selection is by least-squares residual, so the reported objective
        # must be the one at the selected iterate, not the trace minimum
        rng = stream(85)
        for case in range(20):
            _, _, y1, y2 = noisy_instance(10, sigma=0.4, seed=850 + case)
            start = random_permutation(10, rng)
            res = aloa(y1, y2, init=start)
            assert res.objective_trace[0] == pytest.approx(
                tls_objective(y2, y1[start]), abs=1e-12)
            assert res.best_objective == pytest.approx(
                tls_objective(y2, y1[res.perm]), abs=1e-12)

    def test_rank_deficient_design_rejected(self):
        y2 = stream(96).standard_normal((6, 2))
        with pytest.raises(RankDeficient):
            aloa(np.zeros((6, 2)), y2)


class TestOverflow:
    """Inputs so large that squares overflow are a numerical failure of the
    data, not a caller error: at a common scale of 1e154 the cost matrix
    overflows, at 1e200 the rank-p objective does too."""

    @pytest.mark.parametrize("scale", [1e154, 1e200])
    @pytest.mark.parametrize("estimator", [*COST_KINDS, "aloa"])
    def test_iterative_estimators_raise_numerical_failure(self, estimator, scale):
        _, _, y1, y2 = noisy_instance(12, sigma=0.1, seed=97)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
            if estimator == "aloa":
                aloa(y1 * scale, y2 * scale)
            else:
                alta(y1 * scale, y2 * scale, kind=estimator)

    def test_brute_force_raises_numerical_failure(self):
        _, _, y1, y2 = noisy_instance(7, sigma=0.1, seed=97)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
            brute_force_tls(y1 * 1e200, y2 * 1e200)


class TestValidationAtBoundary:
    """alta and aloa validate their inputs once: the number of as_matrix and
    as_permutation calls must not grow with the iteration count. The one
    exception is solve_lap, a public function that validates each cost matrix
    it is given, so its calls are counted apart and must equal the number of
    assignments solved."""

    @staticmethod
    def count_validation(monkeypatch) -> tuple[Counter, list]:
        calls: Counter = Counter()
        laps: list = []
        for name, original in (("as_matrix", linalg.as_matrix),
                               ("as_permutation", model.as_permutation)):
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "tlsperm" and getattr(mod, name, None) is original:
                    def counted(*args, _key=(mod_name, name), _f=original, **kwargs):
                        calls[_key] += 1
                        return _f(*args, **kwargs)
                    monkeypatch.setattr(mod, name, counted)
        solve = estimators.solve_lap

        def counted_lap(cost):
            laps.append(cost.shape)
            return solve(cost)
        monkeypatch.setattr(estimators, "solve_lap", counted_lap)
        return calls, laps

    @pytest.mark.parametrize("estimator", [*COST_KINDS, "aloa"])
    def test_call_count_does_not_grow_with_iterations(self, monkeypatch, estimator):
        _, _, y1, y2 = noisy_instance(40, sigma=0.1, seed=4)
        init = random_permutation(40, stream(4, 1))
        counts = []
        for max_iter in (1, 50):
            calls, laps = self.count_validation(monkeypatch)
            if estimator == "aloa":
                res = aloa(y1, y2, init=init, max_iter=max_iter)
            else:
                res = alta(y1, y2, kind=estimator, init=init, max_iter=max_iter)
            monkeypatch.undo()
            lap_calls = calls.pop(("tlsperm.lap", "as_matrix"), 0)
            assert lap_calls == len(laps)
            counts.append((res.iterations, calls))
        (short_iters, short), (long_iters, long) = counts
        assert short_iters == 1 and long_iters >= 4
        assert sum(short.values()) > 0
        assert long == short


class TestSymmetries:
    """The model's symmetries, for every estimator: n=20, sigma 0.2 and a
    random start for the iterative schemes, n=6 for brute force. Relabelling
    the rows of y1 hands every step the same aligned pair, so it holds
    exactly; a joint row permutation and a common scale hold up to rounding."""

    ESTIMATORS = [*COST_KINDS, "aloa", "brute"]

    @staticmethod
    def instance(estimator: str, seed: int):
        n = 6 if estimator == "brute" else 20
        _, _, y1, y2 = noisy_instance(n, sigma=0.2, seed=seed)
        return y1, y2, random_permutation(n, stream(seed, 1))

    @staticmethod
    def solve(estimator: str, y1, y2, init):
        if estimator == "brute":
            return brute_force_tls(y1, y2)
        if estimator == "aloa":
            return aloa(y1, y2, init=init)
        return alta(y1, y2, kind=estimator, init=init)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_relabelling_y1_relabels_the_estimate_exactly(self, estimator, seed):
        y1, y2, init = self.instance(estimator, seed)
        s = random_permutation(len(y1), stream(seed, 2))
        inv = invert_permutation(s)
        ref = self.solve(estimator, y1, y2, init)
        res = self.solve(estimator, y1[s], y2, inv[init])
        assert np.array_equal(res.perm, inv[ref.perm])
        assert res.iterations == ref.iterations
        assert res.objective_trace == ref.objective_trace

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_joint_row_permutation_permutes_the_estimate(self, estimator):
        for seed in range(300, 310):
            y1, y2, init = self.instance(estimator, seed)
            t = random_permutation(len(y1), stream(seed, 3))
            inv = invert_permutation(t)
            ref = self.solve(estimator, y1, y2, init)
            res = self.solve(estimator, y1[t], y2[t], inv[init[t]])
            assert np.array_equal(res.perm, inv[ref.perm[t]])
            assert res.iterations == ref.iterations
            assert res.objective_trace == pytest.approx(ref.objective_trace, rel=1e-9)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_common_scale_leaves_the_estimate_unchanged(self, estimator):
        for seed in range(400, 404):
            y1, y2, init = self.instance(estimator, seed)
            ref = self.solve(estimator, y1, y2, init)
            for scale in (1e-150, 1e-100, 1e-50, 1e50, 1e100, 1e150):
                res = self.solve(estimator, y1 * scale, y2 * scale, init)
                assert np.array_equal(res.perm, ref.perm), scale
                assert res.iterations == ref.iterations, scale
                assert res.best_objective / scale**2 == pytest.approx(
                    ref.best_objective, rel=1e-9), scale


class TestDescent:
    """alta and aloa are descent methods: an exact assignment minimises a
    majoriser of the rank-p objective, and aloa is block-coordinate descent
    on its least-squares residual. So each scheme's selection trace never
    rises, up to rounding, and the engine may stop at the first fixed point."""

    @pytest.mark.parametrize("estimator", [*COST_KINDS, "aloa"])
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1, 2, 3]),
           sigma=st.sampled_from([0.05, 0.3, 1.0]), n=st.sampled_from([10, 40]),
           duplicated=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_selection_trace_never_rises(self, estimator, seed, p, sigma, n, duplicated):
        rng = stream(seed)
        x = generate_design(n, p, rng)
        if duplicated:
            x[n // 2:] = x[:n - n // 2]
        inst = ProblemInstance(x=x, r=random_orthogonal(p, rng),
                               pi_star=random_permutation(n, rng),
                               sigma=as_covariance(sigma, p))
        obs = generate_observations(inst, rng)
        init = random_permutation(n, rng)
        if estimator == "aloa":
            trace = aloa(obs.y1, obs.y2, init=init).ols_residual_trace
        else:
            trace = alta(obs.y1, obs.y2, kind=estimator, init=init).objective_trace
        for before, after in itertools.pairwise(trace):
            assert after <= before + 1e-12 * abs(before)

    @pytest.mark.parametrize("kind", ["c1", "c3"])
    def test_exact_ties_stall_instead_of_ping_ponging(self, kind):
        # on a noiseless block design many alignments share the objective, so
        # an assignment can move between tied permutations; the stall rule
        # ends the run on the first fit that does not improve
        for half in (3, 5):
            x, _ = block_design(half)
            for seed in range(10):
                init = random_permutation(2 * half, stream(seed, half))
                res = alta(x, x, kind=kind, init=init)
                assert res.converged and res.failure is None, (half, seed)
                assert res.iterations <= 4, (half, seed)
