"""Estimator behavior: exact enumeration against an independent second pass,
cost-matrix entries against their definitions (including the closed-form
minimum against a gradient-free minimizer), assignment composition pinned on
noiseless instances, the iterative schemes' selection guarantees, the
model's symmetries (relabelling y1, permuting both rows jointly, a common
scale, orthogonal column mixing) for every estimator and the role swap for
all but aloa, and the descent that lets the iterative schemes stop at a fixed
point."""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, minimize

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
    random_orthogonal,
    random_permutation,
    rotation_2d,
    stream,
)
from tlsperm.tls import TlsFit, _fit, _framed_pair, tls_fit, tls_objective

from oracles import block_design


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

    def test_scores_every_permutation_once_in_order(self, monkeypatch):
        """One public tls_objective call per permutation of the framed rows,
        in itertools.permutations order; the returned perm owns its buffer."""
        _, _, y1, y2 = noisy_instance(7, sigma=0.3, seed=74)
        expected = brute_force_tls(y1, y2)
        row_of = {v: i for i, v in enumerate(_framed_pair(y1, y2)[0][:, 0])}
        scored = []
        real_objective = estimators.tls_objective

        def objective(m2, y1p):
            scored.append(tuple(row_of[v] for v in y1p[:, 0]))
            return real_objective(m2, y1p)

        monkeypatch.setattr(estimators, "tls_objective", objective)
        res = brute_force_tls(y1, y2)
        assert scored == list(itertools.permutations(range(7)))
        assert res.iterations == 5040
        assert np.array_equal(res.perm, expected.perm)
        assert res.best_objective == expected.best_objective
        assert res.perm.dtype == np.intp and res.perm.base is None


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

    def test_rejects_fit_of_another_shape(self):
        _, _, y1, y2 = noisy_instance(6, sigma=0.1, seed=78)
        fit = tls_fit(y2, y1)
        short = TlsFit(x_hat=fit.x_hat[:5], r_hat=fit.r_hat, objective=fit.objective)
        with pytest.raises(ContractViolation,
                           match="^fit shapes are inconsistent with the observations$"):
            build_cost("c1", short, y1, y2)


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

    def test_iteration_budget_respected(self, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_ITER", 3)
        _, _, y1, y2 = noisy_instance(12, sigma=0.6, seed=86)
        res = alta(y1, y2, kind="c3", init=random_permutation(12, stream(87)))
        assert 1 <= res.iterations <= 3
        assert len(res.objective_trace) == res.iterations

    def test_single_iteration_allowed(self, monkeypatch):
        monkeypatch.setattr(estimators, "MAX_ITER", 1)
        _, _, y1, y2 = noisy_instance(8, sigma=0.2, seed=88)
        res = alta(y1, y2, kind="c2")
        assert res.iterations == 1

    def test_degenerate_fit_marks_failure_and_keeps_best(self):
        y2 = stream(89).standard_normal((6, 2))
        res = alta(np.zeros((6, 2)), y2, kind="c3")
        assert res.failure == "degenerate_fit"
        assert not res.converged
        assert np.array_equal(res.perm, np.arange(6))
        assert len(res.objective_trace) == 1

    def test_degenerate_fit_reports_its_own_residual(self, monkeypatch):
        """A rank-1 y1 leaves the first fit degenerate. Its objective is the
        residual of the fit's own SVD: no second scoring, so alta finishes
        with tls_objective patched to raise."""
        y1 = np.array([[1, 2], [2, 4], [-1, -2], [3, 6], [0, 0], [-2, -4], [1, 2]], float)
        y2 = np.array([[3, 1], [-2, 4], [5, -1], [1, 2], [-4, -3], [2, 5], [0, -2]], float)
        m1, m2, _, e = _framed_pair(y1, y2)
        residual, fit = _fit(m2, m1)
        assert fit is None and residual > 0.0
        want = tls_objective(y2, y1)

        def unused(*args):
            raise AssertionError("tls_objective called")

        monkeypatch.setattr(estimators, "tls_objective", unused)
        res = alta(y1, y2, kind="c3")
        assert (res.failure, res.iterations, res.converged) == ("degenerate_fit", 1, False)
        assert res.objective_trace == [res.best_objective] == [math.ldexp(residual, e)]
        assert res.best_objective == pytest.approx(want, rel=1e-12)

    def test_noiseless_recovery_through_cost_ties(self):
        """A noiseless n=60 instance from a random start: c1's costs tie on
        the way, and alta still reaches the truth in 9 fits. A stop on a
        start whose assignment cost is within 1e-12 of the optimal total
        ends 6 fits in with 22 rows wrong."""
        rng = stream(900, 60, 0, 4)
        x = generate_design(60, 2, rng)
        pi_star = random_permutation(60, rng)
        inst = ProblemInstance(x=x, r=rotation_2d(60.0), pi_star=pi_star,
                               sigma=as_covariance(0.0, 2))
        obs = generate_observations(inst, rng)
        res = alta(obs.y1, obs.y2, kind="c1", init=random_permutation(60, rng))
        assert np.count_nonzero(res.perm != pi_star) == 0
        assert res.best_objective <= 1e-20

    def test_rejects_bad_kind(self):
        _, _, y1, y2 = noisy_instance(6, sigma=0.1, seed=90)
        with pytest.raises(ContractViolation):
            alta(y1, y2, kind="c9")

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


class TestExactMinimiserIsAltaFixedPoint:
    """Brute force as the oracle of the iterative scheme: started at the exact
    minimiser, alta of every cost kind keeps it (each assignment minimises a
    majoriser that touches the objective there), and no run from the identity
    beats it. n = 7, p in {1, 2}, sigma in {0.1, 0.3, 1.0}, two draws each."""

    CASES = [(p, sigma, draw) for p in (1, 2) for sigma in (0.1, 0.3, 1.0) for draw in range(2)]

    @staticmethod
    def instance(p: int, sigma: float, draw: int):
        rng = stream(98, p, int(sigma * 10), draw)
        inst = ProblemInstance(x=generate_design(7, p, rng), r=random_orthogonal(p, rng),
                               pi_star=random_permutation(7, rng),
                               sigma=as_covariance(sigma, p))
        obs = generate_observations(inst, rng)
        return obs.y1, obs.y2

    @pytest.mark.parametrize("p, sigma, draw", CASES)
    def test_alta_keeps_the_exact_minimiser(self, p, sigma, draw):
        y1, y2 = self.instance(p, sigma, draw)
        exact = brute_force_tls(y1, y2)
        for kind in COST_KINDS:
            res = alta(y1, y2, kind=kind, init=exact.perm)
            assert np.array_equal(res.perm, exact.perm), kind
            assert res.best_objective == pytest.approx(exact.best_objective, rel=1e-9), kind
            from_identity = alta(y1, y2, kind=kind)
            assert from_identity.best_objective >= exact.best_objective * (1 - 1e-12), kind


OVERFLOW = "^objective overflows in the units of the inputs$"


class TestOverflow:
    """The estimators work in a power-of-two frame, so a large common scale
    changes only the units of the objectives: at 2^510 the estimate is the
    scale-1 estimate. At 1e200 the objective does not fit in a float, and that
    is a numerical failure of the data, not a caller error, with no numpy
    warning first (warnings are errors here). Inside the frame every fit is
    bounded, so a y1 far below y2 overflows nothing: alta stops at a
    degenerate fit and aloa is unaffected."""

    @staticmethod
    def solve(estimator: str, y1, y2):
        if estimator == "brute":
            return brute_force_tls(y1, y2)
        if estimator == "aloa":
            return aloa(y1, y2)
        return alta(y1, y2, kind=estimator)

    @pytest.mark.parametrize("estimator", [*COST_KINDS, "aloa", "brute"])
    def test_large_common_scale_leaves_the_estimate_unchanged(self, estimator):
        _, _, y1, y2 = noisy_instance(7 if estimator == "brute" else 12, sigma=0.1, seed=97)
        ref = self.solve(estimator, y1, y2)
        res = self.solve(estimator, np.ldexp(y1, 510), np.ldexp(y2, 510))
        assert np.array_equal(res.perm, ref.perm)
        assert (res.iterations, res.converged, res.failure) == (
            ref.iterations, ref.converged, ref.failure)
        assert res.objective_trace == [math.ldexp(v, 1020) for v in ref.objective_trace]

    @pytest.mark.parametrize("scale", [1e200])
    @pytest.mark.parametrize("estimator", [*COST_KINDS, "aloa"])
    def test_iterative_estimators_raise_numerical_failure(self, estimator, scale):
        _, _, y1, y2 = noisy_instance(12, sigma=0.1, seed=97)
        with pytest.raises(NumericalFailure, match=OVERFLOW):
            self.solve(estimator, y1 * scale, y2 * scale)

    def test_brute_force_raises_numerical_failure(self):
        _, _, y1, y2 = noisy_instance(7, sigma=0.1, seed=97)
        with pytest.raises(NumericalFailure, match=OVERFLOW):
            brute_force_tls(y1 * 1e200, y2 * 1e200)

    def test_aloa_keeps_its_estimate_when_y1_is_far_below_y2(self):
        """A relative scale stays in the frame: a y1 some 2^1030 below y2 is
        subnormal there. aloa's fit is a projection of y2 onto y1's factored
        columns, so it neither overflows nor warns, and the estimate is the
        scale-1 one."""
        _, _, y1, y2 = noisy_instance(12, sigma=0.1, seed=97)
        ref = aloa(y1, y2)
        for k in (-1000, -1030):
            res = aloa(np.ldexp(y1, k), y2)
            assert np.array_equal(res.perm, ref.perm), k
            assert (res.iterations, res.converged, res.failure) == (
                ref.iterations, ref.converged, ref.failure), k

    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_alta_degenerates_when_y1_is_far_below_y2(self, kind):
        """At y1 = y2 * 1e-200 the denoised design is some 1e-200 of the
        stack, so the first fit is degenerate: the run stops there with the
        marker, and no cost is built from an unbounded r_hat (c4's used to
        overflow with a warning)."""
        y2 = stream(0).standard_normal((8, 1))
        res = alta(y2 * 1e-200, y2, kind=kind)
        assert (res.failure, res.iterations, res.converged) == ("degenerate_fit", 1, False)
        assert math.isfinite(res.best_objective)


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
        for cap in (1, estimators.MAX_ITER):
            calls, laps = self.count_validation(monkeypatch)
            monkeypatch.setattr(estimators, "MAX_ITER", cap)
            if estimator == "aloa":
                res = aloa(y1, y2, init=init)
            else:
                res = alta(y1, y2, kind=estimator, init=init)
            monkeypatch.undo()
            lap_calls = calls.pop(("tlsperm.lap", "as_matrix"), 0)
            assert lap_calls == len(laps)
            counts.append((res.iterations, calls))
        (short_iters, short), (long_iters, long) = counts
        assert short_iters == 1 and long_iters >= 4
        assert sum(short.values()) > 0
        assert long == short


class TestScipyAssignmentReplay:
    """On noisy data no two assignments tie exactly, so every run must be the
    one scipy's assignment of the engine's own, unreduced cost gives: the same
    permutation, bit-identical traces, iteration count, stop and failure."""

    @staticmethod
    def raw_lap(cost):
        rows, cols = linear_sum_assignment(cost)
        return cols.astype(np.intp), float(cost[rows, cols].sum())

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("n", [12, 60, 300])
    def test_matches_scipy_on_the_unreduced_cost(self, monkeypatch, n, sigma):
        rng = stream(131, n, int(sigma * 100))
        inst = ProblemInstance(x=generate_design(n, 2, rng), r=rotation_2d(60.0),
                               pi_star=random_permutation(n, rng),
                               sigma=as_covariance(sigma, 2))
        obs = generate_observations(inst, rng)
        for estimator in [*COST_KINDS, "aloa"]:
            runs = []
            for lap in (solve_lap, self.raw_lap):
                monkeypatch.setattr(estimators, "solve_lap", lap)
                if estimator == "aloa":
                    res = aloa(obs.y1, obs.y2)
                else:
                    res = alta(obs.y1, obs.y2, kind=estimator)
                runs.append(res)
            ours, ref = runs
            assert np.array_equal(ours.perm, ref.perm), estimator
            assert ours.objective_trace == ref.objective_trace, estimator
            assert ours.ols_residual_trace == ref.ols_residual_trace, estimator
            assert (ours.iterations, ours.converged, ours.failure) == (
                ref.iterations, ref.converged, ref.failure), estimator


class TestSymmetries:
    """The model's symmetries, for every estimator: n=20, sigma 0.2 and a
    random start for the iterative schemes, n=6 for brute force. Relabelling
    the rows of y1 hands every step the same aligned pair, so it holds
    exactly; a joint row permutation, a common scale and orthogonal column
    mixing hold up to rounding.

    Swapping the roles of y1 and y2 gives the same model with the inverse
    permutation and the inverse mixing. brute, c3 and c4 treat both sides
    alike, and c1 and c2 are each other's dual. aloa treats y1 as noise-free,
    so it has no such symmetry and is not tested for one."""

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
        inv = np.argsort(s)
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
            inv = np.argsort(t)
            ref = self.solve(estimator, y1, y2, init)
            res = self.solve(estimator, y1[t], y2[t], inv[init[t]])
            assert np.array_equal(res.perm, inv[ref.perm[t]])
            assert res.iterations == ref.iterations
            assert res.objective_trace == pytest.approx(ref.objective_trace, rel=1e-9)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_common_scale_leaves_the_estimate_unchanged(self, estimator):
        # below about 1e-154 the objective underflows in the caller's units;
        # the estimate does not change
        for seed in range(400, 404):
            y1, y2, init = self.instance(estimator, seed)
            ref = self.solve(estimator, y1, y2, init)
            for scale in (1e-300, 1e-250, 1e-200, 1e-150, 1e-100, 1e-50,
                          1e50, 1e100, 1e150, 1e152):
                res = self.solve(estimator, y1 * scale, y2 * scale, init)
                assert np.array_equal(res.perm, ref.perm), scale
                assert res.iterations == ref.iterations, scale
                assert res.best_objective == pytest.approx(
                    ref.best_objective * scale * scale, rel=1e-9, abs=1e-320), scale

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000))
    @example(seed=5, k=-560)
    @example(seed=5, k=510)
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scale_is_exact(self, estimator, seed, k):
        """Rescaling y1 and y2 by 2^k leaves the run unchanged and multiplies
        every objective by exactly 2^2k, or raises NumericalFailure when one
        of them does not fit in a float."""
        y1, y2, init = self.instance(estimator, seed)
        s1, s2 = np.ldexp(y1, k), np.ldexp(y2, k)
        assume(np.array_equal(np.ldexp(s1, -k), y1) and np.array_equal(np.ldexp(s2, -k), y2))
        ref = self.solve(estimator, y1, y2, init)
        try:
            expected = [math.ldexp(v, 2 * k) for v in (
                ref.best_objective, *ref.objective_trace, *(ref.ols_residual_trace or ()))]
        except OverflowError:
            with pytest.raises(NumericalFailure, match=OVERFLOW):
                self.solve(estimator, s1, s2, init)
            return
        res = self.solve(estimator, s1, s2, init)
        assert np.array_equal(res.perm, ref.perm)
        assert (res.iterations, res.converged, res.failure) == (
            ref.iterations, ref.converged, ref.failure)
        assert [res.best_objective, *res.objective_trace,
                *(res.ols_residual_trace or ())] == expected

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 2), k=st.integers(-1000, 0))
    @example(seed=5, p=1, k=-700)
    @example(seed=5, p=2, k=-1000)
    @settings(max_examples=40, deadline=None)
    def test_scaling_y1_alone_keeps_every_objective_finite(self, estimator, seed, p, k):
        """A y1 scaled alone by 2^k keeps its relative scale in the frame.
        Every fit there is bounded, so no estimator warns (warnings are
        errors here) or reports a non-finite objective. At p = 1, x_hat has
        one singular value, so only a rank rule relative to the stack can
        reject it."""
        n = 6 if estimator == "brute" else 20
        rng = stream(seed, 2, p)
        x = rng.standard_normal((n, p))
        y1 = x + 0.2 * rng.standard_normal((n, p))
        y2 = x @ random_orthogonal(p, rng) + 0.2 * rng.standard_normal((n, p))
        res = self.solve(estimator, np.ldexp(y1, k), y2, random_permutation(n, rng))
        assert all(math.isfinite(v) for v in (
            res.best_objective, *res.objective_trace, *(res.ols_residual_trace or ())))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_orthogonal_column_mixing_leaves_the_estimate_unchanged(self, estimator):
        # y1 -> y1 q1, y2 -> y2 q2 multiplies the stack [y2 | y1p] on the
        # right by a block-orthogonal matrix: every fit and cost is unchanged
        for seed in range(500, 510):
            y1, y2, init = self.instance(estimator, seed)
            q1 = random_orthogonal(2, stream(seed, 4))
            q2 = random_orthogonal(2, stream(seed, 5))
            ref = self.solve(estimator, y1, y2, init)
            res = self.solve(estimator, y1 @ q1, y2 @ q2, init)
            assert np.array_equal(res.perm, ref.perm)
            assert res.iterations == ref.iterations
            assert res.objective_trace == pytest.approx(ref.objective_trace, rel=1e-9)

    @pytest.mark.parametrize("estimator, dual", [
        ("brute", "brute"), ("c3", "c3"), ("c4", "c4"), ("c1", "c2"), ("c2", "c1")])
    def test_role_swap_inverts_the_estimate(self, estimator, dual):
        # dual on (y2, y1) from the inverse start returns the inverse of
        # estimator on (y1, y2)
        for seed in range(600, 610):
            y1, y2, init = self.instance(estimator, seed)
            ref = self.solve(estimator, y1, y2, init)
            res = self.solve(dual, y2, y1, np.argsort(init))
            assert np.array_equal(res.perm, np.argsort(ref.perm))
            assert res.iterations == ref.iterations
            assert res.objective_trace == pytest.approx(ref.objective_trace, rel=1e-9)


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
