"""End-to-end acceptance checks. One test per promised behavior, each at its
stated tolerance and runtime budget, printing a [PASS] line on success.

Stochastic checks run at fixed seeds that were verified robust (the asserted
margins hold across neighboring seed choices, not just the pinned one)."""
from __future__ import annotations

import itertools
import math
import time
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from tlsperm.cli import ExperimentConfig, main, run_sweep
from tlsperm.estimators import alta, brute_force_tls, build_cost
from tlsperm.evaluation import (
    hamming_distance,
    procrustes_loss,
    procrustes_residual_gap,
    quadratic_loss,
    recovery_bound,
    run_lemma_suite,
)
from tlsperm.lap import solve_lap
from tlsperm.linalg import _orthogonal_procrustes
from tlsperm.model import (
    ProblemInstance,
    as_covariance,
    generate_design,
    generate_observations,
    identity_permutation,
    partial_shuffle,
    random_permutation,
    rotation_2d,
    stream,
)
from tlsperm.tls import TlsFit, tls_objective

from oracles import grid_procrustes_loss


def test_criterion_1_block_design_exact_values():
    t0 = time.perf_counter()
    x = np.vstack((np.column_stack((np.ones(5), -np.ones(5))),
                   np.column_stack((np.ones(5), np.ones(5)))))
    swap = np.concatenate((np.arange(5, 10), np.arange(5)))
    ident = identity_permutation(10)
    assert tls_objective(x, x) <= 1e-9
    assert tls_objective(x, x[swap]) <= 1e-9
    assert quadratic_loss(x, ident, swap) == 2.0
    assert procrustes_loss(x, ident, swap) <= 1e-9
    # the witness reflection maps the swapped rows back exactly
    assert np.array_equal(x[swap] @ np.diag([1.0, -1.0]), x)
    assert hamming_distance(ident, swap) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: block-design degenerate example, exact values "
          f"({elapsed:.2f}s)")


def test_criterion_2_exhaustive_estimator_optimality():
    t0 = time.perf_counter()
    sigmas = (0.0, 0.1, 0.3)
    violations = 0
    for t in range(200):
        rng = stream(900, t)
        n = int(rng.integers(4, 9))
        x = generate_design(n, 2, rng)
        pi_star = random_permutation(n, rng)
        inst = ProblemInstance(x=x, r=rotation_2d(60.0), pi_star=pi_star,
                               sigma=as_covariance(sigmas[t % 3], 2))
        obs = generate_observations(inst, rng)
        res = brute_force_tls(obs.y1, obs.y2)
        truth_objective = tls_objective(obs.y2, obs.y1[pi_star])
        violations += res.best_objective > truth_objective + 1e-10
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"[PASS] criterion 2: exhaustive estimator never beaten by the true "
          f"alignment, 200 instances, 0 violations ({elapsed:.1f}s)")


def test_criterion_3_alignment_residual_inequality_sweep():
    t0 = time.perf_counter()
    for t in range(1000):
        rng = stream(903, t)
        p = int(rng.integers(1, 4))
        n = int(rng.integers(2 * p, 13))
        x = generate_design(n, p, rng)
        pi = random_permutation(n, rng)
        lhs, rhs = procrustes_residual_gap(x, pi)
        assert lhs <= rhs + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[PASS] criterion 3: alignment-vs-residual inequality, 1000 cases "
          f"({elapsed:.1f}s)")


def test_criterion_4_noise_gram_tail_bound_empirical():
    t0 = time.perf_counter()
    rows, violations = run_lemma_suite("eigtail", trials=10_000, seed=901,
                                       n=2000, p=2, eps=0.5)
    assert violations == 0
    assert rows[0]["lhs"] <= rows[0]["rhs"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"[PASS] criterion 4: empirical tail frequency "
          f"{rows[0]['lhs']:.3g} <= bound {rows[0]['rhs']:.3g}, "
          f"10^4 draws ({elapsed:.1f}s)")


def test_criterion_5_noise_sweep_qualitative():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(axis="noise", grid=[0.02, 0.05, 0.1, 0.2, 0.4],
                           n=60, p=2, sigma=0.2, theta=60.0, trials=10,
                           seed=2025, estimators=["alta_c3", "aloa"],
                           init="truth")
    _, summary = run_sweep(cfg)
    med = {(r["grid_value"], r["estimator"]): r["median_procrustes"]
           for r in summary}
    mean = {(r["grid_value"], r["estimator"]): r["mean_procrustes"]
            for r in summary}
    assert med[(0.02, "alta_c3")] < 0.02
    assert med[(0.02, "aloa")] < 0.02
    assert mean[(0.4, "alta_c3")] < mean[(0.4, "aloa")]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"[PASS] criterion 5: low-noise success for both estimators, "
          f"high-noise advantage of the rank-aware one ({elapsed:.1f}s)")


def test_criterion_6_loss_decreases_when_noise_scales_inversely_with_n():
    # started from the truth the medians at this desk scale are identically
    # zero (the estimator never leaves it), which makes a strict trend
    # meaningless; a half-shuffled start keeps every grid point macroscopic
    t0 = time.perf_counter()
    medians = []
    for gi, n in enumerate((60, 120, 240)):
        losses = []
        for ti in range(10):
            rng = stream(2025, gi, ti)
            x = generate_design(n, 2, rng)
            sigma = 0.2 * 60.0 / n
            inst = ProblemInstance(x=x, r=rotation_2d(60.0),
                                   pi_star=identity_permutation(n),
                                   sigma=as_covariance(sigma, 2))
            init = partial_shuffle(n, n // 2, rng)
            obs = generate_observations(inst, rng)
            res = alta(obs.y1, obs.y2, kind="c3", init=init)
            losses.append(procrustes_loss(x, inst.pi_star, res.perm))
        medians.append(float(np.median(losses)))
    assert medians[0] > medians[1] > medians[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 6: medians strictly decreasing "
          f"{[f'{m:.3g}' for m in medians]} as n grows with noise ~ 1/n "
          f"({elapsed:.1f}s)")


def test_criterion_7_bound_assembly_and_exceedance():
    # closed form against an independent reassembly at the reference
    # configuration: n=300, p=2, unit-singular-value mixing, cov 0.04 I,
    # design energy n p = 600, eta=1, c=1/32
    n, p, eta, c = 300, 2, 1.0, 1.0 / 32.0
    x = generate_design(n, p, stream(905))
    r = rotation_2d(60.0)
    cov = 0.04 * np.eye(2)
    got = recovery_bound(x, r, cov, eta=eta, c=c).bound
    norm_x = float(np.linalg.norm(x))
    a_n = math.sqrt(2.0 * math.log(n) / (c * n))
    want = (2.0 * p / norm_x ** 2) * (1.0 + eta * a_n) * 0.04 * (
        16.0 * norm_x * math.sqrt(2.0 * n) + 2.0 * n)
    assert abs(got - want) <= 1e-12 * want

    # exceedance frequency at small n, 200 trials total, 50 per sample count;
    # the bound exceeds the loss ceiling here, so the check pins sign and
    # assembly rather than tightness
    for nn in (4, 5, 6, 7):
        exceed = 0
        for t in range(50):
            rng = stream(902, nn, t)
            xs = generate_design(nn, 2, rng)
            inst = ProblemInstance(x=xs, r=rotation_2d(60.0),
                                   pi_star=random_permutation(nn, rng),
                                   sigma=as_covariance(0.2, 2))
            obs = generate_observations(inst, rng)
            res = brute_force_tls(obs.y1, obs.y2)
            loss = procrustes_loss(xs, inst.pi_star, res.perm)
            bound = recovery_bound(xs, inst.r, inst.sigma, eta=1.0).bound
            exceed += loss > bound
        q = 1.0 / nn
        assert exceed / 50 <= q + 3.0 * math.sqrt(q * (1.0 - q) / 50)
    print(f"[PASS] criterion 7: bound matches independent assembly to 1e-12 "
          f"relative ({got:.6g}); exceedance frequency within the "
          f"statistical threshold at n=4..7")


def test_criterion_8_oracle_suites():
    t0 = time.perf_counter()
    rng = stream(906)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        cost = rng.standard_normal((n, n)) * 10.0
        assignment, total = solve_lap(cost)
        enumerated = min(float(cost[np.arange(n), perm].sum())
                         for perm in itertools.permutations(range(n)))
        assert total == float(cost[np.arange(n), assignment].sum())
        assert total == enumerated

    for _ in range(100):
        n = int(rng.integers(2, 8))
        a = rng.standard_normal((n, 2)) * 0.4
        b = rng.standard_normal((n, 2)) * 0.4
        _, exact = _orthogonal_procrustes(a, b)
        assert abs(exact - grid_procrustes_loss(a, b)) <= 1e-6

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

        def objective(v):
            return (np.sum((y2[i] - r_hat.T @ v) ** 2)
                    + np.sum((y1[j] - v) ** 2))

        res = minimize(objective, y1[j], method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-12,
                                    maxiter=20_000, maxfev=20_000))
        assert abs(c4[i, j] - res.fun) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[PASS] criterion 8: assignment, alignment, and mixed-cost oracles "
          f"all agree ({elapsed:.1f}s)")


def test_criterion_9_sweep_determinism(tmp_path):
    args = ["sweep", "--sweep", "noise", "--grid", "0.1,0.3", "--n", "12",
            "--trials", "5", "--seed", "33", "--estimator", "alta:c3,aloa",
            "--init", "random"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0

    def strip_timing(path):
        return [line.rsplit(",", 1)[0]
                for line in Path(path).read_text().splitlines()]

    assert strip_timing(a) == strip_timing(b)
    assert (a.with_suffix(".summary.csv").read_text()
            == b.with_suffix(".summary.csv").read_text())
    print("[PASS] criterion 9: repeated sweep is byte-identical outside the "
          "timing column")
