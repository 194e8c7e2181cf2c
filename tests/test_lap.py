"""Assignment solver against exhaustive enumeration, the only ground truth
available at small sizes, and against scipy's assignment of the unreduced
cost at the sizes the estimators use."""
from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from tlsperm.errors import ContractViolation, NumericalFailure
from tlsperm.lap import solve_lap
from tlsperm.model import stream


def enumerate_lap(cost: np.ndarray) -> tuple[np.ndarray, float]:
    n = cost.shape[0]
    rows = np.arange(n)
    best_total = np.inf
    best = None
    for tup in itertools.permutations(range(n)):
        perm = np.array(tup, dtype=np.intp)
        total = float(cost[rows, perm].sum())
        if total < best_total:
            best_total = total
            best = perm
    return best, best_total


class TestSolveLap:
    def test_identity_dominant_diagonal(self):
        cost = np.full((4, 4), 10.0)
        np.fill_diagonal(cost, 0.0)
        assignment, total = solve_lap(cost)
        assert np.array_equal(assignment, np.arange(4))
        assert total == 0.0

    def test_two_by_two_known(self):
        assignment, total = solve_lap(np.array([[4.0, 1.0], [2.0, 6.0]]))
        assert np.array_equal(assignment, np.array([1, 0]))
        assert total == 3.0

    def test_matches_exhaustive_enumeration_exactly(self):
        rng = stream(50)
        for case in range(500):
            n = int(rng.integers(2, 7))
            cost = rng.standard_normal((n, n))
            assignment, total = solve_lap(cost)
            best, best_total = enumerate_lap(cost)
            assert np.array_equal(assignment, best)
            assert total == best_total

    def test_row_shift_invariance(self):
        rng = stream(51)
        cost = rng.standard_normal((5, 5))
        _, total = solve_lap(cost)
        shifted = cost.copy()
        shifted[2] += 7.5
        assignment2, total2 = solve_lap(shifted)
        assert abs((total2 - 7.5) - total) <= 1e-9
        assert np.array_equal(np.sort(assignment2), np.arange(5))

    @pytest.mark.parametrize("n", [60, 300])
    def test_matches_scipy_on_continuous_costs(self, n):
        # no exact ties: the column reduction leaves scipy's unique optimum,
        # and the total is summed from the caller's matrix
        rng = stream(53, n)
        for _ in range(5):
            cost = rng.standard_normal((n, n)) * rng.uniform(0.1, 100.0, size=n)
            rows, cols = linear_sum_assignment(cost)
            assignment, total = solve_lap(cost)
            assert np.array_equal(assignment, cols)
            assert total == float(cost[rows, cols].sum())

    def test_tied_small_integer_costs_reach_the_enumerated_minimum(self):
        # many assignments tie here, and the one returned may differ from
        # scipy's pick on the unreduced matrix; its total may not
        rng = stream(54)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            assignment, total = solve_lap(cost)
            _, best_total = enumerate_lap(cost)
            assert np.array_equal(np.sort(assignment), np.arange(n))
            assert total == float(cost[np.arange(n), assignment].sum()) == best_total

    def test_column_range_beyond_the_float_range_is_solved_as_given(self):
        # the first column spans 2e308, so its reduction would overflow
        cost = np.array([[1e308, 0.0, 1.0], [-1e308, 2.0, 0.0], [0.0, 1.0, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assignment, total = solve_lap(cost)
        assert np.array_equal(assignment, [2, 0, 1])
        assert total == -1e308

    def test_overflowing_optimal_total_is_a_numerical_failure(self):
        # every entry is finite, but the optimal total, -2e308, is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="^assignment total overflows"):
                solve_lap(np.array([[1e308, -1e308], [-1e308, 1e308]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ContractViolation):
            solve_lap(np.ones((3, 4)))

    def test_rejects_nonfinite(self):
        cost = np.ones((3, 3))
        cost[1, 1] = np.nan
        with pytest.raises(ContractViolation):
            solve_lap(cost)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_returns_optimal_bijection(self, n, seed):
        cost = stream(52, n, seed).uniform(-50.0, 50.0, size=(n, n))
        assignment, total = solve_lap(cost)
        assert np.array_equal(np.sort(assignment), np.arange(n))
        assert total == pytest.approx(float(cost[np.arange(n), assignment].sum()))
        for tup in itertools.permutations(range(n)):
            alt = float(cost[np.arange(n), np.array(tup)].sum())
            assert total <= alt + 1e-9
