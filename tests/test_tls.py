"""Rank-p objective and fit. The fit is checked against the optimality
characterization directly: its residual must not be beaten by any sampled
rank-p approximation of the stacked pair. The public functions' input checks
are pinned input by input: the same values, errors and messages whichever
validation route an input takes."""
from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tlsperm import linalg
from tlsperm.errors import ContractViolation, DegenerateFit, NumericalFailure
from tlsperm.linalg import _svd_factors
from tlsperm.model import (
    generate_design,
    random_orthogonal,
    random_permutation,
    rotation_2d,
    stream,
)
from tlsperm.tls import TlsFit, _fit, _observation_pair, tls_fit, tls_objective


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
        assert tls_objective(x, x[swap]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_gram_eigenvalue_route(self):
        # independent identity: squared singular values of the stack are the
        # eigenvalues of its Gram matrix
        rng = stream(32)
        for _ in range(50):
            y2 = rng.standard_normal((7, 2))
            y1 = rng.standard_normal((7, 2))
            stack = np.hstack([y2, y1])
            eigs = np.linalg.eigvalsh(stack.T @ stack)[::-1]
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

    def test_overflowing_residual_is_a_numerical_failure(self):
        """Past 2^480 the stack is scored in the power-of-two frame: at 2^500
        the residual is the scale-1 one times exactly 2^1000, and at 1e200 it
        does not fit in a float, a NumericalFailure on every input route with
        no warning first (warnings are errors here)."""
        rng = stream(35)
        y2 = rng.standard_normal((8, 2))
        y1 = rng.standard_normal((8, 2))
        assert tls_objective(np.ldexp(y2, 500), np.ldexp(y1, 500)) == math.ldexp(
            tls_objective(y2, y1), 1000)
        for big2, big1 in ((y2 * 1e200, y1 * 1e200), ((y2 * 1e200).tolist(), y1 * 1e200)):
            with pytest.raises(NumericalFailure,
                               match="^objective overflows in the units of the inputs$"):
                tls_objective(big2, big1)

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
        s = np.linalg.svd(np.hstack([fit.x_hat @ fit.r_hat, fit.x_hat]), compute_uv=False)
        assert s[2] <= 1e-8 * s[0]

    def test_degenerate_when_aligned_block_vanishes(self):
        y2 = stream(39).standard_normal((6, 2))
        with pytest.raises(DegenerateFit):
            tls_fit(y2, np.zeros((6, 2)))

    def test_rank_rule_is_relative_to_the_stack(self):
        """x_hat's smallest singular value is judged against the stack's
        largest, which bounds r_hat below 1e10: y1p = y2 * 2^-30 fits with
        r_hat near 2^30 I, and y1p = y2 * 2^-40 is degenerate, though x_hat
        is well conditioned on its own."""
        y2 = stream(43).standard_normal((12, 2))
        fit = tls_fit(y2, np.ldexp(y2, -30))
        assert np.linalg.norm(fit.r_hat, 2) < 1e10
        with pytest.raises(DegenerateFit):
            tls_fit(y2, np.ldexp(y2, -40))

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
            u, s, v = _svd_factors(np.hstack((y2, y1)))
            objective = float(np.sum(s[p:] ** 2))
            low_rank = (u[:, :p] * s[:p]) @ v[:, :p].T
            x_hat = low_rank[:, p:]
            sv = np.linalg.svd(x_hat, compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]
            r_hat, *_ = np.linalg.lstsq(x_hat, low_rank[:, :p], rcond=None)
            fit = tls_fit(y2, y1)
            assert fit.objective == objective
            assert np.array_equal(fit.x_hat, x_hat)
            assert np.linalg.norm(fit.r_hat - r_hat) <= 1e-10 * np.linalg.norm(r_hat)

    @pytest.mark.parametrize("n, p", [(7, 2), (60, 1), (300, 3)])
    def test_signs_of_raw_factors_cancel_bitwise(self, monkeypatch, n, p):
        """The fit uses the raw factors, with no sign rule: flipping any set of
        singular vector pairs in the driver's factors leaves x_hat and r_hat
        bit for bit, and both come back C-ordered."""
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


class TestOrthogonalColumnMixing:
    """y1 -> y1 q1 and y2 -> y2 q2 multiply the stack [y2 | y1] on the right
    by the block-orthogonal diag(q2, q1): the objective is unchanged and the
    fit maps to x_hat q1 and q1.T r_hat q2. Rounding in the rank-p truncation
    grows as the relative gap g between singular values p and p+1 of the
    stack closes, and in r_hat also with the condition number of x_hat, so
    the tolerances scale with 1/g and with that condition number."""

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), extra=st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_fit_and_objective_follow_the_mixing(self, seed, p, extra):
        rng = stream(seed)
        n = 2 * p + extra
        y2, y1 = rng.standard_normal((n, p)), rng.standard_normal((n, p))
        q1, q2 = random_orthogonal(p, rng), random_orthogonal(p, rng)
        s = np.linalg.svd(np.hstack((y2, y1)), compute_uv=False)
        tol = 1e-12 * s[0] / (s[p - 1] - s[p])
        ref, fit = tls_fit(y2, y1), tls_fit(y2 @ q2, y1 @ q1)
        for objective in (fit.objective, tls_objective(y2 @ q2, y1 @ q1)):
            assert abs(objective - ref.objective) <= tol * s[0] ** 2
        assert np.linalg.norm(fit.x_hat - ref.x_hat @ q1) <= tol * np.linalg.norm(ref.x_hat)
        sx = np.linalg.svd(ref.x_hat, compute_uv=False)
        assert np.linalg.norm(fit.r_hat - q1.T @ ref.r_hat @ q2) <= (
            tol * sx[0] / sx[-1] * np.linalg.norm(ref.r_hat))


def outcome(f, *args):
    """What f(*args) gives, comparable bit for bit: the bytes of a float or
    of a fit's fields, or the class and message of the exception raised."""
    try:
        with np.errstate(all="ignore"):
            value = f(*args)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)
    if isinstance(value, TlsFit):
        return (value.x_hat.tobytes(), value.r_hat.tobytes(),
                np.float64(value.objective).tobytes())
    return np.float64(value).tobytes()


def kernel_fit(m2, m1):
    """_fit's fit, or for its None the DegenerateFit that tls_fit raises."""
    fit = _fit(m2, m1)[1]
    if fit is None:
        raise DegenerateFit("denoised design is numerically rank deficient")
    return fit


# finite float64 entries, drawn over the whole range and with the extremes
# (signed zeros, the largest magnitudes, subnormals) drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200, 1e308, -1e308,
                     1.7976931348623157e308, 5e-324]))


@st.composite
def finite_pairs(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.integers(2 * p, 2 * p + 5))
    y2 = draw(hnp.arrays(np.float64, (n, p), elements=FINITE))
    y1 = draw(hnp.arrays(np.float64, (n, p), elements=FINITE))
    return y2, y1


GOOD = np.arange(12.0).reshape(6, 2)
INF, NAN = np.inf, np.nan


def with_entry(i: int, j: int, value: float, base=GOOD) -> np.ndarray:
    """A copy of base with entry (i, j) set to value."""
    a = base.copy()
    a[i, j] = value
    return a


# (y2, y1p, the ContractViolation message); y1p is named y1 in the messages
INVALID = {
    "nan in y1": (GOOD, with_entry(2, 1, NAN), "y1 contains NaN or Inf entries"),
    "inf in y1": (GOOD, with_entry(0, 0, INF), "y1 contains NaN or Inf entries"),
    "both infinities in y1": (GOOD, with_entry(1, 0, -INF, with_entry(0, 0, INF)),
                              "y1 contains NaN or Inf entries"),
    "nan in y2": (with_entry(5, 1, NAN), GOOD, "y2 contains NaN or Inf entries"),
    "-inf in y2": (with_entry(1, 0, -INF), GOOD, "y2 contains NaN or Inf entries"),
    "nan in both": (with_entry(0, 0, NAN), with_entry(3, 1, INF),
                    "y1 contains NaN or Inf entries"),
    "1-D y2, nan in y1": (np.ones(6), with_entry(0, 0, NAN),
                          "y1 contains NaN or Inf entries"),
    "nan in y2, 3-D y1": (with_entry(0, 0, NAN), np.ones((6, 2, 1)),
                          "y1 must be a nonempty 2-D array, got shape (6, 2, 1)"),
    "nan in a list": (GOOD.tolist(), with_entry(4, 0, NAN).tolist(),
                      "y1 contains NaN or Inf entries"),
    "inf in float32": (GOOD.astype(np.float32), with_entry(1, 1, INF).astype(np.float32),
                       "y1 contains NaN or Inf entries"),
    "int and float32 shapes differ": (np.arange(12).reshape(6, 2),
                                      np.ones((6, 3), dtype=np.float32),
                                      "y1 and y2 shapes differ: (6, 3) vs (6, 2)"),
    "1-D": (np.ones(6), np.ones(6), "y1 must be a nonempty 2-D array, got shape (6,)"),
    "3-D": (np.ones((6, 2, 1)), np.ones((6, 2, 1)),
            "y1 must be a nonempty 2-D array, got shape (6, 2, 1)"),
    "no rows": (np.empty((0, 2)), np.empty((0, 2)),
                "y1 must be a nonempty 2-D array, got shape (0, 2)"),
    "no columns": (np.empty((6, 0)), np.empty((6, 0)),
                   "y1 must be a nonempty 2-D array, got shape (6, 0)"),
    "columns differ": (np.ones((6, 2)), np.ones((6, 3)),
                       "y1 and y2 shapes differ: (6, 3) vs (6, 2)"),
    "rows differ": (np.ones((6, 2)), np.ones((7, 2)),
                    "y1 and y2 shapes differ: (7, 2) vs (6, 2)"),
    "n < 2p": (np.ones((3, 2)), np.ones((3, 2)), "need n >= 2p, got n=3, p=2"),
    "n < 2p at p = 1": (np.ones((1, 1)), np.ones((1, 1)), "need n >= 2p, got n=1, p=1"),
}

class Sub(np.ndarray):
    """A plain ndarray subclass: float64 data, but not exactly an ndarray."""


# float64 with metadata: equal to float64, but not the same dtype object
TAGGED = np.dtype(np.float64, metadata={"unit": "m"})

# inputs accepted off tls_objective's one-pass route, each with its float64
# equivalent
CONVERTED = {
    "lists": (GOOD.tolist(), (GOOD + 0.5).tolist()),
    "int": (np.arange(12).reshape(6, 2), np.arange(12)[::-1].reshape(6, 2)),
    "float32": (GOOD.astype(np.float32), (GOOD * 0.1).astype(np.float32)),
    "big-endian": (GOOD.astype(">f8"), (GOOD - 3.0).astype(">f8")),
    "ndarray subclass": (GOOD.view(Sub), (GOOD * 0.3 - 1.0).view(Sub)),
    "float64 with metadata": (GOOD.astype(TAGGED), (GOOD * 0.7 + 2.0).astype(TAGGED)),
}


class TestInputRoutes:
    """tls_objective checks a float64 pair of one valid shape (exact ndarray
    type, the float64 dtype object itself) with one pass over its stack, and
    everything else on the as_matrix route, which tls_fit takes for every
    input. Either way the accepted inputs, values and errors are the same."""

    @given(pair=finite_pairs())
    @example(pair=(np.full((4, 1), 1e308), np.full((4, 1), 1e308)))
    @example(pair=(np.full((4, 2), -0.0), np.full((4, 2), 0.0)))
    @example(pair=(np.array([[1e308], [1e308], [-1e308], [1e308]]),
                   np.array([[1e308], [-1e308], [1e308], [1e308]])))
    @settings(max_examples=200, deadline=None)
    def test_public_equals_private_kernel_bitwise(self, pair):
        """The objective's one-pass route equals its as_matrix route (lists
        take it), and tls_fit equals its private kernel's fit, bit for bit."""
        y2, y1 = pair
        m1, m2, _, _ = _observation_pair(y1, y2)
        assert outcome(tls_objective, y2, y1) == outcome(tls_objective, y2.tolist(), y1.tolist())
        assert outcome(tls_fit, y2, y1) == outcome(kernel_fit, m2, m1)

    @pytest.mark.parametrize("f", [tls_objective, tls_fit])
    @pytest.mark.parametrize("case", INVALID)
    def test_invalid_input_raises_pinned_message(self, f, case):
        y2, y1, message = INVALID[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ContractViolation) as err:
                f(y2, y1)
        assert str(err.value) == message
        assert [str(w.message) for w in caught] == []

    def test_lapack_failure_raises_one_message_on_every_route(self, monkeypatch):
        """A failed dgesdd is one NumericalFailure for a float64 pair and for
        lists alike, after one SVD: no route retries it."""
        calls = []

        def failing(a, *args, **kwargs):
            calls.append(a.shape)
            return None, np.zeros(min(a.shape)), None, 1

        monkeypatch.setattr(linalg, "_gesdd", failing)
        for y2, y1 in ((GOOD, GOOD + 0.5), (GOOD.tolist(), (GOOD + 0.5).tolist())):
            calls.clear()
            with pytest.raises(NumericalFailure) as err:
                tls_objective(y2, y1)
            assert str(err.value) == "dgesdd failed with info=1"
            assert calls == [(6, 4)]

    @pytest.mark.parametrize("f", [tls_objective, tls_fit])
    def test_unconvertible_input_is_numpy_error(self, f):
        with pytest.raises(ValueError, match="could not convert string to float: 'abc'"):
            f("abc", GOOD)

    @pytest.mark.parametrize("f", [tls_objective, tls_fit])
    @pytest.mark.parametrize("case", CONVERTED)
    def test_converted_input_matches_float64(self, f, case):
        y2, y1 = CONVERTED[case]
        expected = outcome(f, np.asarray(y2, dtype=float), np.asarray(y1, dtype=float))
        assert outcome(f, y2, y1) == expected

    @pytest.mark.parametrize("f", [tls_objective, tls_fit])
    def test_strided_and_fortran_ordered_inputs_match_contiguous(self, f):
        rng = stream(43)
        y2 = rng.standard_normal((9, 6))
        y1 = rng.standard_normal((9, 3))
        ref = outcome(f, np.ascontiguousarray(y2[:, ::2]), y1)
        assert outcome(f, y2[:, ::2], y1) == ref
        assert outcome(f, y2[:, ::2], np.asfortranarray(y1)) == ref
