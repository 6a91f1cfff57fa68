"""Comparison-lemma bound: closed forms, oracle match, hypotheses."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp

import alphaflow
from alphaflow.errors import BoundOverflow, ContractViolation
from alphaflow.gronwall import (
    _cumulative_trapezoid,
    exponential_bound,
    random_step_series,
    selftest,
)


def constant(times, value):
    return np.full(times.shape, float(value))


def under_bound(lhs, bound, rtol=1e-9):
    """lhs <= bound, with slack proportional to both scales for roundoff."""
    scale = np.max(np.abs(bound)) + np.max(np.abs(lhs)) + 1e-300
    return bool(np.all(lhs <= bound + rtol * scale))


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("n", [2, 5, 101, 10_000])
    def test_bit_identical_to_scipy(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.0, 3.0, n))
        y = rng.standard_normal(n)
        assert np.array_equal(_cumulative_trapezoid(y, x),
                              cumulative_trapezoid(y, x, initial=0.0))

    def test_package_import_does_not_load_scipy(self):
        src = str(Path(alphaflow.__file__).resolve().parents[1])
        code = "import sys, alphaflow; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestClosedForms:
    def test_zero_weight_zero_source(self):
        times = np.linspace(0.0, 1.0, 10_000)
        bound = exponential_bound(times, 2.0, constant(times, 0.0), constant(times, 0.0))
        assert np.max(np.abs(bound - 2.0)) <= 1e-12

    def test_unit_weight_exponential(self):
        times = np.linspace(0.0, 1.0, 10_000)
        bound = exponential_bound(times, 3.0, constant(times, 1.0), constant(times, 0.0))
        exact = 3.0 * np.exp(times)
        assert np.max(np.abs(bound - exact) / exact) <= 1e-6

    def test_pure_source(self):
        # L = 0: bound = f0 + int M; take M = cos -> f0 + sin t
        times = np.linspace(0.0, 2.0, 10_000)
        bound = exponential_bound(times, 1.0, constant(times, 0.0), np.cos(times))
        exact = 1.0 + np.sin(times)
        assert np.max(np.abs(bound - exact)) <= 1e-7


class TestOracleComparison:
    def test_random_step_inputs_match_comparison_equation(self):
        # the bound saturates g' = L g + M, g(0) = f(0): integrate that
        # equation on the interpolated samples with a tight tolerance
        times = np.linspace(0.0, 1.0, 10_000)
        rng = np.random.default_rng(7)
        L = random_step_series(times, rng)
        M = random_step_series(times, rng)
        bound = exponential_bound(times, 1.0, L, M)

        def rhs(t, g):
            return np.interp(t, times, L) * g + np.interp(t, times, M)

        sol = solve_ivp(rhs, (0.0, 1.0), [1.0], t_eval=times, rtol=1e-10,
                        atol=1e-12, max_step=float(times[1]))
        rel = np.max(np.abs(bound - sol.y[0]) / np.maximum(np.abs(sol.y[0]), 1e-300))
        assert rel <= 1e-5

    @pytest.mark.parametrize("samples", [0, 5, 9])
    def test_selftest_rejects_too_few_samples(self, samples):
        # 8 jumps need 10 grid points; 5 used to die in numpy's choice
        with pytest.raises(ContractViolation, match="at least 10 samples"):
            selftest(samples=samples)

    def test_selftest_at_the_fewest_samples(self):
        assert set(selftest(samples=10)) == {"constant", "exponential", "random"}

    def test_monotone_in_source(self):
        times = np.linspace(0.0, 1.0, 500)
        rng = np.random.default_rng(8)
        L = random_step_series(times, rng)
        M = random_step_series(times, rng)
        low = exponential_bound(times, 1.0, L, M)
        high = exponential_bound(times, 1.0, L, M + 0.5)
        assert np.all(high >= low)


class TestHypotheses:
    def test_negative_weight_rejected(self):
        times = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ContractViolation, match="nonnegative"):
            exponential_bound(times, 1.0, constant(times, -0.5), constant(times, 0.0))

    def test_nan_weight_rejected(self):
        times = np.linspace(0.0, 1.0, 5)
        L = np.array([0.0, 1.0, np.nan, 1.0, 0.0])
        with pytest.raises(ContractViolation, match="nonnegative"):
            exponential_bound(times, 1.0, L, constant(times, 0.0))

    def test_nonincreasing_times_rejected(self):
        times = np.array([0.0, 0.5, 0.5])
        with pytest.raises(ContractViolation, match="strictly increasing"):
            exponential_bound(times, 1.0, constant(times, 0.0), constant(times, 0.0))

    def test_decreasing_times_rejected(self):
        # returned a bound that was not monotone in t
        times = np.array([2.0, 1.0, 0.0])
        with pytest.raises(ContractViolation, match="strictly increasing"):
            exponential_bound(times, 1.0, constant(times, 1.0), constant(times, 0.0))

    @pytest.mark.parametrize("shape", [(0,), (2, 3)])
    def test_times_must_be_a_nonempty_series(self, shape):
        times = np.zeros(shape)
        with pytest.raises(ContractViolation, match="1-D"):
            exponential_bound(times, 1.0, np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("series", ["L", "M"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_wrong_length_series_rejected(self, series, length):
        # times [0, 1, 2] with 2 samples of L silently returned [1, e, e^2]
        times = np.array([0.0, 1.0, 2.0])
        args = {"L": constant(times, 1.0), "M": constant(times, 0.0)}
        args[series] = np.ones(length)
        with pytest.raises(ContractViolation, match=f"{series} must have 3 samples"):
            exponential_bound(times, 1.0, args["L"], args["M"])

    def test_single_sample_accepted(self):
        # the check at t_end = 0 has one snapshot: the bound is f0
        bound = exponential_bound(np.array([0.0]), 1.5, np.array([0.3]), np.array([2.0]))
        assert bound.tolist() == [1.5]

    @pytest.mark.parametrize("f0, level", [(0.0, 1e300), (1.0, 1e300), (0.0, 710.0)])
    def test_overflowing_weight_integral_rejected(self, f0, level):
        # exp(int L) * (f0 + inner) was inf * 0 = NaN at f0 = 0
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(BoundOverflow, match="overflows"):
            exponential_bound(times, f0, np.full(11, level), np.zeros(11))

    def test_large_finite_weight_integral_accepted(self):
        times = np.linspace(0.0, 1.0, 11)
        bound = exponential_bound(times, 1.0, np.full(11, 709.0), np.zeros(11))
        assert np.all(np.isfinite(bound)) and bound[-1] == pytest.approx(np.exp(709.0))

    def test_check_accepts_true_solution(self):
        # f solving f' = L f + M exactly satisfies the conclusion with chi = 0
        times = np.linspace(0.0, 1.0, 2_000)
        f = 2.0 * np.exp(times)  # solves f' = f, L = 1, M = 0
        bound = exponential_bound(times, f[0], constant(times, 1.0), constant(times, 0.0))
        assert under_bound(f, bound)

    def test_check_flags_violation(self):
        times = np.linspace(0.0, 1.0, 2_000)
        f = 5.0 + times  # grows although L = M = 0 says it cannot
        bound = exponential_bound(times, f[0], constant(times, 0.0), constant(times, 0.0))
        assert not under_bound(f, bound)

    def test_absorbed_term_enters_conclusion(self):
        # f + int chi must stay under the bound, not f alone
        times = np.linspace(0.0, 1.0, 2_000)
        f = np.ones_like(times)
        absorbed = f + _cumulative_trapezoid(constant(times, 3.0), times)  # 1 + 3t
        bound = exponential_bound(times, f[0], constant(times, 0.0), constant(times, 0.0))
        assert under_bound(f, bound)
        assert not under_bound(absorbed, bound)
