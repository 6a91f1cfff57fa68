"""Comparison-lemma bound: closed forms, oracle match, hypotheses."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp

import alphaflow
from alphaflow.errors import ContractViolation
from alphaflow.gronwall import (
    GronwallInput,
    _cumulative_trapezoid,
    exponential_bound,
    gronwall_bound,
    gronwall_check,
    random_step_series,
)


def make_input(times, f, chi, L, M):
    return GronwallInput(times=times, f=f, chi=chi, L=L, M=M)


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
        data = make_input(times, 2.0, 0.0, 0.0, 0.0)
        bound = gronwall_bound(data)
        assert np.max(np.abs(bound - 2.0)) <= 1e-12

    def test_unit_weight_exponential(self):
        times = np.linspace(0.0, 1.0, 10_000)
        data = make_input(times, 3.0, 0.0, 1.0, 0.0)
        bound = gronwall_bound(data)
        exact = 3.0 * np.exp(times)
        assert np.max(np.abs(bound - exact) / exact) <= 1e-6

    def test_pure_source(self):
        # L = 0: bound = f0 + int M; take M = cos -> f0 + sin t
        times = np.linspace(0.0, 2.0, 10_000)
        data = make_input(times, 1.0, 0.0, 0.0, np.cos(times))
        bound = gronwall_bound(data)
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

    def test_monotone_in_source(self):
        times = np.linspace(0.0, 1.0, 500)
        rng = np.random.default_rng(8)
        L = random_step_series(times, rng)
        M = random_step_series(times, rng)
        low = exponential_bound(times, 1.0, L, M)
        high = exponential_bound(times, 1.0, L, M + 0.5)
        assert np.all(high >= low)


class TestHypotheses:
    def test_negative_chi_rejected(self):
        times = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ContractViolation):
            make_input(times, 1.0, -1.0, 0.0, 0.0)

    def test_negative_weight_rejected(self):
        times = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ContractViolation):
            make_input(times, 1.0, 0.0, -0.5, 0.0)

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ContractViolation):
            make_input(np.array([0.0, 0.5, 0.5]), 1.0, 0.0, 0.0, 0.0)

    def test_check_accepts_true_solution(self):
        # f solving f' = L f + M exactly satisfies the conclusion with chi = 0
        times = np.linspace(0.0, 1.0, 2_000)
        f = 2.0 * np.exp(times)  # solves f' = f, L = 1, M = 0
        data = make_input(times, f, 0.0, 1.0, 0.0)
        bound, ok = gronwall_check(data)
        assert ok

    def test_check_flags_violation(self):
        times = np.linspace(0.0, 1.0, 2_000)
        f = 5.0 + times  # grows although L = M = 0 says it cannot
        data = make_input(times, f, 0.0, 0.0, 0.0)
        _, ok = gronwall_check(data)
        assert not ok

    def test_absorbed_term_enters_conclusion(self):
        # f + int chi must stay under the bound, not f alone
        times = np.linspace(0.0, 1.0, 2_000)
        f = np.ones_like(times)
        data = make_input(times, f, 3.0, 0.0, 0.0)  # int chi = 3t, bound = 1
        _, ok = gronwall_check(data)
        assert not ok
