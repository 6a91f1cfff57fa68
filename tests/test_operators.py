"""Alpha-model operators: transport, residuals, weight, identities."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaflow.spectral as sp
from alphaflow.errors import ContractViolation
from alphaflow.fields import (
    PhysicalParams,
    StressField,
    VelocityField,
    random_divfree,
    random_stress,
    strain,
    vorticity,
)
from alphaflow.operators import (
    TestPair,
    advect,
    commutator_hat,
    gronwall_weight,
    identity_suite,
    momentum_residual,
    momentum_transport,
    stress_divergence,
    stress_residual,
    stress_rhs,
    transport_skew_defect,
    trilinear_cancellation_defect,
)
from alphaflow.solver import SimConfig
from alphaflow.spectral import Grid

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 32)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(eta=1.0, lam=1.0, alpha=1.0)


@pytest.fixture(scope="module")
def config():
    # the system the residuals test: eps = 0 and delta = 1 unless replaced
    return SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.1)


def shear(grid):
    x = grid.coordinates()
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[0] = np.sin(x[1])
    return VelocityField.from_values(grid, vals)


def shear_pair(grid, with_stress=False):
    doc = {"dim": 2,
           "velocity_modes": [{"k": [0, 1], "component": 0, "sin": [1.0]}]}
    if with_stress:
        doc["stress_modes"] = [{"k": [0, 0], "entry": [0, 1], "cos": [0.5]}]
    return TestPair.from_json(grid, doc)


def linear_pair(grid):
    """z0 + t z1 with a constant stress part, all random."""
    velocity = np.stack([random_divfree(grid, seed=s).hat for s in (31, 32)])
    return TestPair(grid, velocity, random_stress(grid, seed=33).hat[None])


class TestAdvect:
    def test_constant_scalar(self, grid):
        u = shear(grid)
        q = sp.to_spectral(grid, np.full(grid.shape, 2.0))
        assert np.max(np.abs(advect(u, q))) / grid.size <= 1e-13

    def test_orthogonal_dependence(self, grid):
        # u = (sin x2, 0) transports any field depending only on x2 trivially
        u = shear(grid)
        x = grid.coordinates()
        q = sp.to_spectral(grid, np.cos(3 * x[1]))
        assert np.max(np.abs(advect(u, q))) / grid.size <= 1e-12

    def test_skew_symmetry_scalar(self, grid):
        for seed in range(20):
            u = random_divfree(grid, seed=seed, spectrum_decay=2.5)
            q = random_stress(grid, seed=seed + 1000, spectrum_decay=2.5).hat[0]
            defect = transport_skew_defect(u, q)
            scale = np.sqrt(u.h_norm_sq(1.0)) * sp.sobolev_norm_sq(grid, q, 1.0)
            assert defect <= 1e-10 * scale

    def test_skew_symmetry_stress(self, grid):
        for seed in range(20):
            u = random_divfree(grid, seed=seed + 50, spectrum_decay=2.5)
            s = random_stress(grid, seed=seed + 2000, spectrum_decay=2.5)
            defect = transport_skew_defect(u, s.hat, s.weights)
            scale = np.sqrt(u.h_norm_sq(1.0)) * s.h_norm_sq(1.0)
            assert defect <= 1e-10 * scale


class TestMomentumTransport:
    def test_zero_v(self, grid):
        u = shear(grid)
        out = momentum_transport(u, np.zeros_like(u.hat))
        assert np.max(np.abs(out)) == 0.0

    def test_shear_is_pure_gradient(self, grid):
        # v = filtered u = (1 + a^2) sin(x2) e1, curl v = -(1 + a^2) cos(x2),
        # so (curl v) x u = (0, -(1 + a^2) sin(x2) cos(x2)) = grad(-(1 + a^2)
        # sin^2(x2) / 2): a pure gradient, like the convective form it replaces
        u = shear(grid)
        v = sp.helmholtz_apply(grid, u.hat, 1.0)
        out = momentum_transport(u, v)
        x = grid.coordinates()
        expected = np.zeros((2,) + grid.shape)
        expected[1] = -2.0 * np.sin(x[1]) * np.cos(x[1])
        assert np.max(np.abs(sp.to_real(grid, out) - expected)) <= 1e-11
        projected = sp.leray_project(grid, out)
        assert np.max(np.abs(projected)) / grid.size <= 1e-12

    @settings(derandomize=True, deadline=None, database=None, max_examples=24)
    @given(dim=st.sampled_from([2, 3]), alpha=st.sampled_from([0.5, 1.0]),
           seed=st.integers(0, 2**16))
    def test_projected_rotational_form_equals_convective_form(self, dim, alpha, seed):
        # P[(curl v) x u] = P[(u . grad) v + sum_i v_i grad u_i] for
        # dealiased u: the forms differ by grad(u . v), which P removes
        g = Grid(dim, 16 if dim == 2 else 8)
        axes = g.spatial_axes
        u = random_divfree(g, seed=seed, spectrum_decay=2.5)
        v_hat = sp.helmholtz_apply(g, u.hat, alpha)

        def real(h):
            return np.fft.irfftn(h, s=g.shape, axes=axes)

        u_vals, v_vals = real(u.hat), real(v_hat)
        convective = np.zeros((dim,) + g.shape)
        for j in range(dim):
            for i in range(dim):
                convective[j] += u_vals[i] * real(sp.spectral_derivative(g, v_hat[j], i))
                convective[j] += v_vals[i] * real(sp.spectral_derivative(g, u.hat[i], j))
        expected = sp.leray_project(g, sp.dealias(g, np.fft.rfftn(convective, axes=axes)))
        out = sp.leray_project(g, momentum_transport(u, v_hat))
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestStressDivergence:
    def test_closed_form(self, grid):
        x = grid.coordinates()
        entries = np.zeros((3,) + grid.shape)
        entries[1] = np.sin(x[0])  # sigma_01 = sigma_10 = sin x1
        s = StressField.from_entry_values(grid, entries)
        div = sp.to_real(grid, stress_divergence(s))
        # (div s)_0 = d1 sigma_10 = 0, (div s)_1 = d0 sigma_01 = cos x1
        assert np.max(np.abs(div[0])) <= 1e-12
        assert np.max(np.abs(div[1] - np.cos(x[0]))) <= 1e-12


class TestStressRhs:
    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_equals_its_terms_one_by_one(self, dim, n):
        # stress_rhs sums the transport and commutator products in real
        # space and transforms once; advect and commutator_hat keep the
        # one definition of each product
        g = Grid(dim, n)
        u = random_divfree(g, seed=dim, spectrum_decay=2.5)
        sigma = random_stress(g, seed=dim + 1, spectrum_decay=2.5)
        mu, delta = 0.7, 0.6
        expected = (2.0 * mu * strain(u).hat - advect(u, sigma.hat)
                    - commutator_hat(sigma, vorticity(u))) * delta
        out = stress_rhs(u, sigma, mu, delta)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestTrilinearIdentity:
    def test_zero(self, grid):
        assert trilinear_cancellation_defect(VelocityField.zero(grid), 1.0) == 0.0

    def test_single_mode_shear(self, grid):
        assert trilinear_cancellation_defect(shear(grid), 1.0) <= 1e-12

    def test_random_fields(self, grid):
        for seed in range(30):
            kappa = random_divfree(grid, seed=seed + 300, spectrum_decay=2.5)
            defect = trilinear_cancellation_defect(kappa, 1.0)
            h1 = np.sqrt(kappa.h_norm_sq(1.0))
            assert defect <= 1e-10 * (1 + 1.0**2) * h1**3


class TestIdentitySuite:
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_rejects_no_samples(self, n_samples):
        # no sample used to report a zero defect, so every identity passed
        with pytest.raises(ContractViolation, match="at least 1 sample"):
            identity_suite(Grid(2, 16), alpha=1.0, n_samples=n_samples)


class TestTestPair:
    def test_zero_pair(self, grid):
        pair = TestPair.zero(grid)
        assert not pair.has_stress
        assert np.max(np.abs(pair.at(3.0).z.hat)) == 0.0

    def test_divergence_free_at_all_times(self, grid):
        pair = TestPair.random(grid, seed=1, degree=3)
        for t in (0.0, 0.3, 1.7):
            assert pair.at(t).z.divergence_max() <= 1e-12

    def test_exact_time_derivative(self, grid):
        # polynomial derivative vs high-order finite difference
        pair = TestPair.random(grid, seed=2, degree=3)
        t, h = 0.7, 1e-3
        z_hat = {s: pair.at(t + s * h).z.hat for s in (-2, -1, 1, 2)}
        stencil = (z_hat[-2] - 8 * z_hat[-1] + 8 * z_hat[1] - z_hat[2]) / (12 * h)
        exact = pair.at(t).z_rate
        assert np.max(np.abs(stencil - exact)) <= 1e-9 * max(np.max(np.abs(exact)), 1.0)

    def test_from_json_realizes_modes(self, grid):
        doc = {
            "dim": 2,
            "velocity_modes": [
                {"k": [0, 1], "component": 0, "sin": [1.0, 0.5]},
            ],
            "stress_modes": [
                {"k": [1, 0], "entry": [0, 1], "cos": [2.0]},
            ],
        }
        pair = TestPair.from_json(grid, doc)
        x = grid.coordinates()
        v1 = pair.at(1.0).z.values
        assert np.max(np.abs(v1[0] - 1.5 * np.sin(x[1]))) <= 1e-12
        theta = pair.at(0.0).theta
        assert np.max(np.abs(theta.entry_values(0, 1) - 2.0 * np.cos(x[0]))) <= 1e-12

    def test_json_round_trip_through_string(self, grid):
        doc = json.dumps({"dim": 2, "velocity_modes": [
            {"k": [1, 1], "component": 1, "cos": [1.0]}]})
        pair = TestPair.from_json(grid, doc)
        assert pair.at(0.0).z.divergence_max() <= 1e-12

    @pytest.mark.parametrize("mode", [
        {"k": [1], "component": 0, "cos": [1.0]},  # would fill a column of modes
        {"k": [1, 0, 2], "component": 0, "cos": [1.0]},
        {"k": [1, 0], "component": 5, "cos": [1.0]},
        {"k": [1, 0], "component": -1, "cos": [1.0]},
        {"k": [1.5, 0], "component": 0, "cos": [1.0]},
        {"k": [0, 33], "component": 0, "cos": [1.0]},  # would alias to k = (0, 1)
        {"k": [11, 0], "component": 1, "cos": [1.0]},  # beyond the cutoff 10
    ])
    def test_from_json_rejects_bad_velocity_mode(self, grid, mode):
        with pytest.raises(ContractViolation):
            TestPair.from_json(grid, {"dim": 2, "velocity_modes": [mode]})

    @pytest.mark.parametrize("entry", [[0, 3], [0], [-1, 0]])
    def test_from_json_rejects_bad_stress_entry(self, grid, entry):
        doc = {"dim": 2, "stress_modes": [{"k": [1, 0], "entry": entry, "cos": [1.0]}]}
        with pytest.raises(ContractViolation):
            TestPair.from_json(grid, doc)

    def test_from_json_rejects_malformed_text(self, grid):
        with pytest.raises(ContractViolation):
            TestPair.from_json(grid, '{"dim": 2, "velocity_modes": [')

    @pytest.mark.parametrize("part", ["velocity_modes", "stress_modes"])
    @pytest.mark.parametrize("key, coeffs", [
        ("cos", [float("nan")]), ("sin", [1.0, float("inf")]),
        ("cos", [float("-inf")]),
        ("sin", [1e308, 1e308]),  # finite, but 0.5 * N^2 * c overflows
    ])
    def test_from_json_rejects_non_finite_coefficients(self, grid, part, key, coeffs):
        mode = {"k": [1, 0], key: coeffs}
        mode.update({"component": 1} if part == "velocity_modes" else {"entry": [0, 1]})
        with pytest.raises(ContractViolation, match=repr(key)):
            TestPair.from_json(grid, {"dim": 2, part: [mode]})

    def test_from_json_accepts_the_largest_representable_coefficient(self, grid):
        c = np.finfo(float).max / (0.5 * grid.size)
        pair = TestPair.from_json(grid, {"dim": 2, "stress_modes": [
            {"k": [1, 0], "entry": [0, 0], "cos": [c]}]})
        assert np.all(np.isfinite(pair.stress_coeffs))


def _polyval_reference(coeffs, t):
    # value and t-derivative of sum_p coeffs[p] t^p, mode by mode
    poly = np.polynomial.polynomial
    flat = coeffs.reshape(coeffs.shape[0], -1)
    return tuple(poly.polyval(t, c).reshape(coeffs.shape[1:])
                 for c in (flat, poly.polyder(flat, axis=0)))


class TestPairEvaluation:
    """``TestPair.at`` against ``polyval``."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(dim=st.sampled_from([2, 3]), degree=st.integers(0, 10),
           seed=st.integers(0, 2**16),
           times=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2, unique=True))
    def test_values_and_rates_match_polyval(self, dim, degree, seed, times):
        grid = Grid(dim, 8)
        pair = TestPair.random(grid, seed=seed, degree=degree, max_wavenumber=2)
        t1, t2 = times
        held = pair.at(t1)
        held_copy = [held.z.hat.copy(), held.theta.hat.copy()]
        for t in (t1, t2, t1):
            sample = pair.at(t)
            got = {"velocity": (sample.z.hat, sample.z_rate),
                   "stress": (sample.theta.hat, sample.theta_rate)}
            for name, coeffs in (("velocity", pair.velocity_coeffs),
                                 ("stress", pair.stress_coeffs)):
                for got_part, want in zip(got[name], _polyval_reference(coeffs, t)):
                    scale = max(np.max(np.abs(want)), 1e-300)
                    assert np.max(np.abs(got_part - want)) <= 1e-12 * scale, name
            for array in (pair.velocity_coeffs, pair.stress_coeffs):
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1.0
        # a sample taken earlier is not overwritten by later evaluations
        assert np.array_equal(held.z.hat, held_copy[0])
        assert np.array_equal(held.theta.hat, held_copy[1])

    def test_evaluation_leaves_the_pair_unchanged(self, grid):
        pair = TestPair.random(grid, seed=11, degree=3)
        before = dict(vars(pair))
        first = pair.at(0.4)
        assert pair.at(0.4) is not first  # no memo: each call evaluates afresh
        assert vars(pair).keys() == before.keys()
        assert all(vars(pair)[key] is value for key, value in before.items())

    def test_values_cache_read_only(self, grid):
        z = TestPair.random(grid, seed=12, degree=1).at(0.3).z
        with pytest.raises(ValueError):
            z.values[0, 0, 0] = 1.0

    def test_caller_writes_do_not_reach_the_pair(self, grid):
        # the pair owns its coefficients even when it does not sanitize them
        z = random_divfree(grid, seed=13)
        coeffs = z.hat[None].copy()
        pair = TestPair(grid, coeffs, sanitize=False)
        before = pair.at(0.0).z.hat.copy()
        coeffs *= 2.0
        assert np.array_equal(pair.velocity_coeffs[0], before)

    def test_zero_flags(self, grid):
        assert TestPair.zero(grid).is_zero
        assert not TestPair.random(grid, seed=14, degree=1).is_zero
        stress_only = TestPair(grid, np.zeros((1, 2) + grid.spectral_shape),
                               random_stress(grid, seed=15).hat[None], sanitize=False)
        assert stress_only.has_stress and not stress_only.is_zero


class TestMomentumResidual:
    def test_zero_pair(self, grid, config):
        out = momentum_residual(TestPair.zero(grid).at(0.5), config)
        assert np.max(np.abs(out.hat)) == 0.0

    def test_delta_zero_kills_all_but_rate(self, grid, config):
        pair = shear_pair(grid)  # time-independent
        out = momentum_residual(pair.at(0.2), replace(config, delta=0.0))
        assert np.max(np.abs(out.hat)) / grid.size <= 1e-12

    def test_steady_shear_residual_vanishes(self, grid, config):
        # nonlinearity is a pure gradient, removed by the projection
        pair = shear_pair(grid)
        out = momentum_residual(pair.at(0.0), config)
        assert np.sqrt(out.h_norm_sq(0.0)) <= 1e-10

    def test_output_divergence_free(self, grid, config):
        pair = TestPair.random(grid, seed=3, degree=2)
        out = momentum_residual(pair.at(0.4), config)
        assert out.divergence_max() <= 1e-10 * np.sqrt(out.h_norm_sq(1.0)) + 1e-14

    def test_affine_in_delta(self, grid, config):
        pair = TestPair.random(grid, seed=4, degree=2)
        t, cfg = 0.3, replace(config, epsilon=1e-3)
        r0 = momentum_residual(pair.at(t), replace(cfg, delta=0.0)).hat
        r1 = momentum_residual(pair.at(t), replace(cfg, delta=1.0)).hat
        rd = momentum_residual(pair.at(t), replace(cfg, delta=0.4)).hat
        combo = r0 + 0.4 * (r1 - r0)
        assert np.max(np.abs(rd - combo)) <= 1e-11 * max(np.max(np.abs(r1)), 1.0)

    def test_linear_oracle_at_delta_zero(self, grid, config):
        # z = z0 + t z1 at delta = 0: only the hyperdissipation and the rate
        # remain, P[-eps (1+|k|^2)^3 z - H z1]
        pair = linear_pair(grid)
        t, cfg = 0.3, replace(config, epsilon=1e-3, delta=0.0)
        z0, z1 = pair.velocity_coeffs
        z = z0 + t * z1
        expected = sp.leray_project(grid, -cfg.epsilon * grid.bessel_symbol(3.0) * z
                                    - sp.helmholtz_apply(grid, z1, cfg.alpha))
        out = momentum_residual(pair.at(t), cfg).hat
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestStressResidual:
    def test_zero_pair(self, grid, config):
        out = stress_residual(TestPair.zero(grid).at(0.1), config)
        assert np.max(np.abs(out.hat)) == 0.0

    def test_constant_theta_relaxation(self, grid, config):
        # constant-in-time-and-space theta: residual is -theta / lambda
        pair = shear_pair(grid, with_stress=True)
        pair = TestPair(grid, np.zeros_like(pair.velocity_coeffs),
                        pair.stress_coeffs, sanitize=False)
        out = stress_residual(pair.at(0.9), config)
        theta = pair.at(0.9).theta
        diff = out.hat + theta.hat / config.lam
        assert np.max(np.abs(diff)) / grid.size <= 1e-12

    def test_shear_source_oracle(self, grid, config):
        # z = (sin x2, 0), theta = 0: residual is 2 mu E(z), E12 = cos(x2)/2
        pair = shear_pair(grid)
        out = stress_residual(pair.at(0.0), config)
        x = grid.coordinates()
        expected = config.params.mu * np.cos(x[1])
        assert np.max(np.abs(out.entry_values(0, 1) - expected)) <= 1e-11
        assert np.max(np.abs(out.entry_values(0, 0))) <= 1e-11

    def test_symmetric_output(self, grid, config):
        pair = TestPair.random(grid, seed=5, degree=2)
        out = stress_residual(pair.at(0.2), replace(config, delta=0.7))
        assert np.array_equal(out.entry_values(0, 1), out.entry_values(1, 0))

    def test_affine_in_delta(self, grid, config):
        pair = TestPair.random(grid, seed=6, degree=2)
        t, cfg = 0.8, replace(config, epsilon=1e-3)
        r0 = stress_residual(pair.at(t), replace(cfg, delta=0.0)).hat
        r1 = stress_residual(pair.at(t), replace(cfg, delta=1.0)).hat
        rd = stress_residual(pair.at(t), replace(cfg, delta=0.25)).hat
        combo = r0 + 0.25 * (r1 - r0)
        assert np.max(np.abs(rd - combo)) <= 1e-11 * max(np.max(np.abs(r1)), 1.0)

    def test_linear_oracle_at_delta_zero(self, grid, config):
        # constant theta at delta = 0: only -eps (1+|k|^2)^2 theta remains
        pair = linear_pair(grid)
        cfg = replace(config, epsilon=1e-3, delta=0.0)
        theta = pair.stress_coeffs[0]
        expected = -cfg.epsilon * grid.bessel_symbol(2.0) * theta
        out = stress_residual(pair.at(0.3), cfg).hat
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestGronwallWeight:
    def test_zero_pair(self, grid, params):
        assert gronwall_weight(TestPair.zero(grid).at(0.0), params, 1.0) == 0.0

    def test_shear_closed_form(self, grid, params):
        # alpha=1: |2z|_1 + |z|_1 + |z|_3 with Bessel norms of sin(x2):
        # |z|_1 = 2pi, |2z|_1 = 4pi, |z|_3 = 4pi -> total 10 pi
        pair = shear_pair(grid)
        value = gronwall_weight(pair.at(0.0), params, 1.0)
        assert value == pytest.approx(10.0 * np.pi, rel=1e-12)

    def test_linear_in_gamma(self, grid, params):
        pair = TestPair.random(grid, seed=7, degree=1)
        one = gronwall_weight(pair.at(0.5), params, 1.0)
        two = gronwall_weight(pair.at(0.5), params, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_mu_zero_with_stress_rejected(self, grid):
        p = PhysicalParams(eta=0.0, lam=1.0, alpha=1.0)
        pair = shear_pair(grid, with_stress=True)
        with pytest.raises(ContractViolation):
            gronwall_weight(pair.at(0.0), p, 1.0)

