"""Dissipative-inequality checker, gamma calibration, alpha sweep."""

import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import alphaflow
import alphaflow.spectral as sp
from alphaflow.dissipative import (
    alpha_sweep,
    calibrate_gamma,
    chunk_length,
    inequality_margin,
)
from alphaflow.errors import ConfigurationError, ContractViolation, IntegrationBlowup
from alphaflow.fields import PhysicalParams, random_divfree, random_stress
from alphaflow.gronwall import exponential_bound
from alphaflow.operators import (
    TestPair,
    gronwall_weight,
    momentum_residual,
    stress_residual,
)
from alphaflow.reporting import write_json
from alphaflow.solver import SimConfig, SolverState, Trajectory, run
from alphaflow.spectral import Grid

TWO_PI = 2.0 * np.pi


def energy_estimate(traj, mode="maxwell"):
    """The inequality with the zero test pair, E(t) <= E(0), at tolerance 1e-10."""
    return inequality_margin(traj, TestPair.zero(traj.grid), traj.config.params,
                             gamma_const=1.0, mode=mode, tolerance=1e-10)


# 41 snapshots: more than one checker chunk (32 at n=32)
@pytest.fixture(scope="module")
def maxwell_traj():
    cfg = SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.2,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    stress_init="random", snapshot_stride=5)
    return run(cfg)


@pytest.fixture(scope="module")
def euler_traj():
    cfg = SimConfig(n=32, alpha=1.0, eta=0.0, lam=1.0, dt=1e-3, t_end=0.2,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    snapshot_stride=5)
    return run(cfg)


@pytest.fixture(scope="module")
def gamma_star():
    return calibrate_gamma(Grid(2, 32), samples=60, seed=0)


class TestZeroPairReduction:
    def test_margin_equals_energy_drop_exactly(self, maxwell_traj):
        params = maxwell_traj.config.params
        report = energy_estimate(maxwell_traj, mode="maxwell")
        energies = np.array([
            2.0 * params.mu * s.u.alpha_norm_sq(params.alpha) + s.sigma.l2_norm_sq()
            for s in maxwell_traj.snapshots
        ])
        # algebraically identical: same numbers to machine precision
        assert np.array_equal(report.lhs, energies)
        assert np.array_equal(report.margin, energies[0] - energies)

    def test_maxwell_estimate_passes(self, maxwell_traj):
        report = energy_estimate(maxwell_traj)
        assert report.passed
        assert report.min_margin >= -1e-10 * report.energy_scale

    def test_euler_estimate_passes(self, euler_traj):
        report = energy_estimate(euler_traj, mode="euler-alpha")
        assert report.passed
        assert report.energy_scale == pytest.approx(
            euler_traj.snapshots[0].u.alpha_norm_sq(1.0))

    def test_equality_at_t_zero(self, maxwell_traj):
        report = energy_estimate(maxwell_traj)
        assert report.margin[0] == 0.0


@pytest.fixture(scope="module")
def short_run():
    cfg = SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=2e-3, t_end=0.3,
                    epsilon=0.0, delta=1.0, initial_condition="taylor-green",
                    snapshot_stride=5)
    return run(cfg)


class TestCoincidence:
    def test_self_pair_margin_small(self, short_run, gamma_star):
        pair = TestPair.from_trajectory(short_run, degree=10)
        report = inequality_margin(short_run, pair, short_run.config.params,
                                   gamma_const=gamma_star, mode="maxwell")
        e0 = report.energy_scale
        assert report.min_margin >= -1e-6 * e0
        assert report.passed

    def test_margin_zero_at_t_zero(self, short_run, gamma_star):
        pair = TestPair.from_trajectory(short_run, degree=8)
        report = inequality_margin(short_run, pair, short_run.config.params,
                                   gamma_const=gamma_star)
        assert report.margin[0] == 0.0

    def test_gamma_monotonicity(self, short_run, gamma_star):
        pair = TestPair.from_trajectory(short_run, degree=10)
        params = short_run.config.params
        first = inequality_margin(short_run, pair, params, gamma_const=gamma_star)
        doubled = inequality_margin(short_run, pair, params,
                                    gamma_const=2.0 * gamma_star)
        assert first.passed
        assert doubled.passed


class TestSelfTestAtPositiveEps:
    """The self-fit pair passes on an eps > 0 run at the unchanged tolerance.

    The residuals used to leave out the eps terms the stepper integrated,
    so this check failed (min margin -1.04e-2 at delta = 1).  At snapshot
    stride 5 the Gronwall quadrature resolves the stiff modes.
    """

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_self_fit_passes(self, gamma_star, delta):
        cfg = SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.5,
                        epsilon=1e-3, delta=delta, initial_condition="taylor-green",
                        stress_init="random", snapshot_stride=5)
        traj = run(cfg)
        pair = TestPair.from_trajectory(traj, degree=10)
        report = inequality_margin(traj, pair, cfg.params, gamma_const=gamma_star)
        assert report.tolerance == 1e-6
        assert report.passed, report.min_margin


class TestCheckerTransformCount:
    """Scalar transforms of ``inequality_margin`` per residual node.

    A nonzero pair's residuals are evaluated once, at its 2p+1 Chebyshev
    times, where both share the real-space samples of its velocity part,
    so each node costs exactly one ``explicit_rhs`` stage and a snapshot
    (2p+1) * stage / n_snap; the rest of the check runs no transform.
    The zero pair's residuals cost nothing.
    """

    @staticmethod
    def _per_node(monkeypatch, dim, n, kind, epsilon=0.0):
        cfg = SimConfig(dim=dim, n=n, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3,
                        t_end=3e-3, epsilon=epsilon, delta=1.0,
                        initial_condition="taylor-green", stress_init="random")
        traj = run(cfg)
        grid = traj.grid
        pair = (TestPair.zero(grid) if kind == "zero"
                else TestPair.random(grid, seed=3, degree=2))
        counts = {"fwd": 0, "inv": 0}

        def counted(fn, key):
            def wrapper(g, a, *args, **kwargs):  # forwards out= and work=
                out = fn(g, a, *args, **kwargs)
                counts[key] += int(np.prod(out.shape[: out.ndim - g.dim]))
                return out
            return wrapper

        monkeypatch.setattr(sp, "to_spectral", counted(sp.to_spectral, "fwd"))
        monkeypatch.setattr(sp, "to_real", counted(sp.to_real, "inv"))
        inequality_margin(traj, pair, cfg.params, gamma_const=1.0)
        assert len(traj.snapshots) == 4
        nodes = 2 * 2 + 1  # the degree-2 pair's Chebyshev times
        return {key: count / nodes for key, count in counts.items()}

    @pytest.mark.parametrize("dim, n, fwd, inv", [(2, 16, 5, 13), (3, 8, 9, 33)])
    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_transforms_per_node(self, monkeypatch, dim, n, fwd, inv, kind):
        if kind == "zero":
            fwd, inv = 0, 0
        assert self._per_node(monkeypatch, dim, n, kind) == {"fwd": fwd, "inv": inv}

    @pytest.mark.parametrize("dim, n, fwd, inv", [(2, 16, 5, 13), (3, 8, 9, 33)])
    def test_eps_terms_cost_no_transform(self, monkeypatch, dim, n, fwd, inv):
        # the linear symbols act per mode on the spectral coefficients
        counts = self._per_node(monkeypatch, dim, n, "random", epsilon=1e-3)
        assert counts == {"fwd": fwd, "inv": inv}


class TestInitialConditionRecovery:
    """The first snapshot is the run's initial data: the bound starts from its distance."""

    @staticmethod
    def _anchored_pair(grid, a, sigma0):
        # constant-in-time pair with velocity part a and stress part sigma0
        return TestPair(grid, a.hat[None], sigma0.hat[None])

    def test_matching_data_probe_is_tight(self, maxwell_traj, gamma_star):
        params = maxwell_traj.config.params
        first = maxwell_traj.snapshots[0]
        pair = self._anchored_pair(maxwell_traj.grid, first.u, first.sigma)
        report = inequality_margin(maxwell_traj, pair, params, gamma_star)
        assert report.margin[0] == 0.0
        assert report.lhs[0] <= 1e-28 * report.energy_scale

    def test_bound_starts_from_the_initial_distance(self, maxwell_traj, gamma_star):
        # a pair anchored off u(0): rhs(0) is the weighted distance at t = 0,
        # so the t = 0 margin is exactly 0 and the later ones carry it
        grid = maxwell_traj.grid
        params = maxwell_traj.config.params
        first = maxwell_traj.snapshots[0]
        bump = random_divfree(grid, seed=99).scaled(0.5)
        pair = self._anchored_pair(grid, first.u - bump, first.sigma)
        report = inequality_margin(maxwell_traj, pair, params, gamma_star)
        distance = 2.0 * params.mu * bump.alpha_norm_sq(params.alpha)
        assert distance > 1e-3
        assert report.rhs[0] == report.lhs[0]
        assert report.lhs[0] == pytest.approx(distance, rel=1e-9)
        assert report.margin[0] == 0.0
        assert report.energy_scale == (2.0 * params.mu * first.u.alpha_norm_sq(params.alpha)
                                       + first.sigma.l2_norm_sq())


class TestSharpness:
    """How sharp a check was: figures that report and move no gate."""

    @pytest.mark.parametrize("mode", ["maxwell", "euler-alpha"])
    def test_zero_pair_headroom_at_most_one_on_a_passing_run(self, maxwell_traj,
                                                             euler_traj, mode):
        traj = maxwell_traj if mode == "maxwell" else euler_traj
        report = energy_estimate(traj, mode)
        assert report.passed
        found = report.sharpness()
        # lhs is E(t) and rhs E(0): the energy never grew
        assert 0.0 < found["headroom"] <= 1.0
        assert found["headroom_t"] > 0.0
        assert found["rhs_min"] == report.energy_scale
        assert found["weight_integral"] == 0.0
        assert found["lhs_max_over_threshold"] == pytest.approx(1e10)

    def test_figures_follow_their_definitions(self, maxwell_traj, gamma_star):
        params = maxwell_traj.config.params
        pair = TestPair.random(maxwell_traj.grid, seed=4, degree=2)
        report = inequality_margin(maxwell_traj, pair, params, gamma_star)
        found = report.sharpness()
        times, lhs, rhs = report.times, report.lhs, report.rhs
        ratios = lhs[1:] / rhs[1:]
        assert found["headroom"] == np.max(ratios)
        assert found["headroom_t"] == times[1:][np.argmax(ratios)]
        assert found["rhs_min"] == np.min(rhs)
        weights = [gronwall_weight(pair.at(t), params, gamma_star) for t in times]
        assert found["weight_integral"] == pytest.approx(np.trapezoid(weights, times),
                                                         rel=1e-12)
        assert found["lhs_max_over_threshold"] == pytest.approx(
            np.max(lhs) / (1e-6 * report.energy_scale), rel=1e-15)

    def test_one_snapshot_has_no_headroom(self, maxwell_traj):
        report = energy_estimate(_first_snapshots(maxwell_traj, "one"))
        assert report.sharpness()["headroom"] is None
        assert report.sharpness()["headroom_t"] is None

    def test_report_keys_byte_deterministic(self, maxwell_traj, gamma_star, tmp_path):
        params = maxwell_traj.config.params
        pair = TestPair.random(maxwell_traj.grid, seed=4, degree=2)
        texts = []
        for name in ("a", "b"):
            report = inequality_margin(maxwell_traj, pair, params, gamma_star)
            path = tmp_path / f"{name}.json"
            write_json(path, report.to_json_dict())
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        doc = json.loads(texts[0])
        assert set(doc) >= {"headroom", "headroom_t", "rhs_min", "weight_integral",
                            "lhs_max_over_threshold"}


def _per_mode_margin(traj, pair, params, gamma, mode):
    """(lhs, rhs, energy_scale) with each model's inequality written out."""
    grid, mu, alpha = traj.grid, params.mu, params.alpha
    lhs, weights, source = [], [], []
    for snap in traj.snapshots:
        sample = pair.at(snap.t)
        du = snap.u - sample.z
        weights.append(gronwall_weight(sample, params, gamma))
        r_u = momentum_residual(sample, traj.config)
        if mode == "maxwell":
            dsigma = snap.sigma - sample.theta
            lhs.append(2.0 * mu * du.alpha_norm_sq(alpha) + dsigma.l2_norm_sq())
            source.append(4.0 * mu * sp.l2_inner(grid, r_u.hat, du.hat)
                          + 2.0 * stress_residual(sample, traj.config).l2_inner(dsigma))
        else:
            lhs.append(du.alpha_norm_sq(alpha))
            source.append(2.0 * sp.l2_inner(grid, r_u.hat, du.hat))
    first = traj.snapshots[0]
    sample = pair.at(float(traj.times[0]))
    if mode == "maxwell":
        f0 = (2.0 * mu * (first.u - sample.z).alpha_norm_sq(alpha)
              + (first.sigma - sample.theta).l2_norm_sq())
        scale = 2.0 * mu * first.u.alpha_norm_sq(alpha) + first.sigma.l2_norm_sq()
    else:
        f0 = (first.u - sample.z).alpha_norm_sq(alpha)
        scale = first.u.alpha_norm_sq(alpha)
    rhs = exponential_bound(traj.times, f0, np.array(weights), np.array(source))
    return np.array(lhs), rhs, scale


def _first_snapshots(traj, count):
    """The trajectory cut to ``count`` snapshots, named relative to the checker's chunk."""
    step = chunk_length(traj.grid)
    keep = {"all": len(traj.snapshots), "one": 1, "chunk-1": step - 1,
            "chunk": step, "chunk+1": step + 1}[count]
    assert keep <= len(traj.snapshots)
    return replace(traj, snapshots=traj.snapshots[:keep])


class TestOneQuadraticForm:
    """One weighted form for both models equals the per-mode formulas exactly.

    The per-mode formulas evaluate one snapshot at a time, so the chunked
    checker is held to them at snapshot counts around its chunk length.
    They call the residuals at each time, where the checker interpolates
    them from the pair's Chebyshev times: for the degree-2 random pair the
    source differs by about 1e-15 of itself, which the bound's rounding
    absorbs in these cases.
    """

    @pytest.mark.parametrize("mode, kind, count", [
        pytest.param(mode, kind, count,
                     id=f"{mode}-{kind}" + ("" if count == "all" else f"-{count}"))
        for mode in ("maxwell", "euler-alpha") for kind in ("zero", "random", "initial")
        for count in ("all", "one", "chunk-1", "chunk", "chunk+1")
    ])
    def test_bitwise_equal_to_per_mode_formulas(self, maxwell_traj, euler_traj,
                                                gamma_star, mode, kind, count):
        traj = _first_snapshots(maxwell_traj if mode == "maxwell" else euler_traj, count)
        grid, params = traj.grid, traj.config.params
        with_stress = mode == "maxwell"
        if kind == "zero":
            pair = TestPair.zero(grid)
        elif kind == "random":
            pair = TestPair.random(grid, seed=4, degree=2, with_stress=with_stress)
        else:  # constant in time, anchored off the initial data
            first = traj.snapshots[0]
            a = first.u - random_divfree(grid, seed=21).scaled(0.3)
            sigma0 = first.sigma - random_stress(grid, seed=22).scaled(0.3)
            pair = TestPair(grid, a.hat[None], sigma0.hat[None] if with_stress else None)
        report = inequality_margin(traj, pair, params, gamma_star, mode=mode)
        lhs, rhs, scale = _per_mode_margin(traj, pair, params, gamma_star, mode)
        assert np.array_equal(report.lhs, lhs)
        assert np.array_equal(report.rhs, rhs)
        assert report.energy_scale == scale


class TestModeContracts:
    def test_grid_mismatch(self, maxwell_traj):
        with pytest.raises(ContractViolation):
            inequality_margin(maxwell_traj, TestPair.zero(Grid(2, 16)),
                              maxwell_traj.config.params, 1.0)

    def test_maxwell_requires_positive_mu(self, euler_traj):
        params = PhysicalParams(eta=0.0, lam=1.0, alpha=1.0)
        with pytest.raises(ContractViolation):
            inequality_margin(euler_traj, TestPair.zero(euler_traj.grid),
                              params, 1.0, mode="maxwell")

    def test_params_must_be_the_trajectorys(self, maxwell_traj):
        # the residuals read the trajectory's config; other params would mix
        # two systems into one check
        params = PhysicalParams(eta=2.0, lam=1.0, alpha=1.0)
        with pytest.raises(ContractViolation, match="params"):
            inequality_margin(maxwell_traj, TestPair.zero(maxwell_traj.grid),
                              params, 1.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_gamma_positive_and_finite(self, maxwell_traj, gamma):
        # checked once per call, also for the zero pair, which never
        # reaches gronwall_weight
        with pytest.raises(ContractViolation, match="gamma"):
            inequality_margin(maxwell_traj, TestPair.zero(maxwell_traj.grid),
                              maxwell_traj.config.params, gamma)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), float("-inf")])
    def test_tolerance_finite(self, maxwell_traj, tolerance):
        with pytest.raises(ContractViolation, match="tolerance"):
            inequality_margin(maxwell_traj, TestPair.zero(maxwell_traj.grid),
                              maxwell_traj.config.params, 1.0, tolerance=tolerance)

    def test_only_an_overflow_blames_gamma(self, maxwell_traj, monkeypatch):
        # every ContractViolation of the bound used to read "gamma is too
        # large"; a negative weight breaks the lemma's hypothesis instead
        import alphaflow.dissipative as dissipative

        pair = TestPair.random(maxwell_traj.grid, seed=1, degree=1)
        params = maxwell_traj.config.params
        monkeypatch.setattr(dissipative, "gronwall_weight", lambda *args: -1.0)
        with pytest.raises(ContractViolation) as info:
            inequality_margin(maxwell_traj, pair, params, 1.0)
        assert "nonnegative" in str(info.value) and "gamma" not in str(info.value)
        monkeypatch.setattr(dissipative, "gronwall_weight", lambda *args: 1e300)
        with pytest.raises(ContractViolation, match=r"is too large, with gamma 1, "
                                                    r"max\(1, 1/alpha\^2\) = 1 and alpha 1:"):
            inequality_margin(maxwell_traj, pair, params, 1.0)

    @pytest.mark.parametrize("alpha, factor", [(1e-150, "1e+300"), (1e150, "1")])
    def test_an_overflow_names_the_weights_alpha_factor(self, gamma_star, alpha, factor):
        # an extreme filter length overflowed the bound with "gamma 0.63662 is
        # too large", though no gamma would pass: at 1e-150 the weight's
        # max(1, 1/alpha^2) factor is 1e300, at 1e150 its alpha^2 |z|_3 term
        # is of that size
        cfg = SimConfig(n=16, alpha=alpha, eta=1.0, lam=1.0, dt=1e-3, t_end=0.02,
                        epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                        stress_init="random")
        traj = run(cfg)
        pair = TestPair.from_trajectory(traj, degree=10)
        with pytest.raises(ContractViolation) as info:
            inequality_margin(traj, pair, cfg.params, gamma_star)
        message = str(info.value)
        assert f"max(1, 1/alpha^2) = {factor} and alpha {alpha:g}:" in message
        assert f"with gamma {gamma_star:g}," in message
        assert f"gamma {gamma_star:g} is too large" not in message

    def test_euler_rejects_stress_pair(self, euler_traj):
        pair = TestPair.random(euler_traj.grid, seed=1, degree=1,
                               with_stress=True)
        with pytest.raises(ContractViolation):
            inequality_margin(euler_traj, pair, euler_traj.config.params,
                              1.0, mode="euler-alpha")


class TestCalibrateGamma:
    def test_constant_field_lower_bound(self, gamma_star):
        # the constant pair realizes ratio 1/(2 pi) in 2D; the combined
        # output is safety * 2 * max ratio with safety 2 by default
        assert gamma_star >= 2.0 * 2.0 / TWO_PI

    def test_safety_factor_linear(self):
        grid = Grid(2, 16)
        one = calibrate_gamma(grid, samples=50, seed=3, safety_factor=1.0)
        two = calibrate_gamma(grid, samples=50, seed=3, safety_factor=2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_stable_across_seeds(self):
        grid = Grid(2, 32)
        values = [calibrate_gamma(grid, samples=200, seed=s) for s in (0, 1, 2)]
        spread = (max(values) - min(values)) / min(values)
        assert spread <= 0.2

    def test_sample_floor(self):
        with pytest.raises(ContractViolation):
            calibrate_gamma(Grid(2, 16), samples=10)

    @staticmethod
    def _representer_bump_ratio(grid):
        """|P(fg)|_2 / (|f|_H2 |g|_2): f the band's H^2 representer of evaluation
        at 0, coefficients (1 + |k|^2)^-2, g the tensor Fejer bump."""
        f_hat = (1.0 + grid.k_sq) ** -2.0 + 0j
        g_hat = np.ones(grid.spectral_shape, dtype=complex)
        for k in grid.k:
            g_hat = g_hat * (1.0 - np.abs(k) / (grid.dealias_cutoff + 1))
        product = sp.to_spectral(grid, sp.to_real(grid, f_hat) * sp.to_real(grid, g_hat))
        return sp.sobolev_norm(grid, product) / (sp.sobolev_norm(grid, f_hat, 2.0)
                                                 * sp.sobolev_norm(grid, g_hat))

    @pytest.mark.parametrize("dim, n", [
        (2, 64),
        pytest.param(3, 32, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 8: at 3D n=32 the pair's ratio 0.1674 "
                                "exceeds gamma / 2 = 0.127; gamma is probed, not bounded")),
    ])
    def test_safety_factor_covers_the_representer_bump_pair(self, dim, n):
        grid = Grid(dim, n)
        ratio = self._representer_bump_ratio(grid)
        assert calibrate_gamma(grid, samples=50) >= 2.0 * ratio


class TestAlphaSweep:
    def test_single_alpha_matches_plain_run(self):
        from dataclasses import replace

        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.03,
                        epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                        stress_init="random", snapshot_stride=5)
        report = alpha_sweep(cfg, [0.5])
        direct = run(replace(cfg, alpha=0.5))
        entry = report.entries[0]
        assert np.array_equal(entry.times, direct.times)
        assert np.array_equal(entry.energy, direct.energies)

    def test_uniform_bound(self):
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.05,
                        epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                        stress_init="random", snapshot_stride=10)
        report = alpha_sweep(cfg, [1.0, 0.5, 0.25])
        assert report.all_ok
        assert [e.alpha for e in report.entries] == [1.0, 0.5, 0.25]
        for entry in report.entries:
            assert entry.sup_energy <= entry.initial_energy * (1 + 1e-8) + 1e-12

    def test_blowup_recorded_and_sweep_continues(self, monkeypatch):
        import alphaflow.dissipative as dissipative

        real_run = dissipative.run

        def exploding_run(config, initial_state=None):
            if config.alpha == 0.5:
                raise IntegrationBlowup(0.01, 10, "synthetic test blowup")
            return real_run(config, initial_state)

        monkeypatch.setattr(dissipative, "run", exploding_run)
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.02,
                        epsilon=1e-3, delta=1.0, initial_condition="taylor-green")
        report = dissipative.alpha_sweep(cfg, [1.0, 0.5, 0.25])
        assert report.entries[1].blowup is not None
        assert report.entries[0].blowup is None
        assert report.entries[2].blowup is None
        assert not report.all_ok

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1e200])
    def test_rejects_nonpositive_alpha(self, alpha):
        # one rule, spectral.check_alpha, applied by SimConfig for each alpha
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(ConfigurationError, match="alpha must be positive"):
            alpha_sweep(cfg, [1.0, alpha])

    def test_rejects_empty_alpha_list(self):
        # a sweep over no alpha used to pass
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(ContractViolation, match="at least one alpha"):
            alpha_sweep(cfg, [])

    def test_parallel_workers_match_sequential(self):
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.02,
                        epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                        stress_init="random", snapshot_stride=5)
        sequential = alpha_sweep(cfg, [1.0, 0.5])
        parallel = alpha_sweep(cfg, [1.0, 0.5], workers=2)
        for a, b in zip(sequential.entries, parallel.entries):
            assert a.alpha == b.alpha
            assert np.array_equal(a.energy, b.energy)


def _cycled_trajectory(count, times=None, n=64):
    """A 2D trajectory of ``count`` snapshots cycling through three random states."""
    cfg = SimConfig(n=n, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.1)
    grid = Grid(2, n)
    states = [(random_divfree(grid, seed=s), random_stress(grid, seed=s + 10))
              for s in range(3)]
    times = 1e-3 * np.arange(count) if times is None else times
    snapshots = [SolverState(t=float(t), u=states[i % 3][0], sigma=states[i % 3][1])
                 for i, t in enumerate(times)]
    return Trajectory(config=cfg, snapshots=snapshots)


class TestChunkedChecker:
    """``inequality_margin`` walks the snapshots in chunks of ``chunk_length`` times."""

    def test_chunk_lengths(self):
        # 256 KiB over one real-space component of the chunk
        assert [chunk_length(Grid(dim, n)) for dim, n in
                [(2, 16), (2, 64), (2, 128), (3, 16), (3, 32)]] == [128, 8, 2, 8, 1]

    def test_residuals_called_once_per_node_batch(self, monkeypatch):
        # a silent fall-back to one call per chunk of snapshots would make 13
        # calls, one per snapshot 101
        import alphaflow.operators as operators

        traj = _cycled_trajectory(101)
        calls = {"momentum": 0, "stress": 0}

        def counted(fn, key):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(operators, "momentum_residual",
                            counted(momentum_residual, "momentum"))
        monkeypatch.setattr(operators, "stress_residual",
                            counted(stress_residual, "stress"))
        for degree, expected in ((2, 1), (10, 3)):  # 5 and 21 nodes, batches of 8
            calls.update(momentum=0, stress=0)
            pair = TestPair.random(traj.grid, seed=2, degree=degree)
            inequality_margin(traj, pair, traj.config.params, 0.6)
            assert expected == math.ceil((2 * degree + 1) / chunk_length(traj.grid))
            assert calls == {"momentum": expected, "stress": expected}

    def test_reports_bitwise_equal_across_chunk_lengths(self, maxwell_traj, gamma_star,
                                                        monkeypatch):
        # the chunk length also batches the residual nodes
        import alphaflow.dissipative as dissipative

        grid, params = maxwell_traj.grid, maxwell_traj.config.params
        pairs = [TestPair.from_trajectory(maxwell_traj, degree=10),
                 TestPair.random(grid, seed=5, degree=2)]
        reports = {}
        for length in (1, 3, 8, 64):
            monkeypatch.setattr(dissipative, "CHUNK_BYTES", length * 8 * grid.size)
            assert chunk_length(grid) == length
            reports[length] = [inequality_margin(maxwell_traj, pair, params, gamma_star)
                               for pair in pairs]
        for length, found in reports.items():
            for got, want in zip(found, reports[1]):
                for part in ("lhs", "rhs", "margin"):
                    assert np.array_equal(getattr(got, part), getattr(want, part)), \
                        (length, part)

    def test_peak_memory_does_not_grow_with_snapshot_count(self):
        short, long = _cycled_trajectory(101), _cycled_trajectory(201)
        pair = TestPair.random(short.grid, seed=2)
        params = short.config.params

        def added_peak(traj):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                inequality_margin(traj, pair, params, 0.6)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        added_peak(short)  # builds the grid's symbols, which persist
        peaks = added_peak(short), added_peak(long)
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_overflow_names_its_time_inside_a_chunk(self):
        # z = 1e100 t sin(y): its products overflow first at t = 1e60, the
        # third time of the second chunk (chunk length 8 at n=64)
        times = list(range(10)) + [1e60, 2e60]
        traj = _cycled_trajectory(len(times), times=np.array(times, dtype=float))
        assert chunk_length(traj.grid) == 8
        pair = TestPair.from_json(traj.grid, {"velocity_modes": [
            {"k": [0, 1], "component": 0, "sin": [0.0, 1e100]}]})
        with pytest.raises(ContractViolation, match=r"overflows at time t=1e\+60:"):
            inequality_margin(traj, pair, traj.config.params, 0.6)

    def test_overflow_at_a_node_names_the_first_snapshot_time(self):
        # the degree-0 pair's one Chebyshev time is 4.5, mid-interval; its
        # residual overflows at every time, so the first snapshot's is named
        traj = _cycled_trajectory(10, times=np.arange(10.0))
        pair = TestPair.from_json(traj.grid, {"velocity_modes": [
            {"k": [0, 1], "component": 0, "sin": [1e300]}]})
        with pytest.raises(ContractViolation, match=r"overflows at time t=0:"):
            inequality_margin(traj, pair, traj.config.params, 0.6)

    def test_overflow_in_the_source_names_its_time(self):
        # at amplitude 1e105 the weight and the residuals stay finite, but
        # R (~z^2) paired with u - z (~z) overflows; an einsum pairing
        # raised nothing and left the source NaN
        traj = _cycled_trajectory(10, times=np.arange(10.0))
        pair = TestPair.random(traj.grid, seed=3, degree=0, amplitude=1e105)
        with pytest.raises(ContractViolation, match=r"overflows at time t=0:"):
            inequality_margin(traj, pair, traj.config.params, 0.6)

    @pytest.mark.parametrize("amplitude, message", [
        (1e146, r"is too large, with gamma 0\.637,"),
        (1e148, r"is too large, with gamma 0\.637,"),
        (1e150, r"overflows at time t=0: the weight .* is not finite, with gamma 0\.637, "
                r"max\(1, 1/alpha\^2\) = 1 and alpha 1: a norm of the pair overflows$"),
    ])
    def test_overflow_in_the_weight_names_its_time(self, amplitude, message):
        # at 1e150 the H^3 norm of sin(21 y) overflows inside an einsum,
        # which raised nothing, and the bound blamed gamma for a weight
        # that "integrates to inf"; below it the weight is finite and only
        # its integral overflows, which gamma does decide
        cfg = SimConfig(n=64, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.01, seed=7,
                        stress_init="random")
        traj = run(cfg)
        pair = TestPair.from_json(traj.grid, {"velocity_modes": [
            {"k": [0, 21], "component": 0, "sin": [amplitude]}]})
        with pytest.raises(ContractViolation, match=message):
            inequality_margin(traj, pair, cfg.params, 0.637)

    def test_overflow_between_snapshots_names_the_node(self):
        # z = 1e160 (t - t^2) sin(y) vanishes at both snapshots, where the
        # residual is finite; its products overflow first at the second of
        # the five Chebyshev times, (1 - cos(pi/4)) / 2
        traj = _cycled_trajectory(2, times=np.array([0.0, 1.0]))
        pair = TestPair.from_json(traj.grid, {"velocity_modes": [
            {"k": [0, 1], "component": 0, "sin": [0.0, 1e160, -1e160]}]})
        with pytest.raises(ContractViolation, match=r"overflows at time t=0\.146447:"):
            inequality_margin(traj, pair, traj.config.params, 0.6)


_WARM_SELF_CHECK = """
import json, resource, tracemalloc
from alphaflow.dissipative import inequality_margin
from alphaflow.operators import TestPair
from alphaflow.solver import SimConfig, run

cfg = SimConfig(n=64, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.1, epsilon=0.0,
                initial_condition="taylor-green", stress_init="random")
traj = run(cfg)
pair = TestPair.from_trajectory(traj, degree=10)
inequality_margin(traj, pair, cfg.params, 0.6)  # warm: builds the grid's symbols
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
inequality_margin(traj, pair, cfg.params, 0.6)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
inequality_margin(traj, pair, cfg.params, 0.6)
peak = tracemalloc.get_traced_memory()[1] - start
tracemalloc.stop()
print(json.dumps({"snapshots": len(traj.snapshots), "faults": faults, "peak": peak}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="MALLOC_MMAP_THRESHOLD_ is a glibc setting")
class TestCheckAllocation:
    """A warm check takes its arrays from one workspace, not fresh per chunk.

    A degree-10 self check of a 2D n=64 run with 101 snapshots, in a
    child interpreter whose glibc maps every block of 128 KiB or more
    afresh (``MALLOC_MMAP_THRESHOLD_=131072``), so each fresh temporary
    of that size page-faults in again.  Before the workspace, with fresh
    temporaries per chunk and per node batch, the warm check took 19794
    minor faults and peaked at 7330385 bytes under tracemalloc.
    """

    FRESH_TEMPORARIES = {"faults": 19_794, "peak": 7_330_385}

    @pytest.fixture(scope="class")
    def measured(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(alphaflow.__file__)))
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _WARM_SELF_CHECK], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        found = json.loads(done.stdout.splitlines()[-1])
        assert found["snapshots"] == 101
        return found

    def test_a_quarter_of_the_faults(self, measured):
        assert measured["faults"] <= self.FRESH_TEMPORARIES["faults"] / 4, measured

    def test_peak_within_1_6_times_fresh_temporaries(self, measured):
        assert measured["peak"] <= 1.6 * self.FRESH_TEMPORARIES["peak"], measured
