"""Dissipative-inequality checker, gamma calibration, alpha sweep."""

import numpy as np
import pytest

import alphaflow.spectral as sp
from alphaflow.dissipative import (
    alpha_sweep,
    calibrate_gamma,
    dissipative_estimate_margin,
    inequality_margin,
)
from alphaflow.errors import ContractViolation, IntegrationBlowup
from alphaflow.fields import PhysicalParams, random_divfree, random_stress
from alphaflow.gronwall import exponential_bound
from alphaflow.operators import (
    TestPair,
    gronwall_weight,
    momentum_residual,
    stress_residual,
)
from alphaflow.solver import SimConfig, run
from alphaflow.spectral import Grid

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def maxwell_traj():
    cfg = SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.2,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    stress_init="random", snapshot_stride=10)
    return run(cfg)


@pytest.fixture(scope="module")
def euler_traj():
    cfg = SimConfig(n=32, alpha=1.0, eta=0.0, lam=1.0, dt=1e-3, t_end=0.2,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    snapshot_stride=10)
    return run(cfg)


@pytest.fixture(scope="module")
def gamma_star():
    return calibrate_gamma(Grid(2, 32), samples=60, seed=0)


class TestZeroPairReduction:
    def test_margin_equals_energy_drop_exactly(self, maxwell_traj):
        params = maxwell_traj.config.params
        report = dissipative_estimate_margin(maxwell_traj, params, mode="maxwell")
        energies = np.array([
            2.0 * params.mu * s.u.alpha_norm_sq(params.alpha) + s.sigma.l2_norm_sq()
            for s in maxwell_traj.snapshots
        ])
        # algebraically identical: same numbers to machine precision
        assert np.array_equal(report.lhs, energies)
        assert np.array_equal(report.margin, energies[0] - energies)

    def test_maxwell_estimate_passes(self, maxwell_traj):
        report = dissipative_estimate_margin(maxwell_traj,
                                             maxwell_traj.config.params)
        assert report.passed
        assert report.min_margin >= -1e-10 * report.energy_scale

    def test_euler_estimate_passes(self, euler_traj):
        report = dissipative_estimate_margin(euler_traj, euler_traj.config.params,
                                             mode="euler-alpha")
        assert report.passed
        assert report.energy_scale == pytest.approx(
            euler_traj.snapshots[0].u.alpha_norm_sq(1.0))

    def test_equality_at_t_zero(self, maxwell_traj):
        report = dissipative_estimate_margin(maxwell_traj,
                                             maxwell_traj.config.params)
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
    """Scalar transforms per snapshot of ``inequality_margin``.

    The pair is evaluated once per snapshot and both residuals share the
    real-space samples of its velocity part, so a nonzero pair costs
    exactly one ``explicit_rhs`` stage; the zero pair's residuals cost
    nothing.
    """

    @staticmethod
    def _per_snapshot(monkeypatch, dim, n, kind, epsilon=0.0):
        cfg = SimConfig(dim=dim, n=n, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3,
                        t_end=3e-3, epsilon=epsilon, delta=1.0,
                        initial_condition="taylor-green", stress_init="random")
        traj = run(cfg)
        grid = traj.grid
        pair = (TestPair.zero(grid) if kind == "zero"
                else TestPair.random(grid, seed=3, degree=2))
        counts = {"fwd": 0, "inv": 0}

        def counted(fn, key):
            def wrapper(g, a):
                out = fn(g, a)
                counts[key] += int(np.prod(out.shape[: out.ndim - g.dim]))
                return out
            return wrapper

        monkeypatch.setattr(sp, "to_spectral", counted(sp.to_spectral, "fwd"))
        monkeypatch.setattr(sp, "to_real", counted(sp.to_real, "inv"))
        inequality_margin(traj, pair, cfg.params, gamma_const=1.0)
        n_snap = len(traj.snapshots)
        assert n_snap == 4
        return {key: count / n_snap for key, count in counts.items()}

    @pytest.mark.parametrize("dim, n, fwd, inv", [(2, 16, 5, 13), (3, 8, 9, 33)])
    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_transforms_per_snapshot(self, monkeypatch, dim, n, fwd, inv, kind):
        if kind == "zero":
            fwd, inv = 0, 0
        assert self._per_snapshot(monkeypatch, dim, n, kind) == {"fwd": fwd, "inv": inv}

    @pytest.mark.parametrize("dim, n, fwd, inv", [(2, 16, 5, 13), (3, 8, 9, 33)])
    def test_eps_terms_cost_no_transform(self, monkeypatch, dim, n, fwd, inv):
        # the linear symbols act per mode on the spectral coefficients
        counts = self._per_snapshot(monkeypatch, dim, n, "random", epsilon=1e-3)
        assert counts == {"fwd": fwd, "inv": inv}


class TestInitialConditionRecovery:
    def _anchored_pair(self, grid, a, sigma0):
        # constant-in-time pair with velocity part a, stress part sigma0:
        # at t = 0 the inequality then reads |u(0) - a|-form <= 0 + tol
        return TestPair(grid, a.hat[None], sigma0.hat[None], sanitize=False)

    def test_matching_data_probe_is_tight(self, maxwell_traj, gamma_star):
        params = maxwell_traj.config.params
        a = maxwell_traj.snapshots[0].u
        sigma0 = maxwell_traj.snapshots[0].sigma
        pair = self._anchored_pair(maxwell_traj.grid, a, sigma0)
        report = inequality_margin(maxwell_traj, pair, params, gamma_star,
                                   initial_data=(a, sigma0))
        assert report.margin[0] == 0.0

    def test_probe_detects_perturbed_start(self, maxwell_traj, gamma_star):
        # claim initial data a != u(0): the t = 0 margin recovers exactly
        # -(weighted distance), so the check fails by the right amount
        grid = maxwell_traj.grid
        params = maxwell_traj.config.params
        bump = random_divfree(grid, seed=99, amplitude=0.5)
        a = maxwell_traj.snapshots[0].u + bump
        sigma0 = maxwell_traj.snapshots[0].sigma
        pair = self._anchored_pair(grid, a, sigma0)
        report = inequality_margin(maxwell_traj, pair, params, gamma_star,
                                   initial_data=(a, sigma0))
        distance = 2.0 * params.mu * bump.alpha_norm_sq(params.alpha)
        assert distance > 1e-3
        assert report.margin[0] == pytest.approx(-distance, rel=1e-9)
        assert not report.passed


def _per_mode_margin(traj, pair, params, gamma, mode, initial_data=None):
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
    a, sigma0 = (first.u, first.sigma) if initial_data is None else initial_data
    sample = pair.at(float(traj.times[0]))
    if mode == "maxwell":
        f0 = (2.0 * mu * (a - sample.z).alpha_norm_sq(alpha)
              + (sigma0 - sample.theta).l2_norm_sq())
        scale = 2.0 * mu * a.alpha_norm_sq(alpha) + sigma0.l2_norm_sq()
    else:
        f0 = (a - sample.z).alpha_norm_sq(alpha)
        scale = a.alpha_norm_sq(alpha)
    rhs = exponential_bound(traj.times, f0, np.array(weights), np.array(source))
    return np.array(lhs), rhs, scale


class TestOneQuadraticForm:
    """One weighted form for both models equals the per-mode formulas exactly."""

    @pytest.mark.parametrize("mode, kind", [
        ("maxwell", "zero"), ("maxwell", "random"), ("maxwell", "initial"),
        ("euler-alpha", "zero"), ("euler-alpha", "random"), ("euler-alpha", "initial"),
    ])
    def test_bitwise_equal_to_per_mode_formulas(self, maxwell_traj, euler_traj,
                                                gamma_star, mode, kind):
        traj = maxwell_traj if mode == "maxwell" else euler_traj
        grid, params = traj.grid, traj.config.params
        with_stress = mode == "maxwell"
        pair = (TestPair.zero(grid) if kind == "zero"
                else TestPair.random(grid, seed=4, degree=2, with_stress=with_stress))
        initial_data = None
        if kind == "initial":
            first = traj.snapshots[0]
            a = first.u + random_divfree(grid, seed=21, amplitude=0.3)
            sigma0 = (first.sigma + random_stress(grid, seed=22, amplitude=0.3)
                      if with_stress else None)  # euler-alpha never reads it
            initial_data = (a, sigma0)
        report = inequality_margin(traj, pair, params, gamma_star, mode=mode,
                                   initial_data=initial_data)
        lhs, rhs, scale = _per_mode_margin(traj, pair, params, gamma_star, mode,
                                           initial_data)
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

    def test_rejects_nonpositive_alpha(self):
        cfg = SimConfig(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.01)
        with pytest.raises(ContractViolation):
            alpha_sweep(cfg, [1.0, -0.5])

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
