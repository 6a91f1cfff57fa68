"""Time stepper and run loop: oracles, energy law, invariants, errors."""

import re
from dataclasses import replace

import numpy as np
import pytest

import alphaflow.spectral as sp
from alphaflow.errors import CflViolation, ConfigurationError, IntegrationBlowup
from alphaflow.fields import StressField, VelocityField, random_divfree, random_stress
from alphaflow.solver import (
    SimConfig,
    SolverState,
    Stepper,
    energy_law_residuals,
    initial_condition,
    run,
)
from alphaflow.spectral import Grid


def make_config(**overrides):
    base = dict(n=16, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.05,
                epsilon=1e-3, delta=1.0, initial_condition="taylor-green")
    base.update(overrides)
    return SimConfig(**base)


def one_step(state, cfg):
    """Advance ``state`` by one time step through the run loop."""
    final = run(replace(cfg, t_end=cfg.dt), initial_state=state).final
    return SolverState(t=state.t + cfg.dt, u=final.u, sigma=final.sigma)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(delta=1.5), dict(epsilon=-1.0), dict(dt=0.0),
        dict(snapshot_stride=0), dict(stress_init="bogus"), dict(n=20),
        # non-integers used to construct (2.5) or die in Grid with a raw TypeError
        dict(snapshot_stride=2.5), dict(n=16.0), dict(dim=2.0), dict(seed=0.5),
        dict(seed=True),
        # NaN used to pass every range check and inf some of them
        dict(dt=float("nan")), dict(dt=float("inf")), dict(t_end=float("nan")),
        dict(t_end=float("inf")), dict(epsilon=float("nan")), dict(epsilon=float("inf")),
        dict(eta=float("nan")), dict(lam=float("inf")),
        dict(alpha=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_config(**kwargs)

    def test_t_end_must_divide(self):
        with pytest.raises(ConfigurationError):
            make_config(dt=3e-3, t_end=0.05).n_steps()


class TestInitialCondition:
    def test_zero(self):
        grid = Grid(2, 16)
        u, s = initial_condition("zero", grid)
        assert np.max(np.abs(u.hat)) == 0.0
        assert np.max(np.abs(s.hat)) == 0.0

    def test_taylor_green_divergence(self):
        grid = Grid(2, 32)
        u, _ = initial_condition("taylor-green", grid)
        assert u.divergence_max() <= 1e-13
        x = grid.coordinates()
        expected = np.sin(x[0]) * np.cos(x[1])
        assert np.max(np.abs(u.values[0] - expected)) <= 1e-12

    def test_random_spectrum_deterministic(self):
        grid = Grid(2, 16)
        a = initial_condition("random-spectrum", grid, seed=42)
        b = initial_condition("random-spectrum", grid, seed=42)
        assert np.array_equal(a[0].hat, b[0].hat)
        assert np.array_equal(a[1].hat, b[1].hat)

    def test_unknown_preset_lists_options(self):
        grid = Grid(2, 16)
        with pytest.raises(ConfigurationError, match="taylor-green"):
            initial_condition("vortex-sheet", grid)

    def test_stress_override(self):
        grid = Grid(2, 16)
        _, s_zero = initial_condition("taylor-green", grid, stress_init="zero")
        _, s_rand = initial_condition("taylor-green", grid, stress_init="random")
        assert np.max(np.abs(s_zero.hat)) == 0.0
        assert np.max(np.abs(s_rand.hat)) > 0.0


class TestImexStep:
    def test_zero_state_fixed_point(self):
        grid = Grid(2, 16)
        cfg = make_config()
        state = SolverState(t=0.0, u=VelocityField.zero(grid),
                            sigma=StressField.zero(grid))
        out = one_step(state, cfg)
        assert np.max(np.abs(out.u.hat)) == 0.0
        assert np.max(np.abs(out.sigma.hat)) == 0.0
        assert out.t == pytest.approx(cfg.dt)

    def test_delta_zero_single_step_decay(self):
        grid = Grid(2, 16)
        cfg = make_config(delta=0.0)
        u0 = random_divfree(grid, seed=1)
        s0 = random_stress(grid, seed=2)
        out = one_step(SolverState(t=0.0, u=u0, sigma=s0), cfg)
        h = grid.helmholtz_symbol(cfg.alpha)
        factor_u = np.exp(-cfg.epsilon * grid.bessel_symbol(3.0) / h * cfg.dt)
        factor_s = np.exp(-cfg.epsilon * grid.bessel_symbol(2.0) * cfg.dt)
        expected_u = sp.dealias(grid, u0.hat) * factor_u
        expected_s = sp.dealias(grid, s0.hat) * factor_s
        assert np.max(np.abs(out.u.hat - expected_u)) <= 1e-12 * np.max(np.abs(u0.hat))
        assert np.max(np.abs(out.sigma.hat - expected_s)) <= 1e-12 * np.max(np.abs(s0.hat))

    def test_steady_shear_euler_alpha(self):
        # (sin x2, 0) with zero stress is steady for eta = 0, eps = 0
        grid = Grid(2, 16)
        cfg = make_config(eta=0.0, epsilon=0.0)
        u0, s0 = initial_condition("shear", grid)
        state = SolverState(t=0.0, u=u0, sigma=s0)
        for _ in range(5):
            state = one_step(state, cfg)
        drift = np.max(np.abs(state.u.hat - u0.hat)) / np.max(np.abs(u0.hat))
        assert drift <= 1e-12

    def test_invariants_after_step(self):
        grid = Grid(2, 16)
        cfg = make_config(stress_init="random")
        u0, s0 = initial_condition("taylor-green", grid, stress_init="random")
        out = one_step(SolverState(t=0.0, u=u0, sigma=s0), cfg)
        assert out.u.divergence_max() <= 1e-10 * np.sqrt(out.u.h_norm_sq(1.0))
        assert np.array_equal(out.sigma.entry_values(0, 1),
                              out.sigma.entry_values(1, 0))

    def test_divergence_drift_before_restoration(self):
        # the unprojected update is already divergence-free to roundoff;
        # the end-of-step projection only removes arithmetic dust
        grid = Grid(2, 32)
        cfg = make_config(n=32, stress_init="random")
        u0, s0 = initial_condition("taylor-green", grid, stress_init="random")
        stepper = Stepper(grid, cfg)
        v = sp.dealias(grid, sp.helmholtz_apply(grid, u0.hat, cfg.alpha))
        s = sp.dealias(grid, s0.hat)
        dt = cfg.dt
        k1_v, k1_s, _ = stepper.explicit_rhs(v, s)
        v_mid = stepper.factor_u * (v + dt * k1_v)
        s_mid = stepper.factor_s * (s + dt * k1_s)
        k2_v, _, _ = stepper.explicit_rhs(v_mid, s_mid)
        v_raw = stepper.factor_u * v + 0.5 * dt * (stepper.factor_u * k1_v + k2_v)
        drift = np.max(np.abs(sp.divergence_hat(grid, v_raw))) / grid.size
        assert drift <= 1e-9 * sp.sobolev_norm(grid, v_raw, 1.0)


class TestTransformCount:
    """Scalar transforms in one explicit_rhs stage (rotational form)."""

    @pytest.mark.parametrize("dim, n, fwd, inv", [(2, 16, 5, 13), (3, 8, 9, 33)])
    def test_transforms_per_rhs_stage(self, monkeypatch, dim, n, fwd, inv):
        cfg = make_config(n=n, dim=dim, stress_init="random")
        grid = cfg.grid()
        u0, s0 = initial_condition("taylor-green", grid, stress_init="random")
        v_hat = sp.helmholtz_apply(grid, u0.hat, cfg.alpha)
        stepper = Stepper(grid, cfg)
        counts = {"fwd": 0, "inv": 0}

        def counted(fn, key):
            def wrapper(g, a):
                out = fn(g, a)
                counts[key] += int(np.prod(out.shape[: out.ndim - g.dim]))
                return out
            return wrapper

        monkeypatch.setattr(sp, "to_spectral", counted(sp.to_spectral, "fwd"))
        monkeypatch.setattr(sp, "to_real", counted(sp.to_real, "inv"))
        stepper.explicit_rhs(v_hat, s0.hat)
        assert counts == {"fwd": fwd, "inv": inv}


class TestRun:
    def test_t_end_zero_single_snapshot(self):
        cfg = make_config(t_end=0.0)
        traj = run(cfg)
        assert len(traj.snapshots) == 1
        assert traj.snapshots[0].t == 0.0

    def test_delta_zero_matches_closed_form_over_100_steps(self):
        grid = Grid(2, 16)
        cfg = make_config(delta=0.0, t_end=0.1, dt=1e-3)
        u0 = random_divfree(grid, seed=3)
        s0 = random_stress(grid, seed=4)
        traj = run(cfg, initial_state=SolverState(t=0.0, u=u0, sigma=s0))
        assert traj.final.t == pytest.approx(0.1)
        h = grid.helmholtz_symbol(cfg.alpha)
        decay_u = np.exp(-cfg.epsilon * grid.bessel_symbol(3.0) / h * 0.1)
        decay_s = np.exp(-cfg.epsilon * grid.bessel_symbol(2.0) * 0.1)
        u_exact = sp.dealias(grid, sp.leray_project(grid, u0.hat)) * decay_u
        s_exact = sp.dealias(grid, s0.hat) * decay_s

        def max_rel(actual, exact):
            mask = np.abs(exact) > 1e-13 * np.max(np.abs(exact))
            return np.max(np.abs(actual - exact)[mask] / np.abs(exact)[mask])

        assert max_rel(traj.final.u.hat, u_exact) <= 1e-6
        assert max_rel(traj.final.sigma.hat, s_exact) <= 1e-6

    def test_energy_monotone(self):
        cfg = make_config(n=32, t_end=0.1, stress_init="random")
        traj = run(cfg)
        e = traj.diag["energy"]
        assert np.all(np.diff(e) <= 1e-8 * e[0])
        assert e[-1] < e[0]

    def test_energy_residual_second_order(self):
        # per-step balance residual must shrink ~8x when dt halves
        def worst(dt):
            cfg = make_config(n=32, dt=dt, t_end=0.04, stress_init="random")
            return np.max(np.abs(energy_law_residuals(run(cfg))))

        coarse, fine = worst(2e-3), worst(1e-3)
        assert fine <= 0.4 * coarse

    def test_delta_continuity(self):
        def final_state(delta):
            cfg = make_config(n=16, t_end=0.03, delta=delta, stress_init="random")
            return run(cfg).final

        base = final_state(0.5)
        gaps = []
        for h in (0.2, 0.1, 0.05):
            other = final_state(0.5 + h)
            gaps.append(np.sqrt((other.u - base.u).h_norm_sq(0.0)
                                + (other.sigma - base.sigma).l2_norm_sq()))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.6 * gaps[1]

    @pytest.mark.parametrize("dim, delta", [(2, 1.0), (2, 0.5), (3, 1.0), (3, 0.5)])
    def test_snapshot_energies_are_the_recorded_diagnostics(self, dim, delta):
        # the reports read Trajectory.energies where they read the
        # per-step energy stored with each snapshot, bit for bit
        cfg = make_config(dim=dim, delta=delta, t_end=0.012,
                          snapshot_stride=4, stress_init="random")
        traj = run(cfg)
        assert np.array_equal(traj.energies, traj.diag["energy"][::4])

    def test_snapshot_stride(self):
        cfg = make_config(t_end=0.02, snapshot_stride=5)
        traj = run(cfg)
        assert len(traj.snapshots) == 5  # steps 0,5,10,15,20
        assert traj.diag["t"].size == 21

    def test_cfl_violation_is_hard_error(self):
        cfg = make_config(n=32, dt=0.2, t_end=0.4)
        with pytest.raises(CflViolation):
            run(cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_blowup_detection_carries_state(self):
        grid = Grid(2, 16)
        cfg = make_config(epsilon=0.0, dt=1e-3, t_end=0.05)
        hat = np.zeros((2,) + grid.spectral_shape, dtype=complex)
        hat[0][grid.mode_index((0, 1))] = 1e200 * grid.size  # and its unstored mirror
        u0 = VelocityField(grid, hat, check=False)
        with pytest.raises((IntegrationBlowup, CflViolation)) as info:
            run(cfg, initial_state=SolverState(t=0.0, u=u0,
                                               sigma=StressField.zero(grid)))
        if isinstance(info.value, IntegrationBlowup):
            assert info.value.last_state is not None

    @pytest.mark.parametrize("dim,kvec", [(2, (-3, 5)), (3, (2, -7, 8))])
    def test_blowup_names_the_mode(self, dim, kvec):
        from alphaflow.solver import _check_finite

        grid = Grid(dim, 16)
        v_hat = np.zeros((dim,) + grid.spectral_shape, dtype=complex)
        s_hat = np.zeros((3 * (dim - 1),) + grid.spectral_shape, dtype=complex)
        v_hat[(1,) + grid.mode_index(kvec)] = np.nan
        with pytest.raises(IntegrationBlowup, match=re.escape(f"mode {kvec}")):
            _check_finite(None, v_hat, s_hat, 0.1, 3, grid)

    def test_unknown_initial_condition_rejected(self):
        cfg = make_config(initial_condition="not-a-preset")
        with pytest.raises(ConfigurationError, match="preset"):
            run(cfg)

    def test_preset_scaled_by_delta(self):
        cfg_half = make_config(delta=0.5, t_end=0.0)
        cfg_full = make_config(delta=1.0, t_end=0.0)
        u_half = run(cfg_half).snapshots[0].u
        u_full = run(cfg_full).snapshots[0].u
        assert np.allclose(u_half.hat, 0.5 * u_full.hat)

    def test_3d_smoke(self):
        cfg = make_config(dim=3, n=8, t_end=0.01, dt=1e-3,
                          initial_condition="taylor-green", stress_init="random")
        traj = run(cfg)
        e = traj.diag["energy"]
        assert np.all(np.diff(e) <= 1e-8 * e[0])
        assert traj.final.u.divergence_max() <= 1e-10 * np.sqrt(
            traj.final.u.h_norm_sq(1.0)) + 1e-14
