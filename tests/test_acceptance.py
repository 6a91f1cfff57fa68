"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them).  Expensive trajectories are shared through module-scoped
fixtures; every tolerance is pinned here, not computed on the fly.
"""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import alphaflow.spectral as sp
from alphaflow.abstract_ode import (
    affine_forced_problem,
    apriori_bound_holds,
    dissipative_margin,
    dry_friction_problem,
    integrate,
    linear_decay_problem,
    rotation_problem,
)
from alphaflow.cli import main as cli_main
from alphaflow.dissipative import (
    alpha_sweep,
    calibrate_gamma,
    inequality_margin,
)
from alphaflow.fields import random_divfree, random_stress
from alphaflow.gronwall import exponential_bound, random_step_series
from alphaflow.operators import TestPair, identity_suite
from alphaflow.solver import (
    SimConfig,
    SolverState,
    energy_law_residuals,
    run,
)
from alphaflow.spectral import Grid


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def energy_estimate(traj, mode="maxwell"):
    """The inequality with the zero test pair, E(t) <= E(0), at tolerance 1e-10."""
    return inequality_margin(traj, TestPair.zero(traj.grid), traj.config.params,
                             gamma_const=1.0, mode=mode, tolerance=1e-10)


@pytest.fixture(scope="module")
def maxwell_traj():
    # criterion 3 configuration, reused by criteria 6 and 8
    cfg = SimConfig(n=64, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.5,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    stress_init="random", snapshot_stride=25, seed=0)
    return run(cfg)


@pytest.fixture(scope="module")
def euler_traj():
    cfg = SimConfig(n=64, alpha=1.0, eta=0.0, lam=1.0, dt=1e-3, t_end=0.2,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    snapshot_stride=10, seed=0)
    return run(cfg)


def coincidence_report(dt: float, gamma: float):
    # amplitude 0.75 keeps the integrated weight moderate, so margins stay
    # dt^2-dominated and survive the doubled-gamma exponential in criterion 8
    cfg = SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=dt, t_end=0.5,
                    epsilon=0.0, delta=1.0, initial_condition="taylor-green",
                    snapshot_stride=max(1, int(round(0.01 / dt))), seed=0)
    from alphaflow.solver import initial_condition

    grid = cfg.grid()
    u0, s0 = initial_condition("taylor-green", grid)
    state = SolverState(t=0.0, u=u0.scaled(0.75), sigma=s0)
    traj = run(cfg, initial_state=state)
    pair = TestPair.from_trajectory(traj, degree=10)
    rep = inequality_margin(traj, pair, cfg.params, gamma_const=gamma,
                            mode="maxwell", tolerance=1e-6)
    return traj, pair, rep


@pytest.fixture(scope="module")
def gamma_star():
    return calibrate_gamma(Grid(2, 32), samples=100, seed=0)


@pytest.fixture(scope="module")
def coincidence_pair(gamma_star):
    coarse = coincidence_report(2e-3, gamma_star)
    fine = coincidence_report(1e-3, gamma_star)
    return coarse, fine


def test_criterion_1_identity_suite():
    grid = Grid(2, 64)
    defects = identity_suite(grid, alpha=1.0, n_samples=100, seed=0)
    worst = max(defects.values())
    ok = worst <= 1e-10
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(defects.items()))
    report(1, "cancellation identities", ok, detail)


def test_criterion_2_operator_round_trips():
    grid = Grid(2, 64)
    rng = np.random.default_rng(1)
    worst_idem = worst_adj = worst_helm = 0.0
    for _ in range(100):
        f = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
        g = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
        pf = sp.leray_project(grid, f)
        worst_idem = max(worst_idem,
                         np.max(np.abs(sp.leray_project(grid, pf) - pf))
                         / np.max(np.abs(pf)))
        pairing_gap = abs(sp.l2_inner(grid, pf, g)
                          - sp.l2_inner(grid, f, sp.leray_project(grid, g)))
        worst_adj = max(worst_adj, pairing_gap
                        / (sp.sobolev_norm(grid, f) * sp.sobolev_norm(grid, g)))
        back = sp.helmholtz_apply(grid, f, 0.7) / grid.helmholtz_symbol(0.7)
        worst_helm = max(worst_helm,
                         np.max(np.abs(back - f)) / np.max(np.abs(f)))
    ok = max(worst_idem, worst_adj, worst_helm) <= 1e-11
    report(2, "operator round-trips", ok,
           f"idempotence={worst_idem:.2e}, self-adjoint={worst_adj:.2e}, "
           f"helmholtz={worst_helm:.2e}")


def test_criterion_3_discrete_energy_law(maxwell_traj):
    cfg = maxwell_traj.config
    residuals = energy_law_residuals(maxwell_traj)
    measured_c = float(np.max(np.abs(residuals)) / cfg.dt**2)
    energies = maxwell_traj.diag["energy"]
    monotone = bool(np.all(np.diff(energies) <= 1e-8 * energies[0]))
    ok = monotone and measured_c <= 10.0
    report(3, "discrete energy law", ok,
           f"max|residual|/dt^2 = {measured_c:.3f} (bound 10), "
           f"monotone={monotone}, E0={energies[0]:.4f}, E_end={energies[-1]:.4f}")


def test_criterion_4_linear_oracle():
    grid = Grid(2, 32)
    cfg = SimConfig(n=32, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.1,
                    epsilon=1e-3, delta=0.0, initial_condition="zero", seed=0)
    u0 = random_divfree(grid, seed=3)
    s0 = random_stress(grid, seed=4)
    traj = run(cfg, initial_state=SolverState(t=0.0, u=u0, sigma=s0))
    h = grid.helmholtz_symbol(cfg.alpha)
    decay_u = np.exp(-cfg.epsilon * grid.bessel_symbol(3.0) / h * 0.1)
    decay_s = np.exp(-cfg.epsilon * grid.bessel_symbol(2.0) * 0.1)
    u_exact = sp.leray_project(grid, u0.hat) * decay_u
    s_exact = s0.hat * decay_s

    def max_rel(actual, exact):
        mask = np.abs(exact) > 1e-13 * np.max(np.abs(exact))
        return float(np.max(np.abs(actual - exact)[mask] / np.abs(exact)[mask]))

    err_u = max_rel(traj.final.u.hat, u_exact)
    err_s = max_rel(traj.final.sigma.hat, s_exact)
    ok = max(err_u, err_s) <= 1e-6
    report(4, "per-mode linear oracle", ok,
           f"velocity={err_u:.2e}, stress={err_s:.2e} over 100 steps")


def test_criterion_5_gronwall_selftest():
    times = np.linspace(0.0, 1.0, 10_000)
    bound = exponential_bound(times, 2.0, np.zeros_like(times), np.zeros_like(times))
    err_const = float(np.max(np.abs(bound - 2.0)) / 2.0)
    bound = exponential_bound(times, 3.0, np.ones_like(times), np.zeros_like(times))
    exact = 3.0 * np.exp(times)
    err_exp = float(np.max(np.abs(bound - exact) / exact))

    rng = np.random.default_rng(7)
    weight = random_step_series(times, rng)
    source = random_step_series(times, rng)
    bound = exponential_bound(times, 1.0, weight, source)

    def rhs(t, g):  # comparison equation the bound saturates
        return np.interp(t, times, weight) * g + np.interp(t, times, source)

    oracle = solve_ivp(rhs, (0.0, 1.0), [1.0], t_eval=times, rtol=1e-10,
                       atol=1e-12, max_step=float(times[1])).y[0]
    err_random = float(np.max(np.abs(bound - oracle) / np.abs(oracle)))
    ok = err_const <= 1e-6 and err_exp <= 1e-6 and err_random <= 1e-5
    report(5, "comparison-lemma self-test", ok,
           f"constant={err_const:.2e}, exponential={err_exp:.2e}, "
           f"random={err_random:.2e}")


def test_criterion_6_dissipative_estimate(maxwell_traj, euler_traj):
    rep_m = energy_estimate(maxwell_traj, mode="maxwell")
    rep_e = energy_estimate(euler_traj, mode="euler-alpha")
    ok = (rep_m.passed and rep_e.passed
          and rep_m.min_margin >= -1e-10 * rep_m.energy_scale
          and rep_e.min_margin >= -1e-10 * rep_e.energy_scale)
    report(6, "dissipative estimate", ok,
           f"maxwell min_margin={rep_m.min_margin:.3e} (E0={rep_m.energy_scale:.3f}), "
           f"euler min_margin={rep_e.min_margin:.3e} (E0={rep_e.energy_scale:.3f})")


def test_criterion_7_coincidence(coincidence_pair):
    (coarse_traj, _, coarse_rep), (fine_traj, _, fine_rep) = coincidence_pair
    e0 = coarse_rep.energy_scale
    small_enough = (coarse_rep.min_margin >= -1e-6 * e0
                    and fine_rep.min_margin >= -1e-6 * fine_rep.energy_scale)
    coarse_mag = abs(coarse_rep.min_margin)
    fine_mag = abs(fine_rep.min_margin)
    halved = fine_mag <= 0.5 * coarse_mag
    ok = small_enough and halved
    ratio = coarse_mag / fine_mag if fine_mag > 0 else float("inf")
    report(7, "strong-solution coincidence", ok,
           f"min_margin dt=2e-3: {coarse_rep.min_margin:.3e}, "
           f"dt=1e-3: {fine_rep.min_margin:.3e}, reduction x{ratio:.2f}")


def test_criterion_8_gamma_monotonicity(maxwell_traj, euler_traj, gamma_star,
                                        coincidence_pair):
    # every check that passed keeps passing with the weight constant doubled
    results = []
    rep = energy_estimate(maxwell_traj)
    results.append(rep.passed)
    results.append(
        inequality_margin(maxwell_traj, TestPair.zero(maxwell_traj.grid),
                          maxwell_traj.config.params, gamma_const=2.0,
                          tolerance=1e-10).passed)
    (fine_traj, fine_pair, fine_rep) = coincidence_pair[1]
    results.append(fine_rep.passed)
    doubled = inequality_margin(fine_traj, fine_pair, fine_traj.config.params,
                                gamma_const=2.0 * gamma_star, mode="maxwell",
                                tolerance=1e-6)
    results.append(doubled.passed)
    ok = all(results)
    report(8, "gamma monotonicity", ok,
           f"doubled-gamma coincidence min_margin={doubled.min_margin:.3e}")


def test_criterion_9_alpha_sweep():
    cfg = SimConfig(n=64, alpha=1.0, eta=1.0, lam=1.0, dt=1e-3, t_end=0.3,
                    epsilon=1e-3, delta=1.0, initial_condition="taylor-green",
                    stress_init="random", snapshot_stride=30, seed=0)
    sweep = alpha_sweep(cfg, [1.0, 0.5, 0.25, 0.1])
    ok = sweep.all_ok
    detail = ", ".join(
        f"a={e.alpha}: supE/E0={e.sup_energy / e.initial_energy:.12f}"
        for e in sweep.entries)
    report(9, "alpha-uniform energy bound", ok, detail)


def test_criterion_10_abstract_ode_suite():
    failures = []
    rng = np.random.default_rng(11)
    for problem in (linear_decay_problem(), rotation_problem()):
        path = integrate(problem, dt=1e-4)
        if not apriori_bound_holds(problem, path):
            failures.append("apriori")
        for _ in range(50):
            degree = 3
            coeffs = rng.uniform(-1.0, 1.0, (degree + 1, problem.dimension))
            coeffs *= np.array([problem.horizon**-p
                                for p in range(degree + 1)])[:, None]

            def curve(t, c=coeffs):
                t = np.asarray(t, float)
                return sum(c[p] * t[..., None] ** p for p in range(degree + 1))

            def rate(t, c=coeffs):
                t = np.asarray(t, float)
                return sum(p * c[p] * t[..., None] ** (p - 1)
                           for p in range(1, degree + 1))

            rep = dissipative_margin(path, curve, rate, problem)
            if rep.min_margin < -1e-8:
                failures.append(f"margin {rep.min_margin:.2e}")

    problem, family = dry_friction_problem()
    sup_errors = {}
    for eps in (1e-1, 1e-2, 1e-3):
        path = integrate(problem, rhs=family.member(eps), dt=min(1e-3, eps / 10))
        ramp = np.maximum(0.0, 1.0 - path.times)
        sup_err = float(np.max(np.abs(path.states[:, 0] - ramp)))
        sup_errors[eps] = sup_err
        if sup_err > 5.0 * eps * (1.0 + abs(np.log(eps))):
            failures.append(f"sgn eps={eps}")
    smooth = integrate(problem, rhs=family.member(1e-3), dt=1e-4)
    if not apriori_bound_holds(problem, smooth):
        failures.append("sgn apriori")
    if not apriori_bound_holds(affine_forced_problem(),
                               integrate(affine_forced_problem(), dt=1e-3)):
        failures.append("affine apriori")
    ok = not failures
    detail = ("sgn sup-errors " + ", ".join(f"{k}: {v:.2e}"
                                            for k, v in sup_errors.items())
              + ("" if ok else "; failures: " + "; ".join(failures)))
    report(10, "abstract dissipative-ODE suite", ok, detail)


def test_criterion_11_determinism_and_io(tmp_path):
    cfg_doc = {"n": 16, "alpha": 1.0, "eta": 1.0, "lambda": 1.0, "dt": 1e-3,
               "t_end": 0.02, "epsilon": 1e-3, "delta": 1.0,
               "initial_condition": "random-spectrum", "snapshot_stride": 5,
               "seed": 11}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    code1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["run", "--config", str(cfg_path), "--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("trajectory.bin", "run.csv", "summary.json"))

    from alphaflow.checkpoint import read_trajectory, write_trajectory

    round_trip = tmp_path / "round.bin"
    write_trajectory(read_trajectory(out1 / "trajectory.bin"), round_trip)
    bitexact = round_trip.read_bytes() == (out1 / "trajectory.bin").read_bytes()
    ok = code1 == 0 and code2 == 0 and identical and bitexact
    report(11, "determinism and file round-trip", ok,
           f"repeat-run identical={identical}, file round-trip bitexact={bitexact}")
