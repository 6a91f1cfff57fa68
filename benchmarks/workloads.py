"""The benchmark's four workloads.

Each workload has three parts:

* ``build(seed, wrap)`` makes every input from the seed.  This is the
  set-up that ``setup_s`` times in fresh interpreters: config, ``Grid``,
  ``Stepper`` and initial state, or the ODE problems and test curves.
  ``wrap`` is applied to each user callable handed to alphaflow, which
  lets a traced run count their calls.
* ``unit(ctx, phase)`` is one timed unit of work.  Every call into
  alphaflow goes through a module attribute, never a name bound here at
  import, so the tracer's wrappers see it.  ``phase(name)`` times a block.
* ``check(ctx, out)`` tests the unit's outputs, outside the timed region,
  and returns ``({check name: passed}, energy_law_c)``.
"""

from __future__ import annotations

import dataclasses
import os
from types import SimpleNamespace

import numpy as np

import alphaflow.abstract_ode as abstract_ode
import alphaflow.checkpoint as checkpoint
import alphaflow.dissipative as dissipative
import alphaflow.operators as operators
import alphaflow.reporting as reporting
import alphaflow.solver as solver
import alphaflow.spectral as sp
from alphaflow.fields import VelocityField


def _same(fn):
    return fn


def _energy_law_c(energy: np.ndarray, dissipation: np.ndarray, dt: float) -> float:
    """Criterion 3's constant: max |E_{n+1} - E_n - dt (D_n + D_{n+1}) / 2| / dt^2."""
    residual = energy[1:] - energy[:-1] - 0.5 * dt * (dissipation[1:] + dissipation[:-1])
    return float(np.max(np.abs(residual)) / dt**2)


def _snapshot_bytes(trajectory) -> int:
    """Bytes of field data the trajectory's snapshots hold."""
    total = 0
    for snap in trajectory.snapshots:
        for fld in (snap.u, snap.sigma):
            total += fld.hat.nbytes + (fld._values.nbytes if fld._values is not None else 0)
    return total


def _imex_config(dim, n, dt, steps, epsilon, stride, seed) -> solver.SimConfig:
    """Taylor-Green velocity with seeded random stress; alpha = eta = lambda = 1."""
    return solver.SimConfig(n=n, dim=dim, alpha=1.0, eta=1.0, lam=1.0, dt=dt,
                            t_end=steps * dt, epsilon=epsilon, delta=1.0,
                            snapshot_stride=stride, initial_condition="taylor-green",
                            stress_init="random", seed=seed)


def _imex_inputs(config: solver.SimConfig) -> SimpleNamespace:
    grid = config.grid()
    solver.Stepper(grid, config)  # a user's set-up builds one; run() makes its own
    u0, s0 = solver.initial_condition(config.initial_condition, grid, seed=config.seed,
                                      stress_init=config.stress_init)
    return SimpleNamespace(config=config, grid=grid,
                           state=solver.SolverState(t=0.0, u=u0, sigma=s0))


def _imex_checks(trajectory) -> tuple[dict[str, bool], float]:
    """Criterion 3's form, finiteness and the final divergence defect."""
    cfg = trajectory.config
    d = trajectory.diag
    law_c = float(np.max(np.abs(solver.energy_law_residuals(trajectory))) / cfg.dt**2)
    energy = d["energy"]
    finite = all(np.all(np.isfinite(s.u.hat)) and np.all(np.isfinite(s.sigma.hat))
                 for s in trajectory.snapshots)
    finite = finite and all(np.all(np.isfinite(v)) for v in d.values())
    final_u = trajectory.final.u
    scale = sp.sobolev_norm(final_u.grid, final_u.hat, 1.0)
    checks = {
        "energy_law_c<=10": law_c <= 10.0,
        "energy_nonincreasing": bool(np.all(np.diff(energy) <= 1e-8 * energy[0])),
        "finite": bool(finite),
        "divergence_at_roundoff":
            final_u.divergence_max() <= VelocityField.DIV_TOL * scale + 1e-14,
    }
    return checks, law_c


class Solve:
    """``run()`` with snapshot_stride equal to the step count: the stepper alone."""

    def __init__(self, name: str, dim: int, n: int, dt: float, steps: int):
        self.name, self.dim, self.n, self.dt, self.steps = name, dim, n, dt, steps

    def build(self, seed: int, wrap=_same) -> SimpleNamespace:
        return _imex_inputs(_imex_config(self.dim, self.n, self.dt, self.steps,
                                         epsilon=1e-3, stride=self.steps, seed=seed))

    def warm(self, ctx) -> None:
        short = dataclasses.replace(ctx.config, t_end=2 * self.dt, snapshot_stride=2)
        solver.run(short, initial_state=ctx.state)

    def unit(self, ctx, phase):
        with phase("run"):
            trajectory = solver.run(ctx.config, initial_state=ctx.state)
        facts = {"steps": ctx.config.n_steps(), "step_phase": "run",
                 "snapshot_bytes": _snapshot_bytes(trajectory)}
        return trajectory, facts

    def check(self, ctx, trajectory):
        return _imex_checks(trajectory)


#: check mode -> tolerance, the CLI defaults for zero-test, self-test and test-pair
CHECK_MODES = {"self": 1e-6, "zero": 1e-10, "pair": 1e-6}


class Verify:
    """``alphaflow run`` then ``alphaflow check --trajectory`` in all three modes.

    eps = 0 because the checker's residuals leave out the eps terms; at
    eps > 0 the self-test fails (a known defect), which this workload
    neither measures nor masks.
    """

    name = "verify-2d"
    n, dt, steps, gamma_samples, fit_degree = 64, 1e-3, 100, 60, 10

    def build(self, seed: int, wrap=_same) -> SimpleNamespace:
        ctx = _imex_inputs(_imex_config(2, self.n, self.dt, self.steps, epsilon=0.0,
                                        stride=1, seed=seed))
        ctx.pair = operators.TestPair.random(ctx.grid, seed=seed)
        ctx.workdir = None  # set by the runner: a scratch directory in the checkout
        return ctx

    def warm(self, ctx) -> None:
        short = dataclasses.replace(ctx.config, t_end=3 * self.dt)
        trajectory = solver.run(short, initial_state=ctx.state)
        dissipative.inequality_margin(trajectory, operators.TestPair.zero(ctx.grid),
                                      ctx.config.params, gamma_const=1.0)
        dissipative.calibrate_gamma(ctx.grid, samples=50, seed=ctx.config.seed)

    def unit(self, ctx, phase):
        cfg, grid = ctx.config, ctx.grid
        path = os.path.join(ctx.workdir, "trajectory.bin")
        with phase("run"):
            trajectory = solver.run(cfg, initial_state=ctx.state)
        facts = {"steps": cfg.n_steps(), "step_phase": "run",
                 "snapshot_bytes": _snapshot_bytes(trajectory)}
        with phase("write"):
            checkpoint.write_trajectory(trajectory, path)
        with phase("read"):
            loaded = checkpoint.read_trajectory(path)
        facts["checkpoint_bytes"] = os.path.getsize(path)
        with phase("gamma"):
            gamma = dissipative.calibrate_gamma(grid, samples=self.gamma_samples,
                                                seed=cfg.seed)
        with phase("fit"):
            fitted = operators.TestPair.from_trajectory(loaded, degree=self.fit_degree)
        pairs = {"self": fitted, "zero": operators.TestPair.zero(grid), "pair": ctx.pair}
        reports = {}
        for mode, tolerance in CHECK_MODES.items():
            outdir = os.path.join(ctx.workdir, mode)
            os.makedirs(outdir, exist_ok=True)
            with phase("check." + mode):
                reports[mode] = dissipative.inequality_margin(
                    loaded, pairs[mode], cfg.params, gamma_const=gamma,
                    mode="maxwell", tolerance=tolerance)
                reporting.write_check_report(outdir, reports[mode], loaded)
        facts["snapshots_checked"] = {m: len(r.times) for m, r in reports.items()}
        return SimpleNamespace(trajectory=trajectory, loaded=loaded,
                               reports=reports), facts

    def check(self, ctx, out):
        checks, law_c = _imex_checks(out.trajectory)
        for mode, report in out.reports.items():
            checks[f"check_{mode}_passes"] = report.passed
        checks["round_trip_bit_exact"] = _bit_exact(out.trajectory, out.loaded)
        return checks, law_c


def _bit_exact(original, loaded) -> bool:
    if len(original.snapshots) != len(loaded.snapshots):
        return False
    for a, b in zip(original.snapshots, loaded.snapshots):
        if a.t != b.t:
            return False
        for x, y in ((a.u.values, b.u.values), (a.sigma.values, b.sigma.values)):
            if x.tobytes() != y.tobytes():
                return False
    return (set(original.diag) == set(loaded.diag)
            and all(original.diag[k].tobytes() == loaded.diag[k].tobytes()
                    for k in original.diag)
            and original.config == loaded.config)


def _cubic_curve(coeffs, wrap):
    degree = coeffs.shape[0] - 1

    def curve(t):
        t = np.asarray(t, float)
        return sum(coeffs[p] * t[..., None] ** p for p in range(degree + 1))

    def rate(t):
        t = np.asarray(t, float)
        return sum(p * coeffs[p] * t[..., None] ** (p - 1) for p in range(1, degree + 1))

    return wrap(curve), wrap(rate)


def _wrapped_problem(problem, wrap):
    return dataclasses.replace(problem, rhs=wrap(problem.rhs),
                               one_sided_bound=wrap(problem.one_sided_bound))


class OdeSuite:
    """Acceptance criterion 10: the abstract dissipative-ODE suite."""

    name = "ode-suite"
    dt, n_curves, degree = 1e-4, 50, 3

    def build(self, seed: int, wrap=_same) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        cases = []
        for problem in (abstract_ode.linear_decay_problem(),
                        abstract_ode.rotation_problem()):
            scale = np.array([problem.horizon**-p for p in range(self.degree + 1)])
            curves = [_cubic_curve(rng.uniform(-1.0, 1.0, (self.degree + 1,
                                                           problem.dimension))
                                   * scale[:, None], wrap)
                      for _ in range(self.n_curves)]
            cases.append((_wrapped_problem(problem, wrap), curves))
        relay, family = abstract_ode.dry_friction_problem()
        family = abstract_ode.MollifiedFamily(
            family.epsilons, lambda eps, make=family.make: wrap(make(eps)))
        return SimpleNamespace(cases=cases, relay=_wrapped_problem(relay, wrap),
                               family=family,
                               affine=_wrapped_problem(abstract_ode.affine_forced_problem(),
                                                       wrap))

    def warm(self, ctx) -> None:
        abstract_ode.integrate(ctx.cases[0][0], dt=1e-2)

    def unit(self, ctx, phase):
        steps = 0
        margin_samples = 0
        paths, apriori, margins, sup_errors = [], [], [], []
        for problem, curves in ctx.cases:
            with phase("rk4"):
                path = abstract_ode.integrate(problem, dt=self.dt)
            steps += path.times.size - 1
            paths.append((problem, path))
            with phase("apriori"):
                apriori.append(abstract_ode.apriori_bound_holds(problem, path))
            for curve, rate in curves:
                with phase("margin"):
                    margins.append(abstract_ode.dissipative_margin(
                        path, curve, rate, problem).min_margin)
            margin_samples += path.times.size * len(curves)
        for eps in ctx.family.epsilons:
            with phase("rk4"):
                path = abstract_ode.integrate(ctx.relay, rhs=ctx.family.member(eps),
                                              dt=min(1e-3, eps / 10.0))
            steps += path.times.size - 1
            ramp = np.maximum(0.0, 1.0 - path.times)
            sup_errors.append((eps, float(np.max(np.abs(path.states[:, 0] - ramp)))))
        for problem, rhs, dt in ((ctx.relay, ctx.family.member(ctx.family.epsilons[-1]),
                                  self.dt),
                                 (ctx.affine, None, 1e-3)):
            with phase("rk4"):
                path = abstract_ode.integrate(problem, rhs=rhs, dt=dt)
            steps += path.times.size - 1
            with phase("apriori"):
                apriori.append(abstract_ode.apriori_bound_holds(problem, path))
        facts = {"steps": steps, "step_phase": "rk4", "margin_samples": margin_samples}
        return SimpleNamespace(paths=paths, apriori=apriori, margins=margins,
                               sup_errors=sup_errors), facts

    def check(self, ctx, out):
        checks = {f"apriori_{i}": bool(ok) for i, ok in enumerate(out.apriori)}
        checks.update({f"margin_{i}": m >= -1e-8 for i, m in enumerate(out.margins)})
        checks.update({f"sgn_eps{eps:g}": err <= 5.0 * eps * (1.0 + abs(np.log(eps)))
                       for eps, err in out.sup_errors})
        # criterion 3's form on the RK4 paths: E = |u|^2, D = 2 (F(t, u), u)
        law_c = 0.0
        for problem, path in out.paths:
            force = np.asarray(problem.rhs(path.times, path.states), float)
            dissipation = 2.0 * np.sum(force * path.states, axis=1)
            law_c = max(law_c, _energy_law_c(path.norm_sq(), dissipation, self.dt))
        return checks, law_c


WORKLOADS = {
    w.name: w for w in (
        Solve("solve-2d", dim=2, n=128, dt=1e-3, steps=20),
        Solve("solve-3d", dim=3, n=32, dt=2e-3, steps=4),
        Verify(),
        OdeSuite(),
    )
}
