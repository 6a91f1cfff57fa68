"""Time integration of the regularized Maxwell-alpha system.

The state is evolved in the filtered variable v = (I - alpha^2 Lap) u
and the stress tensor sigma, both spectral.  The right-hand side F is
defined in :mod:`alphaflow.operators`: its diagonal stiff symbols
(:func:`~alphaflow.operators.linear_decay`) are folded into per-mode
integrating factors, and its explicit part is advanced with a
second-order Heun stage, so a delta = 0 run reproduces the closed-form
per-mode decay to roundoff.

Both fields live on the 2/3-rule band, where every nonlinear product is
kept (see :mod:`alphaflow.spectral`).  After every step the velocity is
re-projected and mean-pinned; symmetry of the stress is unbreakable by
storage.

A step writes every array but the two it returns into the stepper's one
:class:`~alphaflow.spectral.Workspace`, which its first step fills and
every later step reuses, so steps after the first allocate nothing
large.  The workspace holds one stage's live set, which bounds its size:
the real-space stacks of u, of the products and of one transport term
(later the stress samples), and of the curl (later the spin); one
transform's pass buffers, sized by the stress entries; the stage
velocity u = v / H_alpha; and the Heun mid state, over which the second
stage writes its slopes (F reads its input before it writes).  That is
0.52 MiB at 2D n=64 and 7.1 MiB at 3D n=32, where a step that made its
temporaries fresh peaked at 0.66 and 8.6 MiB.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral as sp
from .errors import CflViolation, CheckpointError, ConfigurationError, IntegrationBlowup
from .fields import (
    PhysicalParams,
    StressField,
    VelocityField,
    energy,
    random_divfree,
    random_stress,
)
# commutator_hat stays bound here: the benchmark's tracing test patches it
from .operators import commutator_hat, linear_decay, momentum_rhs, stress_rhs  # noqa: F401
from .spectral import Grid

PRESETS = ("zero", "taylor-green", "shear", "random-spectrum")
STRESS_INITS = ("preset", "zero", "random")

#: per-step diagnostics a run records, in the order a trajectory file stores them
DIAG_KEYS = ("t", "energy", "u_alpha_sq", "u_h3_sq", "s_l2_sq", "s_h2_sq")

#: advective stability margin: dt * max|u| must stay below this fraction
#: of a grid cell
CFL_LIMIT = 0.5


@dataclass(frozen=True)
class SimConfig:
    """Validated simulation configuration."""

    n: int
    alpha: float
    eta: float
    lam: float
    dt: float
    t_end: float
    dim: int = 2
    epsilon: float = 0.0
    delta: float = 1.0
    snapshot_stride: int = 1
    initial_condition: str = "taylor-green"
    stress_init: str = "preset"
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "dim", "snapshot_stride", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        # chained comparisons: NaN fails every range, and inf is excluded
        if not 0.0 <= self.epsilon < np.inf:
            raise ConfigurationError(
                f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigurationError(f"delta must lie in [0, 1], got {self.delta}")
        if not 0.0 < self.dt < np.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigurationError(
                f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ConfigurationError(
                f"snapshot_stride must be at least 1, got {self.snapshot_stride}"
            )
        if self.stress_init not in STRESS_INITS:
            raise ConfigurationError(
                f"stress_init must be one of {STRESS_INITS}, got {self.stress_init!r}"
            )
        # grid/params validation happens eagerly so bad configs fail here
        Grid.validate(self.dim, self.n)
        PhysicalParams(self.eta, self.lam, self.alpha)

    @property
    def params(self) -> PhysicalParams:
        return PhysicalParams(self.eta, self.lam, self.alpha)

    def grid(self) -> Grid:
        return Grid(self.dim, self.n)

    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ConfigurationError(
                f"t_end {self.t_end} is not an integer multiple of dt {self.dt}"
            )
        return steps


@dataclass
class SolverState:
    """The state (u, sigma) at time t: a snapshot, a restart, a blowup's last."""

    t: float
    u: VelocityField
    sigma: StressField


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar diagnostics of one run.

    ``diag`` holds arrays sampled at every step: t, energy, the filtered
    velocity norm, the H^3 velocity and L2/H^2 stress norms entering the
    energy balance.
    """

    config: SimConfig
    snapshots: list[SolverState]
    diag: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.snapshots[0].u.grid

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def final(self) -> SolverState:
        return self.snapshots[-1]

    @cached_property
    def energies(self) -> np.ndarray:
        """Energy of each snapshot, evaluated on first use."""
        params = self.config.params
        return np.array([energy(s.u, s.sigma, params) for s in self.snapshots])


def initial_condition(name: str, grid: Grid, seed: int = 0,
                      stress_init: str = "preset"):
    """Named initial data presets.

    Returns (VelocityField, StressField).  ``stress_init`` overrides the
    preset's stress: "zero" forces zero stress, "random" a seeded
    random symmetric tensor; "preset" keeps the preset default (random
    stress only for the random-spectrum preset).
    """
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown initial condition {name!r}; available presets: "
            + ", ".join(PRESETS)
        )
    if stress_init not in STRESS_INITS:
        raise ConfigurationError(
            f"unknown stress_init {stress_init!r}; choose from {STRESS_INITS}"
        )
    x = grid.coordinates()
    if name == "zero":
        u = VelocityField.zero(grid)
    elif name == "taylor-green":
        vals = np.zeros((grid.dim,) + grid.shape)
        if grid.dim == 2:
            vals[0] = np.sin(x[0]) * np.cos(x[1])
            vals[1] = -np.cos(x[0]) * np.sin(x[1])
        else:
            vals[0] = np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2])
            vals[1] = -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
        u = VelocityField.from_values(grid, vals)
    elif name == "shear":
        vals = np.zeros((grid.dim,) + grid.shape)
        vals[0] = np.sin(x[1])
        u = VelocityField.from_values(grid, vals)
    else:  # random-spectrum
        u = random_divfree(grid, seed=seed, spectrum_decay=4.0)

    if stress_init == "random" or (stress_init == "preset" and name == "random-spectrum"):
        sigma = random_stress(grid, seed=seed + 1, spectrum_decay=4.0)
    else:
        sigma = StressField.zero(grid)
    return u, sigma


class Stepper:
    """Integrating factors from F's linear symbols; F's explicit part per stage.

    A step writes every array it needs into one workspace, which the
    stepper owns and which fills on its first step (see the module
    docstring); only the arrays it returns are fresh.
    """

    def __init__(self, grid: Grid, config: SimConfig):
        self.grid = grid
        self.config = config
        self.mu = config.params.mu
        self.h_alpha = grid.helmholtz_symbol(config.alpha)
        self.factor_u, self.factor_s = (np.exp(-config.dt * decay)
                                        for decay in linear_decay(grid, config))
        self.work = sp.Workspace()

    def explicit_rhs(self, v_hat: np.ndarray, s_hat: np.ndarray, out=None):
        """F's explicit part at (v, sigma): (P momentum_rhs, stress_rhs, u).

        The two slopes go into ``out`` (fresh arrays when ``None``), which
        may be ``(v_hat, s_hat)`` themselves.  u = v / H_alpha is the
        stage velocity, its samples held in the workspace until the next
        stage.
        """
        grid, delta, work = self.grid, self.config.delta, self.work
        dv, ds = (np.empty(v_hat.shape, complex), np.empty(s_hat.shape, complex)) \
            if out is None else out
        u = VelocityField.wrap(grid, np.divide(v_hat, self.h_alpha,
                                               out=work.take("u_hat", v_hat.shape, complex)))
        sigma = StressField(grid, s_hat)
        sp.leray_project(grid, momentum_rhs(u, v_hat, sigma, delta, work, dv), out=dv,
                         work=work)
        stress_rhs(u, sigma, self.mu, delta, work, ds)
        return dv, ds, u

    def step(self, v_hat: np.ndarray, s_hat: np.ndarray):
        """One integrating-factor Heun step. Returns (v, s, max_speed).

        y_mid = f (y + dt k1) and y_new = f y + dt/2 (f k1 + k2) per
        variable, with f the integrating factor.  k1 is formed in the
        arrays the step returns, y_mid in the workspace, and k2 over
        y_mid; max_speed is the |u| maximum of the first stage, for the
        CFL check.
        """
        dt, work = self.config.dt, self.work
        factors = (self.factor_u, self.factor_s)
        k1 = (np.empty(v_hat.shape, complex), np.empty(s_hat.shape, complex))
        max_speed = self.explicit_rhs(v_hat, s_hat, out=k1)[2].max_speed(work)
        mid = (work.take("heun.v", v_hat.shape, complex),
               work.take("heun.s", s_hat.shape, complex))
        for y, k_1, y_mid, f in zip((v_hat, s_hat), k1, mid, factors):
            np.multiply(dt, k_1, out=y_mid)
            y_mid += y
            y_mid *= f
        k2 = self.explicit_rhs(*mid, out=mid)[:2]
        for y, k_1, k_2, f in zip((v_hat, s_hat), k1, k2, factors):
            k_1 *= f
            k_1 += k_2
            k_1 *= 0.5 * dt
            k_1 += np.multiply(f, y, out=k_2)  # f y + dt/2 (f k1 + k2)
        v_new, s_new = k1
        sp.leray_project(self.grid, v_new, out=v_new, work=work)
        v_new[(slice(None),) + (0,) * self.grid.dim] = 0.0
        return v_new, s_new, max_speed

    def state_from_raw(self, t, v_hat, s_hat) -> SolverState:
        u = VelocityField.wrap(self.grid, v_hat / self.h_alpha)
        return SolverState(t=t, u=u, sigma=StressField(self.grid, s_hat))


def _check_cfl(t, config, max_speed, grid):
    cell = grid.length / grid.n
    if config.dt * max_speed > CFL_LIMIT * cell:
        raise CflViolation(t, config.dt, max_speed, CFL_LIMIT * cell)


def _check_finite(last_state, v_hat, s_hat, t, step, grid):
    if np.all(np.isfinite(v_hat)) and np.all(np.isfinite(s_hat)):
        return
    source = v_hat if not np.all(np.isfinite(v_hat)) else s_hat
    flat = int(np.argmax(~np.isfinite(source.reshape(-1))))
    idx = np.unravel_index(flat, source.shape)
    mode = tuple(int(np.broadcast_to(k, grid.spectral_shape)[idx[1:]]) for k in grid.k)
    raise IntegrationBlowup(
        t, step, f"non-finite coefficient first seen at mode {mode}",
        last_state=last_state,
    )


def _diag_sample(grid, params, v_hat, s_hat):
    u_hat = v_hat / grid.helmholtz_symbol(params.alpha)
    sigma = StressField(grid, s_hat)
    u_alpha_sq = sp.alpha_norm_sq(grid, u_hat, params.alpha)
    s_l2_sq = sigma.l2_norm_sq()
    return {
        "energy": 2.0 * params.mu * u_alpha_sq + s_l2_sq,
        "u_alpha_sq": u_alpha_sq,
        "u_h3_sq": sp.sobolev_norm_sq(grid, u_hat, 3.0),
        "s_l2_sq": s_l2_sq,
        "s_h2_sq": sigma.h_norm_sq(2.0),
    }


def _resolve_initial(config: SimConfig, grid: Grid):
    """Preset data (delta-scaled per the homotopy) or a trajectory file's final state."""
    name = config.initial_condition
    if name in PRESETS:
        u0, s0 = initial_condition(name, grid, seed=config.seed,
                                   stress_init=config.stress_init)
        return u0.scaled(config.delta), s0.scaled(config.delta)
    import os

    if os.path.exists(name):
        from .checkpoint import read_trajectory

        try:
            final = read_trajectory(name).final
        except CheckpointError as exc:
            raise ConfigurationError(
                f"initial_condition {name!r} is not a trajectory file: {exc}") from None
        return final.u, final.sigma  # file data are taken verbatim
    raise ConfigurationError(
        f"initial_condition {name!r} is neither a preset ({', '.join(PRESETS)}) "
        "nor an existing trajectory file"
    )


def run(config: SimConfig, initial_state: SolverState | None = None) -> Trajectory:
    """Integrate to t_end, collecting snapshots and per-step diagnostics.

    Preset initial data are scaled by delta (the homotopy convention); a
    caller-supplied ``initial_state`` or the final snapshot of a
    trajectory file named by the config is integrated verbatim.
    """
    grid = config.grid()
    params = config.params
    if initial_state is None:
        u0, s0 = _resolve_initial(config, grid)
    else:
        u0, s0 = initial_state.u, initial_state.sigma
    if u0.grid != grid:
        raise ConfigurationError(f"initial state lives on grid (dim, n) = "
                                 f"{u0.grid.dim, u0.grid.n}, not {grid.dim, grid.n}")

    stepper = Stepper(grid, config)
    v_hat = sp.leray_project(grid, sp.helmholtz_apply(grid, u0.hat, config.alpha))
    s_hat = s0.hat

    n_steps = config.n_steps()
    diag_rows = {key: [] for key in DIAG_KEYS}
    snapshots: list[SolverState] = []

    def record(step, t, v, s):
        sample = _diag_sample(grid, params, v, s)
        diag_rows["t"].append(t)
        for key, value in sample.items():
            diag_rows[key].append(value)
        if step % config.snapshot_stride == 0 or step == n_steps:
            snapshots.append(stepper.state_from_raw(t, v.copy(), s.copy()))
        if not np.isfinite(sample["energy"]):
            raise IntegrationBlowup(t, step, "non-finite energy",
                                    last_state=stepper.state_from_raw(t, v, s))

    record(0, 0.0, v_hat, s_hat)
    for step in range(1, n_steps + 1):
        t_prev = (step - 1) * config.dt
        v_new, s_new, max_speed = stepper.step(v_hat, s_hat)
        _check_cfl(t_prev, config, max_speed, grid)
        if not (np.all(np.isfinite(v_new)) and np.all(np.isfinite(s_new))):
            last = stepper.state_from_raw(t_prev, v_hat, s_hat)
            _check_finite(last, v_new, s_new, step * config.dt, step, grid)
        v_hat, s_hat = v_new, s_new
        record(step, step * config.dt, v_hat, s_hat)

    diag = {key: np.array(rows) for key, rows in diag_rows.items()}
    return Trajectory(config=config, snapshots=snapshots, diag=diag)


def energy_law_residuals(trajectory: Trajectory) -> np.ndarray:
    """Per-step residuals of the discrete energy balance.

    The semi-discrete system satisfies
    d/dt [2 mu |u|_V^2 + |sigma|^2] =
        -4 mu eps |u|_3^2 - (2 delta / lambda) |sigma|^2 - 2 eps |sigma|_2^2;
    this returns E_{n+1} - E_n - dt * (D_n + D_{n+1}) / 2, which is
    third order per step for the second-order stepper.
    """
    cfg = trajectory.config
    params = cfg.params
    d = trajectory.diag
    dissipation = (-4.0 * params.mu * cfg.epsilon * d["u_h3_sq"]
                   - (2.0 * cfg.delta / cfg.lam) * d["s_l2_sq"]
                   - 2.0 * cfg.epsilon * d["s_h2_sq"])
    e = d["energy"]
    return e[1:] - e[:-1] - 0.5 * cfg.dt * (dissipation[1:] + dissipation[:-1])
