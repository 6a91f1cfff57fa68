"""Numerical checks of the dissipative-solution inequality.

``inequality_margin`` compares a solver trajectory against a smooth test
pair: the weighted-distance left-hand side versus the exponential
Gronwall right-hand side built from the pair's equation residuals.  A
zero test pair reduces the check, number for number, to the dissipative
energy estimate.

These checks sample finitely many times and test pairs: a report says
"no violation found", never "verified".
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral as sp
from .errors import ContractViolation, IntegrationBlowup
from .fields import PhysicalParams, random_stress
from .gronwall import exponential_bound
from .operators import TestPair, gronwall_weight, momentum_residual, stress_residual
from .solver import SimConfig, Trajectory, run
from .spectral import Grid

MARGIN_FLOOR = 1e-12
DEFAULT_TOLERANCE = 1e-6


@dataclass
class DissipativeReport:
    """Per-time margin of the dissipative inequality for one test pair."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    gamma_used: float
    tolerance: float
    mode: str
    energy_scale: float  # solution energy at t = 0, in the mode's quadratic form

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margin))

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tolerance * max(self.energy_scale,
                                                        MARGIN_FLOOR)

    def to_json_dict(self) -> dict:
        return {
            "t": [float(t) for t in self.times],
            "lhs": [float(x) for x in self.lhs],
            "rhs": [float(x) for x in self.rhs],
            "margin": [float(x) for x in self.margin],
            "gamma": float(self.gamma_used),
            "min_margin": float(self.min_margin),
            "pass": bool(self.passed),
        }


def inequality_margin(trajectory: Trajectory, pair: TestPair,
                      params: PhysicalParams, gamma_const: float,
                      mode: str = "maxwell",
                      tolerance: float = DEFAULT_TOLERANCE,
                      initial_data=None) -> DissipativeReport:
    """Evaluate the dissipative inequality along a trajectory.

    Both models measure the distance in one quadratic form,
    a_u |u - z|_V^2 + a_s |sigma - th|^2, paired with the residuals as
    2 (a_u (R_u, u - z) + a_s (R_s, sigma - th)).  The mode fixes the
    weights: (a_u, a_s) = (2 mu, 1) for maxwell and (1, 0) for the
    Euler-alpha variant, which never reads a stress.  The residuals are
    those of the system the trajectory's config integrated, whose params
    ``params`` must be.  ``initial_data`` overrides the (a, sigma_0)
    entering the right-hand side; by default the first snapshot's.

    The pair is evaluated once per snapshot, and that one sample feeds
    the distance, the weight and both residuals.  The zero pair's weight
    and residuals are zero, so it computes neither.  A weight or residual
    that overflows raises ContractViolation naming the time.
    ``gamma_const`` must be positive and finite, ``tolerance`` finite.
    """
    if mode not in ("maxwell", "euler-alpha"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if not 0.0 < gamma_const < np.inf:
        raise ContractViolation(f"gamma must be positive and finite, got {gamma_const}")
    if not np.isfinite(tolerance):
        raise ContractViolation(f"tolerance must be finite, got {tolerance}")
    config = trajectory.config
    if params != config.params:
        raise ContractViolation(f"params {params} are not the trajectory's {config.params}")
    grid = trajectory.grid
    if pair.grid != grid:
        raise ContractViolation("test pair and trajectory live on different grids")
    if mode == "maxwell" and params.mu <= 0:
        raise ContractViolation("maxwell mode requires mu > 0")
    if mode == "euler-alpha" and pair.has_stress:
        raise ContractViolation("euler-alpha mode does not admit a stress part")
    a_u, a_s = (2.0 * params.mu, 1.0) if mode == "maxwell" else (1.0, 0.0)

    def form(du, dsigma):
        value = a_u * du.alpha_norm_sq(params.alpha)
        if a_s:
            value += a_s * dsigma.l2_norm_sq()
        return value

    snaps = trajectory.snapshots
    times = trajectory.times
    n = len(snaps)
    lhs = np.empty(n)
    weights = np.zeros(n)  # the zero pair's weight and source stay 0
    source = np.zeros(n)
    for i, snap in enumerate(snaps):
        sample = pair.at(snap.t)
        du = snap.u - sample.z
        dsigma = snap.sigma - sample.theta if a_s else None
        lhs[i] = form(du, dsigma)
        if pair.is_zero:
            continue
        try:
            with np.errstate(over="raise", invalid="raise"):
                weights[i] = gronwall_weight(sample, params, gamma_const)
                r_u = momentum_residual(sample, config)
                pairing = a_u * sp.l2_inner(grid, r_u.hat, du.hat)
                if a_s:
                    pairing += a_s * stress_residual(sample, config).l2_inner(dsigma)
        except FloatingPointError as exc:
            raise ContractViolation(
                f"the test pair overflows at time t={snap.t:g}: {exc}") from None
        source[i] = 2.0 * pairing

    if initial_data is None:
        f0 = lhs[0]
        energy_scale = form(snaps[0].u, snaps[0].sigma)
    else:
        a, sigma0 = initial_data
        sample = pair.at(times[0])
        f0 = form(a - sample.z, sigma0 - sample.theta if a_s else None)
        energy_scale = form(a, sigma0)

    try:
        rhs = exponential_bound(times, f0, weights, source)
    except ContractViolation as exc:  # the weight is linear in gamma
        raise ContractViolation(f"gamma {gamma_const:g} is too large: {exc}") from None
    return DissipativeReport(times=times, lhs=lhs, rhs=rhs,
                             gamma_used=gamma_const, tolerance=tolerance,
                             mode=mode, energy_scale=energy_scale)


def dissipative_estimate_margin(trajectory: Trajectory, params: PhysicalParams,
                                mode: str = "maxwell",
                                tolerance: float = 1e-10) -> DissipativeReport:
    """The inequality with the zero test pair: E(t) <= E(0)."""
    pair = TestPair.zero(trajectory.grid)
    return inequality_margin(trajectory, pair, params, gamma_const=1.0,
                             mode=mode, tolerance=tolerance)


def calibrate_gamma(grid: Grid, samples: int = 100, seed: int = 0,
                    safety_factor: float = 2.0) -> float:
    """Numeric surrogate for the domain constant of the weight Gamma.

    Measures the product-estimate ratios |fg| / (|f|_2 |g|) and
    |fg| / (|f|_1 |g|_1) over random scalar field pairs (a constant pair
    and a spectrally flat "peaked" pair are always included), and
    returns safety_factor * 2 * max ratio -- the factor 2 dominates the
    worst coefficient produced when the transport estimates are folded
    into the weight.  Any overestimate keeps the inequality valid.
    """
    if samples < 50:
        raise ContractViolation(f"need at least 50 samples, got {samples}")
    if not safety_factor > 0:
        raise ContractViolation(f"safety factor must be positive, got {safety_factor}")
    rng = np.random.default_rng(seed)
    ratio_h2_l2 = 0.0
    ratio_h1_h1 = 0.0

    def probe(f_hat, g_hat):
        nonlocal ratio_h2_l2, ratio_h1_h1
        f_vals = sp.to_real(grid, f_hat)
        g_vals = sp.to_real(grid, g_hat)
        prod_hat = sp.dealias(grid, sp.to_spectral(grid, f_vals * g_vals))
        prod_norm = sp.sobolev_norm(grid, prod_hat)
        f_l2 = sp.sobolev_norm(grid, f_hat)
        f_h1 = sp.sobolev_norm(grid, f_hat, 1.0)
        f_h2 = sp.sobolev_norm(grid, f_hat, 2.0)
        g_l2 = sp.sobolev_norm(grid, g_hat)
        g_h1 = sp.sobolev_norm(grid, g_hat, 1.0)
        if f_h2 * g_l2 > 0:
            ratio_h2_l2 = max(ratio_h2_l2, prod_norm / (f_h2 * g_l2))
        if f_h1 * g_h1 > 0:
            ratio_h1_h1 = max(ratio_h1_h1, prod_norm / (f_h1 * g_h1))

    constant = np.zeros(grid.spectral_shape, dtype=complex)
    constant[(0,) * grid.dim] = grid.size
    probe(constant, constant)

    peaked = grid.dealias_mask.astype(complex)  # discrete bump: all modes equal
    probe(peaked, peaked)

    for i in range(samples):
        f = random_stress(grid, seed=seed + 2 * i + 17, spectrum_decay=2.0).hat[0]
        g = random_stress(grid, seed=seed + 2 * i + 18, spectrum_decay=2.0).hat[0]
        probe(f, g)

    return safety_factor * 2.0 * max(ratio_h2_l2, ratio_h1_h1)


@dataclass
class SweepEntry:
    alpha: float
    initial_energy: float
    sup_energy: float
    bound_ok: bool
    speed_cap_ok: bool
    times: np.ndarray = field(default_factory=lambda: np.array([]))
    energy: np.ndarray = field(default_factory=lambda: np.array([]))
    h_norm: np.ndarray = field(default_factory=lambda: np.array([]))
    blowup: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "initial_energy": float(self.initial_energy),
            "sup_energy": float(self.sup_energy),
            "bound_ok": bool(self.bound_ok),
            "speed_cap_ok": bool(self.speed_cap_ok),
            "t": [float(t) for t in self.times],
            "energy": [float(e) for e in self.energy],
            "h_norm": [float(h) for h in self.h_norm],
            "blowup": self.blowup,
        }


@dataclass
class SweepReport:
    entries: list[SweepEntry]
    slack: float = 1e-8

    @property
    def all_ok(self) -> bool:
        return all(e.blowup is None and e.bound_ok and e.speed_cap_ok
                   for e in self.entries)

    def to_json_dict(self) -> dict:
        return {"pass": bool(self.all_ok), "slack": float(self.slack),
                "entries": [e.to_json_dict() for e in self.entries]}


def _sweep_one(config: SimConfig, slack: float) -> SweepEntry:
    params = config.params
    try:
        traj = run(config)
    except IntegrationBlowup as exc:
        return SweepEntry(alpha=config.alpha, initial_energy=float("nan"),
                          sup_energy=float("nan"), bound_ok=False,
                          speed_cap_ok=False, blowup=str(exc))
    energy = traj.diag["energy"]
    e0 = float(energy[0])
    sup_e = float(np.max(energy))
    # the energy caps |u(t)| in L2 uniformly in alpha: 2 mu |u|^2 <= E(0)
    h_norm = np.sqrt(np.array([s.u.h_norm_sq(0.0) for s in traj.snapshots]))
    if params.mu > 0:
        cap = np.sqrt(e0 / (2.0 * params.mu))
        speed_cap_ok = bool(np.all(h_norm <= cap * (1.0 + 1e-8)))
    else:
        speed_cap_ok = True
    return SweepEntry(
        alpha=config.alpha,
        initial_energy=e0,
        sup_energy=sup_e,
        bound_ok=bool(sup_e <= e0 * (1.0 + slack) + MARGIN_FLOOR),
        speed_cap_ok=speed_cap_ok,
        times=traj.times,
        energy=traj.energies,
        h_norm=h_norm,
    )


def alpha_sweep(base_config: SimConfig, alphas, workers: int = 1,
                slack: float = 1e-8) -> SweepReport:
    """Rerun the base configuration across filter lengths.

    Checks the alpha-uniform energy bound sup_t E(t) <= E(0) (1 + slack)
    per run and collects the L2 velocity norm series as boundedness
    evidence.  Individual blowups are recorded and the sweep continues.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ContractViolation("the sweep needs at least one alpha")
    if any(a <= 0 for a in alphas):
        raise ContractViolation("all alpha values must be positive")
    configs = [replace(base_config, alpha=a) for a in alphas]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_sweep_one, configs, [slack] * len(configs)))
    else:
        entries = [_sweep_one(cfg, slack) for cfg in configs]
    return SweepReport(entries=entries, slack=slack)
