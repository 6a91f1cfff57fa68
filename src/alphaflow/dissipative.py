"""Numerical checks of the dissipative-solution inequality.

``inequality_margin`` compares a solver trajectory against a smooth test
pair: the weighted-distance left-hand side versus the exponential
Gronwall right-hand side built from the pair's equation residuals.  A
zero test pair reduces the check, number for number, to the dissipative
energy estimate.  The residuals are evaluated once, at the pair's 2p+1
Chebyshev times, and paired with each snapshot's distance to the pair
there; the barycentric formula carries the pairings to the snapshot
times.  The snapshots are checked in chunks of consecutive times, with
the numbers a check of each time alone would give, and every array a
check needs comes from one workspace.  A report also says how sharp the
check was (:meth:`DissipativeReport.sharpness`).

These checks sample finitely many times and test pairs: a report says
"no violation found", never "verified".
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral as sp
from .errors import BoundOverflow, ContractViolation, IntegrationBlowup
from .fields import PhysicalParams, StressField, VelocityField, random_stress
from .gronwall import MarginReport, _cumulative_trapezoid, exponential_bound
from .operators import TestPair, gronwall_weight
from .solver import SimConfig, Trajectory, run
from .spectral import Grid

MARGIN_FLOOR = 1e-12
DEFAULT_TOLERANCE = 1e-6
#: relative slack of the alpha sweep's energy bound sup_t E(t) <= E(0) (1 + slack)
SWEEP_SLACK = 1e-8
#: bytes of one real-space component over a chunk of snapshot times; the
#: checker's temporaries are a few dozen such arrays
CHUNK_BYTES = 256 * 1024


def chunk_length(grid: Grid) -> int:
    """Snapshot times per checker chunk: 8 at 2D n=64, 2 at 2D n=128, 1 at 3D n=32."""
    return max(1, CHUNK_BYTES // (8 * grid.size))


@dataclass
class DissipativeReport(MarginReport):
    """Per-time margin of the dissipative inequality for one test pair.

    Besides the verdict it reports how sharp the check was; these
    figures only report and move no gate.  ``headroom`` is the largest
    lhs / rhs over the times after the first (t > 0 for a run from
    t = 0) where rhs > 0, and ``headroom_t`` the first time it is
    reached; ``weight_integral`` is the trapezoid integral of the
    Gronwall weight over the run; ``lhs_max_over_threshold`` is the
    largest lhs over the pass threshold's magnitude
    ``tolerance * max(energy_scale, MARGIN_FLOOR)``, which says whether
    the tolerance or the inequality decided the verdict.  A figure with
    no defined or finite value is ``None``.
    """

    gamma_used: float
    tolerance: float
    mode: str
    energy_scale: float  # solution energy at t = 0, in the mode's quadratic form
    weight: np.ndarray  # the Gronwall weight at each time; 0 for the zero pair

    @property
    def threshold(self) -> float:
        return self.tolerance * max(self.energy_scale, MARGIN_FLOOR)

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.threshold

    def sharpness(self) -> dict:
        """headroom, headroom_t, rhs_min, weight_integral and lhs_max_over_threshold."""
        later = (self.times > self.times[0]) & (self.rhs > 0)
        headroom = headroom_t = None
        if np.any(later):
            with np.errstate(over="ignore"):
                ratios = self.lhs[later] / self.rhs[later]
            peak = int(np.argmax(ratios))
            headroom, headroom_t = _finite(ratios[peak]), float(self.times[later][peak])
        with np.errstate(over="ignore"):
            over = np.max(self.lhs) / self.threshold if self.threshold else None
        return {
            "headroom": headroom,
            "headroom_t": headroom_t,
            "rhs_min": float(np.min(self.rhs)),
            "weight_integral": float(_cumulative_trapezoid(self.weight, self.times)[-1]),
            "lhs_max_over_threshold": None if over is None else _finite(over),
        }

    def to_json_dict(self) -> dict:
        return {
            "t": [float(t) for t in self.times],
            "lhs": [float(x) for x in self.lhs],
            "rhs": [float(x) for x in self.rhs],
            "margin": [float(x) for x in self.margin],
            "gamma": float(self.gamma_used),
            "min_margin": float(self.min_margin),
            "pass": bool(self.passed),
            **self.sharpness(),
        }


def _finite(x) -> float | None:
    return float(x) if np.isfinite(x) else None


def inequality_margin(trajectory: Trajectory, pair: TestPair,
                      params: PhysicalParams, gamma_const: float,
                      mode: str = "maxwell",
                      tolerance: float = DEFAULT_TOLERANCE) -> DissipativeReport:
    """Evaluate the dissipative inequality along a trajectory.

    Both models measure the distance in one quadratic form,
    a_u |u - z|_V^2 + a_s |sigma - th|^2, paired with the residuals as
    2 (a_u (R_u, u - z) + a_s (R_s, sigma - th)).  The mode fixes the
    weights: (a_u, a_s) = (2 mu, 1) for maxwell and (1, 0) for the
    Euler-alpha variant, which never reads a stress.  The residuals are
    those of the system the trajectory's config integrated, whose params
    ``params`` must be.  The first snapshot is the run's initial data:
    the right-hand side starts from its distance to the pair.

    The residuals are evaluated once, at the 2p+1 Chebyshev times of
    [t_0, t_N] (``TestPair.residuals``, p the pair's degree in t),
    calling each once per :func:`chunk_length` of those times; R_s only
    where a_s is nonzero.  They are held weighted for this form, so the
    source at a snapshot is the barycentric sum of the nodes' pairings
    with its distance (``PairResiduals.source``); no residual field is
    formed at the snapshots.  The snapshots are then checked in chunks
    of consecutive times: per chunk they are copied into the check's one
    workspace, the pair's values at the chunk's times
    (``TestPair.values_at``) are subtracted in place, and the distance,
    the weight and the source follow; every time gets the numbers a
    check of that time alone would give.  The node stage fills the
    workspace and every chunk reuses it, so a check allocates nothing
    large per chunk.  The zero pair's weight and residuals are zero, so
    it forms no pair values, weight or source.  A weight or residual
    that overflows raises ContractViolation naming the first snapshot
    time that overflows (for residuals that overflow only between
    snapshots, the first such Chebyshev time); a bound that overflows
    raises one naming gamma, max(1, 1/alpha^2) and alpha.
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

    work = sp.Workspace()

    def form(du, dsigma):
        value = a_u * du.alpha_norm_sq(params.alpha, work)
        if a_s:
            value += a_s * dsigma.l2_norm_sq(work)
        return value

    snaps = trajectory.snapshots
    times = trajectory.times
    step = chunk_length(grid)
    # the zero pair's weight and residuals are zero
    residuals = None if pair.is_zero else pair.residuals(config, times, step, (a_u, a_s),
                                                         work)

    def stacked(name, part, field):
        """The chunk's snapshots of ``field``, ``(C, T, *band)``, in ``work``'s buffer."""
        first = getattr(snaps[0], field).hat
        stack = work.take(name, first.shape[:1] + (part.stop - part.start,) + first.shape[1:],
                          complex)
        for i, snap in enumerate(snaps[part]):
            stack[:, i] = getattr(snap, field).hat
        return stack

    def terms(part: slice):
        """lhs, weight and source at the snapshots ``part``, one entry per time."""
        du = VelocityField.wrap(grid, stacked("check.u", part, "u"))
        dsigma = StressField(grid, stacked("check.sigma", part, "sigma")) if a_s else None
        if residuals is None:
            return form(du, dsigma), 0.0, 0.0
        sample = pair.values_at(times[part], work)
        du.hat -= sample.z.hat
        if a_s:
            dsigma.hat -= sample.theta.hat
        lhs = form(du, dsigma)
        with np.errstate(over="raise", invalid="raise"):
            weight = gronwall_weight(sample, params, gamma_const, work)
            source = residuals.source(times[part], du.hat,
                                      dsigma.hat if a_s else None, work)
        return lhs, weight, source

    n = len(snaps)
    lhs, weights, source = np.empty(n), np.empty(n), np.empty(n)
    for start in range(0, n, step):
        part = slice(start, min(start + step, n))
        try:
            lhs[part], weights[part], source[part] = terms(part)
        except FloatingPointError:
            for i in range(part.start, part.stop):  # find the first time that overflows
                try:
                    terms(slice(i, i + 1))
                except FloatingPointError as exc:
                    raise ContractViolation(
                        f"the test pair overflows at time t={times[i]:g}: {exc}") from None
            raise

    energy_scale = form(snaps[0].u, snaps[0].sigma)
    try:
        rhs = exponential_bound(times, lhs[0], weights, source)
    except BoundOverflow as exc:
        raise ContractViolation(
            f"the weight gamma * max(1, 1/alpha^2) * (the pair's norms) is too large, "
            f"with gamma {gamma_const:g}, max(1, 1/alpha^2) = "
            f"{max(1.0, 1.0 / params.alpha**2):g} and alpha {params.alpha:g}: {exc}") from None
    return DissipativeReport(times=times, lhs=lhs, rhs=rhs,
                             gamma_used=gamma_const, tolerance=tolerance,
                             mode=mode, energy_scale=energy_scale, weight=weights)


def calibrate_gamma(grid: Grid, samples: int = 100, seed: int = 0,
                    safety_factor: float = 2.0) -> float:
    """Numeric surrogate for the domain constant of the weight Gamma.

    Measures the product-estimate ratios |fg| / (|f|_2 |g|) and
    |fg| / (|f|_1 |g|_1) over random scalar field pairs (a constant pair
    and a spectrally flat "peaked" pair are always included), and
    returns safety_factor * 2 * max ratio -- the factor 2 dominates the
    worst coefficient produced when the transport estimates are folded
    into the weight.  Any overestimate keeps the inequality valid, but
    this is an estimate, not a bound: at 3D n=32 the band's H^2
    representer of evaluation at 0 times a Fejer bump has ratio 0.167,
    2.6x the probes' maximum, which the default safety factor 2 does
    not cover.  ``safety_factor`` must be positive and finite.
    """
    if samples < 50:
        raise ContractViolation(f"need at least 50 samples, got {samples}")
    if not 0.0 < safety_factor < np.inf:
        raise ContractViolation(
            f"safety factor must be positive and finite, got {safety_factor}")
    rng = np.random.default_rng(seed)
    ratio_h2_l2 = 0.0
    ratio_h1_h1 = 0.0

    def probe(f_hat, g_hat):
        nonlocal ratio_h2_l2, ratio_h1_h1
        f_vals = sp.to_real(grid, f_hat)
        g_vals = sp.to_real(grid, g_hat)
        prod_hat = sp.to_spectral(grid, f_vals * g_vals)
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

    peaked = np.ones(grid.spectral_shape, dtype=complex)  # discrete bump: all modes equal
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
        blown = self.blowup is not None  # a blown-up run has no energies: null
        return {
            "alpha": float(self.alpha),
            "initial_energy": None if blown else float(self.initial_energy),
            "sup_energy": None if blown else float(self.sup_energy),
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

    @property
    def all_ok(self) -> bool:
        return all(e.blowup is None and e.bound_ok and e.speed_cap_ok
                   for e in self.entries)

    def to_json_dict(self) -> dict:
        return {"pass": bool(self.all_ok), "slack": SWEEP_SLACK,
                "entries": [e.to_json_dict() for e in self.entries]}


def _sweep_one(config: SimConfig) -> SweepEntry:
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
        bound_ok=bool(sup_e <= e0 * (1.0 + SWEEP_SLACK) + MARGIN_FLOOR),
        speed_cap_ok=speed_cap_ok,
        times=traj.times,
        energy=traj.energies,
        h_norm=h_norm,
    )


def alpha_sweep(base_config: SimConfig, alphas, workers: int = 1) -> SweepReport:
    """Rerun the base configuration across filter lengths.

    Checks the alpha-uniform energy bound sup_t E(t) <= E(0) (1 + SWEEP_SLACK)
    per run and collects the L2 velocity norm series as boundedness
    evidence.  Individual blowups are recorded and the sweep continues.
    Each alpha goes through ``SimConfig``, so one outside
    ``spectral.check_alpha``'s range raises ConfigurationError.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ContractViolation("the sweep needs at least one alpha")
    configs = [replace(base_config, alpha=a) for a in alphas]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_sweep_one, configs))
    else:
        entries = [_sweep_one(cfg) for cfg in configs]
    return SweepReport(entries=entries)
