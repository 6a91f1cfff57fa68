"""Dissipative solutions for Cauchy problems in finite dimensions.

A right-hand side F, possibly discontinuous, that satisfies the
one-sided condition

    (F(t,x) - F(t,y), x - y) <= d(t,y) |x - y|^2

admits a distance inequality against every smooth test curve v:

    |u(t) - v(t)|^2 <= exp(int 2 d(s, v(s)))
        * [ |a - v(0)|^2 + 2 int exp(-int 2 d) (E(s, v(s)), u - v) ds ]

with the curve residual E(t, v) = -v'(t) + F(t, v(t)).  This module
integrates mollified approximations of F and evaluates that inequality
and the associated a-priori bound along the discrete paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, IntegrationBlowup
from .gronwall import exponential_bound


@dataclass
class OdeProblem:
    """A Cauchy problem u' = F(t, u), u(0) = a, on [0, horizon].

    ``one_sided_bound`` is the locally bounded d(t, y) above.  When F
    splits into a linear part plus a bilinear part with norm bound
    c(t) |x| |y|, pass the pieces and derive d via
    :func:`one_sided_bound_from_decomposition`.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    one_sided_bound: Callable[[float, np.ndarray], float]
    initial: np.ndarray
    horizon: float
    linear_part: Callable[[float, np.ndarray], np.ndarray] | None = None
    bilinear_part: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    bilinear_bound: Callable[[float], float] | None = None

    def __post_init__(self):
        self.initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if self.initial.shape != (self.dimension,):
            raise ContractViolation(
                f"initial point must have dimension {self.dimension}"
            )
        if self.horizon <= 0:
            raise ContractViolation("horizon must be positive")

    def check_one_sided(self, n_triples: int = 200, seed: int = 0,
                        radius: float = 2.0, slack: float = 1e-9) -> None:
        """Spot-check the one-sided condition on random (t, x, y) triples."""
        rng = np.random.default_rng(seed)
        for _ in range(n_triples):
            t = float(rng.uniform(0.0, self.horizon))
            x = rng.uniform(-radius, radius, self.dimension)
            y = rng.uniform(-radius, radius, self.dimension)
            lhs = float(np.dot(self.rhs(t, x) - self.rhs(t, y), x - y))
            rhs = self.one_sided_bound(t, y) * float(np.dot(x - y, x - y))
            if lhs > rhs + slack * (1.0 + abs(rhs)):
                raise ContractViolation(
                    f"one-sided condition fails at t={t:.4g}: {lhs:.4g} > {rhs:.4g}"
                )


@dataclass
class MollifiedFamily:
    """Smooth approximations F_eps of a discontinuous right-hand side."""

    epsilons: Sequence[float]
    make: Callable[[float], Callable[[float, np.ndarray], np.ndarray]]

    def member(self, eps: float):
        return self.make(eps)

    def probe_divergence(self, exact_rhs, points) -> dict[float, float]:
        """sup |F_eps - F| over the probe set, per epsilon."""
        out = {}
        for eps in self.epsilons:
            rhs = self.make(eps)
            worst = 0.0
            for t, x in points:
                x = np.atleast_1d(np.asarray(x, float))
                worst = max(worst, float(np.linalg.norm(rhs(t, x) - exact_rhs(t, x))))
            out[eps] = worst
        return out

    def sampled_lipschitz(self, eps: float, radius: float = 2.0,
                          n_pairs: int = 200, seed: int = 0,
                          dimension: int = 1) -> float:
        """Finite Lipschitz estimate of F_eps on a ball (smoothness probe)."""
        rng = np.random.default_rng(seed)
        rhs = self.make(eps)
        worst = 0.0
        for _ in range(n_pairs):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-radius, radius, dimension)
            y = rng.uniform(-radius, radius, dimension)
            gap = float(np.linalg.norm(x - y))
            if gap < 1e-12:
                continue
            worst = max(worst, float(np.linalg.norm(rhs(t, x) - rhs(t, y))) / gap)
        return worst


@dataclass
class OdePath:
    times: np.ndarray
    states: np.ndarray  # (n_times, dimension)

    def norm_sq(self) -> np.ndarray:
        return np.sum(self.states**2, axis=1)


def integrate(problem: OdeProblem, rhs=None, dt: float = 1e-3) -> OdePath:
    """Classical fixed-step RK4 on [0, horizon].

    ``rhs`` defaults to the problem's own right-hand side; pass a
    mollified member to integrate an approximation.
    """
    f = rhs if rhs is not None else problem.rhs
    n_steps = int(round(problem.horizon / dt))
    if abs(n_steps * dt - problem.horizon) > 1e-9 * problem.horizon:
        n_steps = int(np.ceil(problem.horizon / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, problem.dimension))
    states[0] = problem.initial
    x = problem.initial.astype(float)
    for i in range(n_steps):
        t = times[i]
        k1 = np.asarray(f(t, x))
        k2 = np.asarray(f(t + 0.5 * dt, x + 0.5 * dt * k1))
        k3 = np.asarray(f(t + 0.5 * dt, x + 0.5 * dt * k2))
        k4 = np.asarray(f(t + dt, x + dt * k3))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise IntegrationBlowup(times[i + 1], i + 1,
                                    "non-finite state in RK4 path")
        states[i + 1] = x
    return OdePath(times=times, states=states)


@dataclass
class AbstractMarginReport:
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margin))


def _batched_series(fn, times: np.ndarray, dimension: int) -> np.ndarray:
    """Evaluate fn on the whole grid at once when it supports batching."""
    try:
        out = np.asarray(fn(times), dtype=float)
        if out.shape == (times.size, dimension):
            return out
    except Exception:
        pass
    return np.stack([np.atleast_1d(np.asarray(fn(float(t)), dtype=float))
                     for t in times])


def _batched_rhs(problem, times, v_all) -> np.ndarray:
    try:
        out = np.asarray(problem.rhs(times, v_all), dtype=float)
        if out.shape == v_all.shape:
            return out
    except Exception:
        pass
    return np.stack([
        np.atleast_1d(np.asarray(problem.rhs(float(t), v_all[i]), dtype=float))
        for i, t in enumerate(times)
    ])


def _batched_bound(problem, times, v_all) -> np.ndarray:
    try:
        out = np.asarray(problem.one_sided_bound(times, v_all), dtype=float)
        if out.ndim == 0:
            return np.full(times.size, float(out))
        if out.shape == (times.size,):
            return out
    except Exception:
        pass
    return np.array([float(problem.one_sided_bound(float(t), v_all[i]))
                     for i, t in enumerate(times)])


def dissipative_margin(path: OdePath, curve, curve_rate,
                       problem: OdeProblem) -> AbstractMarginReport:
    """Margin of the abstract inequality for one smooth test curve.

    ``curve`` and ``curve_rate`` evaluate v(t) and its exact derivative;
    implementations that accept the whole time array (returning
    (n_times, dimension)) are used batched, anything else is evaluated
    pointwise.
    """
    times = path.times
    v_all = _batched_series(curve, times, problem.dimension)
    dv_all = _batched_series(curve_rate, times, problem.dimension)
    diff = path.states - v_all
    residual = -dv_all + _batched_rhs(problem, times, v_all)
    lhs = np.sum(diff * diff, axis=1)
    weights = 2.0 * _batched_bound(problem, times, v_all)
    source = 2.0 * np.sum(residual * diff, axis=1)
    if np.any(weights < 0):
        raise ContractViolation("one-sided bound must be nonnegative along the curve")
    f0 = float(np.dot(problem.initial - v_all[0], problem.initial - v_all[0]))
    rhs = exponential_bound(times, f0, weights, source)
    return AbstractMarginReport(times=times, lhs=lhs, rhs=rhs)


def one_sided_bound_from_decomposition(problem: OdeProblem,
                                       n_samples: int = 200, seed: int = 0):
    """d(t, y) = 2 c(t) |y| for a dissipative linear + bilinear split.

    ``y`` may be one point or a batch of points stacked on leading axes;
    the norm is taken per point.  Requires the decomposition pieces and
    spot-checks (F(t,x), x) <= 0 before handing out the bound.
    """
    if problem.bilinear_part is None or problem.bilinear_bound is None:
        raise ContractViolation("problem carries no bilinear decomposition")
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        t = float(rng.uniform(0.0, problem.horizon))
        x = rng.uniform(-2.0, 2.0, problem.dimension)
        value = float(np.dot(problem.rhs(t, x), x))
        if value > 1e-9 * (1.0 + float(np.dot(x, x))):
            raise ContractViolation(
                f"(F(t,x), x) <= 0 fails at t={t:.4g}: {value:.4g}"
            )
    c = problem.bilinear_bound
    return lambda t, y: 2.0 * c(t) * np.linalg.norm(np.asarray(y, float), axis=-1)


def apriori_bound_holds(problem: OdeProblem, path: OdePath,
                        rtol: float = 1e-9) -> bool:
    """Check |u(t)|^2 against the forcing-weighted exponential bound.

    The bound uses weight 2 (d(s,0) + 1/4) and source 2 |F(s,0)|^2 in the
    comparison form, evaluated along the path's own time grid.
    """
    times = path.times
    weights = np.array([2.0 * (problem.one_sided_bound(t, np.zeros(problem.dimension))
                               + 0.25) for t in times])
    source = np.array([
        2.0 * float(np.sum(np.asarray(problem.rhs(t, np.zeros(problem.dimension)))**2))
        for t in times
    ])
    bound = exponential_bound(times, float(np.dot(problem.initial, problem.initial)),
                              weights, source)
    actual = path.norm_sq()
    scale = np.max(bound) + 1e-300
    return bool(np.all(actual <= bound + rtol * scale))


# -- demonstration problems -------------------------------------------------


def linear_decay_problem(dimension: int = 1, horizon: float = 5.0) -> OdeProblem:
    """u' = -u: contraction with d = 0."""
    return OdeProblem(
        dimension=dimension,
        rhs=lambda t, x: -np.asarray(x, float),
        one_sided_bound=lambda t, y: 0.0,
        initial=np.ones(dimension),
        horizon=horizon,
    )


def rotation_problem(horizon: float = 10.0) -> OdeProblem:
    """u' = A u with skew-symmetric A: norm-preserving, d = 0."""

    def rhs(t, x):  # (-x2, x1), batched over leading axes
        x = np.asarray(x, float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    return OdeProblem(
        dimension=2,
        rhs=rhs,
        one_sided_bound=lambda t, y: 0.0,
        initial=np.array([1.0, 0.0]),
        horizon=horizon,
    )


def affine_forced_problem(horizon: float = 5.0) -> OdeProblem:
    """u' = -u + sin t: exercises the forcing term of the a-priori bound."""

    def rhs(t, x):
        return -np.asarray(x, float) + np.sin(np.asarray(t, float))[..., None]

    return OdeProblem(
        dimension=1,
        rhs=rhs,
        one_sided_bound=lambda t, y: 0.0,
        initial=np.array([1.0]),
        horizon=horizon,
    )


def dry_friction_problem(horizon: float = 2.0) -> tuple[OdeProblem, MollifiedFamily]:
    """u' = -sgn(u), u(0) = 1: the discontinuous relay.

    The exact solution is max(0, 1 - t).  The mollified family replaces
    sgn with tanh(. / eps), whose paths have the stable closed form
    u_eps(t) = eps * asinh(sinh(1/eps) exp(-t/eps)).
    """
    problem = OdeProblem(
        dimension=1,
        rhs=lambda t, x: -np.sign(np.asarray(x, float)),
        one_sided_bound=lambda t, y: 0.0,
        initial=np.array([1.0]),
        horizon=horizon,
    )
    family = MollifiedFamily(
        epsilons=(1e-1, 1e-2, 1e-3),
        make=lambda eps: (lambda t, x: -np.tanh(np.asarray(x, float) / eps)),
    )
    return problem, family


def mollified_friction_exact(t, eps: float):
    """Closed form for u' = -tanh(u/eps), u(0) = 1, stable for tiny eps.

    sinh(u/eps) = sinh(1/eps) exp(-t/eps), so with
    s = log(sinh(1/eps)) - t/eps the solution is eps * asinh(exp(s));
    for large s the asinh is evaluated through its logarithmic form.
    """
    t = np.asarray(t, dtype=float)
    log_sinh = (1.0 / eps) + np.log1p(-np.exp(-2.0 / eps)) - np.log(2.0)
    s = log_sinh - t / eps
    large = s > 30.0
    out = np.empty_like(s)
    out[large] = eps * (s[large] + np.log(2.0))
    out[~large] = eps * np.arcsinh(np.exp(s[~large]))
    return out
