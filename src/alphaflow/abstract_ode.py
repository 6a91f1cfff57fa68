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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, IntegrationBlowup
from .gronwall import MarginReport, exponential_bound


@dataclass
class OdeProblem:
    """A Cauchy problem u' = F(t, u), u(0) = a, on [0, horizon].

    ``one_sided_bound`` is the locally bounded d(t, y) above.  When F
    splits into a dissipative linear part plus a bilinear part with norm
    bound c(t) |x| |y|, pass ``bilinear_bound`` = c and derive d via
    :func:`one_sided_bound_from_decomposition`.

    The callables broadcast over leading axes: with ``t`` of shape ``S``
    and a state of shape ``S + (dimension,)``, ``rhs`` returns
    ``S + (dimension,)`` and ``one_sided_bound`` returns ``S`` or a
    scalar.  Test curves ``v(t)`` and ``v'(t)`` return ``S +
    (dimension,)``.  :func:`integrate` calls with ``S = ()``; the margin
    and a-priori checks make one call over the whole time grid.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    one_sided_bound: Callable[[float, np.ndarray], float]
    initial: np.ndarray
    horizon: float
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


@dataclass
class OdePath:
    times: np.ndarray
    states: np.ndarray  # (n_times, dimension)

    def norm_sq(self) -> np.ndarray:
        return _row_dot(self.states, self.states)


def integrate(problem: OdeProblem, rhs=None, dt: float = 1e-3) -> OdePath:
    """Classical fixed-step RK4 on [0, horizon].

    ``rhs`` defaults to the problem's own right-hand side; pass a
    mollified member to integrate an approximation.  It is called with a
    float time and a fresh float64 ``(dimension,)`` state and must
    return a numpy array of shape ``(dimension,)``; every stage of every
    step is checked for that, and anything else raises
    ``ContractViolation``.  Slopes are read as float64, so a float32
    slope enters the stage sums in double precision.

    The stage arithmetic runs on Python floats, one component at a time,
    in the textbook operation order, so each state is the one a numpy
    array loop would give, bit for bit.  This removes numpy's per-call
    overhead on tiny arrays, but the cost per step grows with the
    dimension: on a 2-core Xeon, 6.8, 9.7, 12.8 and 33 us at d = 2, 8,
    16 and 64, where an array loop takes 8.7 to 9.3 us at every d.  The
    package's own problems all have d <= 2.
    """
    f = rhs if rhs is not None else problem.rhs
    n_steps = int(round(problem.horizon / dt))
    if abs(n_steps * dt - problem.horizon) > 1e-9 * problem.horizon:
        n_steps = int(np.ceil(problem.horizon / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, problem.dimension))
    states[0] = problem.initial
    shape = (problem.dimension,)
    x = problem.initial.tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    grid = times.tolist()
    for i, t in enumerate(grid[:-1]):
        k1 = _slope(f(t, np.array(x)), i, 1, shape)
        k2 = _slope(f(t + half, np.array([a + half * b for a, b in zip(x, k1)])),
                    i, 2, shape)
        k3 = _slope(f(t + half, np.array([a + half * b for a, b in zip(x, k2)])),
                    i, 3, shape)
        k4 = _slope(f(t + dt, np.array([a + dt * b for a, b in zip(x, k3)])),
                    i, 4, shape)
        x = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
             for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, x)):
            raise IntegrationBlowup(grid[i + 1], i + 1, "non-finite state in RK4 path")
        states[i + 1] = x
    return OdePath(times=times, states=states)


def _slope(k, step: int, stage: int, shape: tuple) -> list:
    """The RK4 stage slope ``k`` as Python floats, once its shape is checked."""
    if not isinstance(k, np.ndarray) or k.shape != shape:
        got = (f"shape {k.shape}" if isinstance(k, np.ndarray) else
               f"a {type(k).__name__} of shape {np.asarray(k, dtype=object).shape}, "
               "not a numpy array,")
        raise ContractViolation(
            f"rhs returned {got} at step {step}, stage {stage}, "
            f"for a state of shape {shape}")
    return k.tolist()


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sum(a * b, axis=1)`` for a short second axis, summed column by column.

    Below 8 terms numpy sums each row from left to right, so the values
    are the same bit for bit; accumulating whole columns skips the
    per-row reduction loop.
    """
    out = a[:, 0] * b[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * b[:, j]
    return out


def _on_grid(name: str, fn, times: np.ndarray, *states: np.ndarray,
             tail: tuple = ()) -> np.ndarray:
    """``fn(times, *states)`` as one call over the whole time grid.

    The result is broadcast to ``times.shape + tail``, then its first and
    last samples are held against single-point calls to 1e-12 relative,
    which catches a callable that reduces over the whole batch.
    """
    raw = np.asarray(fn(times, *states), dtype=float)
    try:
        out = np.broadcast_to(raw, times.shape + tail)
    except ValueError:
        raise ContractViolation(
            f"{name} returned shape {raw.shape} on a grid of {times.size} times; "
            f"expected {times.shape + tail} or a shape broadcasting to it"
        ) from None
    for i in sorted({0, times.size - 1}):
        point = np.broadcast_to(
            np.asarray(fn(float(times[i]), *(s[i] for s in states)), dtype=float),
            tail)
        gap = float(np.max(np.abs(out[i] - point), initial=0.0))
        if not gap <= 1e-12 * float(np.max(np.abs(point), initial=0.0)):
            raise ContractViolation(
                f"{name} evaluated over the time grid disagrees with a single-point "
                f"call at t={times[i]:.6g} (gap {gap:.3g}); it must act per time"
            )
    return out


def dissipative_margin(path: OdePath, curve, curve_rate,
                       problem: OdeProblem) -> MarginReport:
    """Margin of the abstract inequality for one smooth test curve.

    ``curve`` and ``curve_rate`` evaluate v(t) and its exact derivative.
    Every callable is called once with the whole time grid (shape
    ``(n_times,)``, states ``(n_times, dimension)``) and must act per
    time; see :func:`_on_grid`.
    """
    times = path.times
    tail = (problem.dimension,)
    v_all = _on_grid("curve", curve, times, tail=tail)
    dv_all = _on_grid("curve_rate", curve_rate, times, tail=tail)
    diff = path.states - v_all
    residual = -dv_all + _on_grid("rhs", problem.rhs, times, v_all, tail=tail)
    lhs = _row_dot(diff, diff)
    weights = 2.0 * _on_grid("one_sided_bound", problem.one_sided_bound, times, v_all)
    source = 2.0 * _row_dot(residual, diff)
    f0 = float(np.dot(problem.initial - v_all[0], problem.initial - v_all[0]))
    rhs = exponential_bound(times, f0, weights, source)
    return MarginReport(times=times, lhs=lhs, rhs=rhs)


def one_sided_bound_from_decomposition(problem: OdeProblem,
                                       n_samples: int = 200, seed: int = 0):
    """d(t, y) = 2 c(t) |y| for a dissipative linear + bilinear split.

    ``y`` may be one point or a batch of points stacked on leading axes;
    the norm is taken per point.  Requires ``problem.bilinear_bound`` and
    spot-checks (F(t,x), x) <= 0 before handing out the bound.
    """
    if problem.bilinear_bound is None:
        raise ContractViolation("problem carries no bilinear bound")
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


def apriori_bound(problem: OdeProblem, path: OdePath) -> np.ndarray:
    """The forcing-weighted exponential bound on |u(t)|^2 along the path.

    The bound uses weight 2 (d(s,0) + 1/4) and source 2 |F(s,0)|^2 in the
    comparison form, evaluated on the path's own time grid.
    """
    times = path.times
    origin = np.zeros((times.size, problem.dimension))
    weights = 2.0 * (_on_grid("one_sided_bound", problem.one_sided_bound,
                              times, origin) + 0.25)
    forcing = _on_grid("rhs", problem.rhs, times, origin, tail=(problem.dimension,))
    source = 2.0 * _row_dot(forcing, forcing)
    return exponential_bound(times, float(np.dot(problem.initial, problem.initial)),
                             weights, source)


def apriori_bound_holds(problem: OdeProblem, path: OdePath) -> bool:
    """Check |u(t)|^2 against :func:`apriori_bound`, with slack 1e-9 * max bound."""
    bound = apriori_bound(problem, path)
    actual = path.norm_sq()
    scale = np.max(bound) + 1e-300
    return bool(np.all(actual <= bound + 1e-9 * scale))


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


_ROTATE = np.array([-1.0, 1.0])


def rotation_problem(horizon: float = 10.0) -> OdeProblem:
    """u' = A u with skew-symmetric A: norm-preserving, d = 0."""

    def rhs(t, x):  # (-x2, x1), batched over leading axes
        return np.asarray(x, float)[..., ::-1] * _ROTATE

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
