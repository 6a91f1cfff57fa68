"""Gronwall-type comparison bounds on sampled time series.

Given samples of nonnegative weights L and a source M on a time grid,
the bound

    B(t) = exp(int_0^t L) * [ f(0) + int_0^t exp(-int_0^s L) M(s) ds ]

dominates any absolutely continuous f with f' + chi <= L f + M,
chi >= 0: f(t) + int_0^t chi <= B(t).  All nested integrals are
trapezoidal on the sample grid.  :func:`exponential_bound` is the one
entry point to the lemma, and a :class:`MarginReport` holds a sampled
``lhs`` against the bound it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundOverflow, ContractViolation

#: the largest x whose exp(x) is a finite double
_MAX_EXPONENT = float(np.log(np.finfo(float).max))


def _cumulative_trapezoid(y, x) -> np.ndarray:
    """Running trapezoidal integral of ``y`` over ``x``, starting at 0.

    Same values, bit for bit, as ``scipy.integrate.cumulative_trapezoid(y,
    x, initial=0.0)``, without importing scipy.
    """
    y = np.asarray(y, dtype=float)
    steps = np.diff(np.asarray(x, dtype=float)) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


@dataclass
class MarginReport:
    """A sampled quantity ``lhs`` against its bound ``rhs`` at each time."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margin))


def exponential_bound(times: np.ndarray, f0: float, L: np.ndarray,
                      M: np.ndarray) -> np.ndarray:
    """The bound series B(t) on the given sample grid.

    Checks the lemma's sampled hypotheses: ``times`` is 1-D and strictly
    increasing, ``L`` and ``M`` hold one sample per time, and ``L >= 0``.
    A single sample is a valid grid, on which B = f0.  Raises
    ContractViolation when a hypothesis fails, and BoundOverflow when
    exp(int L) overflows: the bound is then not representable (inf, or
    NaN where f0 + inner is 0).
    """
    times = np.asarray(times, dtype=float)
    L = np.asarray(L, dtype=float)
    M = np.asarray(M, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ContractViolation(
            f"times must be a nonempty 1-D series, got shape {times.shape}")
    if not np.all(np.diff(times) > 0):
        raise ContractViolation("sample times must be strictly increasing")
    for name, series in (("L", L), ("M", M)):
        if series.shape != times.shape:
            raise ContractViolation(
                f"{name} must have {times.size} samples, got shape {series.shape}")
    if not np.all(L >= 0):
        raise ContractViolation("the weight L must be nonnegative")
    integral_L = _cumulative_trapezoid(L, times)
    peak = np.max(integral_L)
    if peak > _MAX_EXPONENT:
        raise BoundOverflow(f"the weight integrates to {peak:.6g}, and exp of more "
                            f"than {_MAX_EXPONENT:.1f} overflows")
    weighted = np.exp(-integral_L) * M
    inner = _cumulative_trapezoid(weighted, times)
    return np.exp(integral_L) * (f0 + inner)


def random_step_series(times: np.ndarray, rng) -> np.ndarray:
    """Step function with values in [0, 2) sampled on the grid, 8 jumps at grid nodes."""
    values = rng.uniform(0.0, 2.0, 9)
    edges = np.sort(rng.choice(times.size - 2, size=8, replace=False) + 1)
    out = np.empty(times.size)
    start = 0
    for level, edge in zip(values, np.append(edges, times.size)):
        out[start:edge] = level
        start = edge
    return out


def selftest(samples: int = 10_000, seed: int = 0) -> dict[str, float]:
    """Max relative errors of the bound on closed-form and random inputs.

    The random case compares against a tightly-integrated solution of
    the comparison equation g' = L g + M (the bound saturates it), with
    L and M read as the piecewise-linear interpolants of the samples.
    """
    if samples < 10:  # the random series jump at 8 interior nodes
        raise ContractViolation(f"the self-test needs at least 10 samples, got {samples}")
    from scipy.integrate import solve_ivp

    times = np.linspace(0.0, 1.0, samples)
    errors = {}

    bound = exponential_bound(times, 2.0, np.zeros(samples), np.zeros(samples))
    errors["constant"] = float(np.max(np.abs(bound - 2.0)) / 2.0)

    bound = exponential_bound(times, 3.0, np.ones(samples), np.zeros(samples))
    exact = 3.0 * np.exp(times)
    errors["exponential"] = float(np.max(np.abs(bound - exact) / exact))

    rng = np.random.default_rng(seed)
    L = random_step_series(times, rng)
    M = random_step_series(times, rng)
    f0 = 1.0
    bound = exponential_bound(times, f0, L, M)

    def rhs(t, g):
        return np.interp(t, times, L) * g + np.interp(t, times, M)

    sol = solve_ivp(rhs, (times[0], times[-1]), [f0], t_eval=times,
                    rtol=1e-10, atol=1e-12, max_step=float(times[1] - times[0]))
    reference = sol.y[0]
    errors["random"] = float(np.max(np.abs(bound - reference)
                                    / np.maximum(np.abs(reference), 1e-300)))
    return errors
