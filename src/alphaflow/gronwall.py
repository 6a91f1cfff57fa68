"""Gronwall-type comparison bounds on sampled time series.

Given samples of nonnegative weights L and a source M on a time grid,
the bound

    B(t) = exp(int_0^t L) * [ f(0) + int_0^t exp(-int_0^s L) M(s) ds ]

dominates any absolutely continuous f with f' + chi <= L f + M,
chi >= 0: f(t) + int_0^t chi <= B(t).  All nested integrals are
trapezoidal on the sample grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

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


def _as_series(name, x, n) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ContractViolation(f"{name} must have {n} samples, got shape {arr.shape}")
    return arr


@dataclass
class GronwallInput:
    """Sampled hypotheses of the comparison lemma.

    ``chi`` and ``L`` must be nonnegative pointwise; ``M`` is
    unconstrained.  Scalars broadcast to the whole grid.
    """

    times: np.ndarray
    f: np.ndarray
    chi: np.ndarray
    L: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ContractViolation("need at least two sample times")
        if np.any(np.diff(self.times) <= 0):
            raise ContractViolation("sample times must be strictly increasing")
        n = self.times.size
        self.f = _as_series("f", self.f, n)
        self.chi = _as_series("chi", self.chi, n)
        self.L = _as_series("L", self.L, n)
        self.M = _as_series("M", self.M, n)
        if np.any(self.chi < 0):
            raise ContractViolation("chi must be nonnegative")
        if np.any(self.L < 0):
            raise ContractViolation("L must be nonnegative")


def exponential_bound(times: np.ndarray, f0: float, L: np.ndarray,
                      M: np.ndarray) -> np.ndarray:
    """The bound series B(t) on the given sample grid.

    Raises ContractViolation when exp(int L) overflows: the bound is then
    not representable (inf, or NaN where f0 + inner is 0).
    """
    times = np.asarray(times, dtype=float)
    L = np.asarray(L, dtype=float)
    M = np.asarray(M, dtype=float)
    integral_L = _cumulative_trapezoid(L, times)
    peak = np.max(integral_L)
    if peak > _MAX_EXPONENT:
        raise ContractViolation(f"the weight integrates to {peak:.6g}, and exp of more "
                                f"than {_MAX_EXPONENT:.1f} overflows")
    weighted = np.exp(-integral_L) * M
    inner = _cumulative_trapezoid(weighted, times)
    return np.exp(integral_L) * (f0 + inner)


def gronwall_bound(data: GronwallInput) -> np.ndarray:
    """Evaluate the lemma's right-hand side on the sample grid."""
    return exponential_bound(data.times, float(data.f[0]), data.L, data.M)


def gronwall_check(data: GronwallInput, rtol: float = 1e-9) -> tuple[np.ndarray, bool]:
    """Bound series plus whether f + int chi stays below it.

    The comparison allows slack proportional to the bound's own scale to
    absorb quadrature roundoff.
    """
    bound = gronwall_bound(data)
    absorbed = data.f + _cumulative_trapezoid(data.chi, data.times)
    scale = np.max(np.abs(bound)) + np.max(np.abs(data.f)) + 1e-300
    ok = bool(np.all(absorbed <= bound + rtol * scale))
    return bound, ok


def random_step_series(times: np.ndarray, rng, n_jumps: int = 8,
                       high: float = 2.0) -> np.ndarray:
    """Nonnegative step function sampled on the grid, jumps at grid nodes."""
    values = rng.uniform(0.0, high, n_jumps + 1)
    edges = np.sort(rng.choice(times.size - 2, size=n_jumps, replace=False) + 1)
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
