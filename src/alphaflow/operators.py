"""Composite operators of the alpha model.

Defines the nonlinear kernels (transport, filtered transport, the
corotational commutator, the stress divergence); from them, once, the
right-hand side F of the integrated system (:func:`momentum_rhs`,
:func:`stress_rhs`, :func:`linear_decay`) that the stepper advances and
the test-pair residuals F(H z, theta) - (H z', theta') evaluate; the
checker's Gronwall weight; and the energy law's cancellation identities.
Every nonlinear product is formed in real space from dealiased factors
and dealiased again, so the trilinear identities hold to roundoff.
"""

from __future__ import annotations

import json
from math import comb
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import spectral as sp
from .errors import ContractViolation
from .fields import (
    PhysicalParams,
    SpinField,
    StressField,
    VelocityField,
    strain,
    strict_upper_indices,
    upper_indices,
    vorticity,
)
from .spectral import Grid

if TYPE_CHECKING:
    from .solver import SimConfig


def _transport_values(u: VelocityField, q_hat: np.ndarray) -> np.ndarray:
    """sum_i u_i d q / dx_i in real space, in ``q_hat``'s component layout."""
    grid = u.grid
    out = sp.to_real(grid, sp.spectral_derivative(grid, q_hat, 0))
    out *= u.values[0]
    for a in range(1, grid.dim):
        term = sp.to_real(grid, sp.spectral_derivative(grid, q_hat, a))
        term *= u.values[a]
        out += term
    return out


def advect(u: VelocityField, q_hat: np.ndarray) -> np.ndarray:
    """Transport term sum_i u_i d q / dx_i, dealiased.

    ``q_hat`` may carry any leading component axes (scalar, vector, or
    tensor entries); the result has the same layout.
    """
    return sp.dealias(u.grid, sp.to_spectral(u.grid, _transport_values(u, q_hat)))


def momentum_transport(u: VelocityField, v_hat: np.ndarray) -> np.ndarray:
    """Filtered transport in rotational form, (curl v) x u, dealiased.

    The nonlinear term of the momentum equation for v = (I - alpha^2
    Lap) u is (u . grad) v + sum_i v_i grad u_i = (curl v) x u +
    grad(u . v).  Every caller removes the gradient: the stepper and
    :func:`momentum_residual` Leray-project :func:`momentum_rhs`, and in
    :func:`trilinear_cancellation_defect` the pairing with u vanishes
    pointwise.  For dealiased factors the 2/3 rule (``3 * cutoff < n``)
    keeps the aliases of the degree-two products outside the retained
    band, so the product rule holds exactly there and the projected
    rotational and convective forms agree to roundoff.

    Formed in real space from the scalar curl (2D) or the vector curl
    (3D) and the cached ``u.values``, with a single forward transform.
    """
    grid = u.grid
    if v_hat.shape != (grid.dim,) + grid.spectral_shape:
        raise ContractViolation("v must be a vector field on the same grid")

    def d(i, a):  # d v_i / d x_a
        return sp.spectral_derivative(grid, v_hat[i], a)

    if grid.dim == 2:
        w = sp.to_real(grid, d(1, 0) - d(0, 1))
        out = np.stack([-w * u.values[1], w * u.values[0]])
    else:
        w = sp.to_real(grid, np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0),
                                       d(1, 0) - d(0, 1)]))
        out = np.cross(w, u.values, axis=0)
    return sp.dealias(grid, sp.to_spectral(grid, out))


def stress_divergence(sigma: StressField) -> np.ndarray:
    """(div sigma)_j = sum_i d sigma_ij / dx_i, in spectral form."""
    grid = sigma.grid
    pairs = upper_indices(grid.dim)
    out = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
    for j in range(grid.dim):
        for i in range(grid.dim):
            entry = sigma.hat[pairs.index((min(i, j), max(i, j)))]
            out[j] += sp.spectral_derivative(grid, entry, i)
    return out


def _commutator_terms(dim: int) -> list[dict[tuple[int, int], int]]:
    """Stored entries of sigma W - W sigma as sums of stored-entry products.

    With sigma symmetric and W antisymmetric, W sigma = -(sigma W)^T, so
    entry (i, j) is sum_k sigma_ik W_kj + sigma_jk W_ki; W_kk = 0 drops
    out.  One dict per upper-triangle entry maps (stress position, spin
    position) to its integer coefficient.
    """
    upper, spin = upper_indices(dim), strict_upper_indices(dim)
    entries = []
    for i, j in upper:
        terms: dict[tuple[int, int], int] = {}
        for row, col in ((i, j), (j, i)):
            for k in range(dim):
                if k == col:
                    continue
                key = (upper.index((min(row, k), max(row, k))),
                       spin.index((min(k, col), max(k, col))))
                terms[key] = terms.get(key, 0) + (1 if k < col else -1)
        entries.append(terms)
    return entries


_COMMUTATOR_TERMS = {dim: _commutator_terms(dim) for dim in (2, 3)}


def _commutator_values(sigma: StressField, w: SpinField) -> np.ndarray:
    """Stored entries of sigma W - W sigma in real space (:func:`_commutator_terms`)."""
    if sigma.grid != w.grid:
        raise ContractViolation("grids differ")
    grid = sigma.grid
    s, a = sigma.values, w.values
    out = np.zeros(s.shape)
    prod = np.empty(grid.shape)
    for entry, terms in zip(out, _COMMUTATOR_TERMS[grid.dim]):
        for (ps, pw), coeff in terms.items():
            np.multiply(s[ps], a[pw], out=prod)
            if abs(coeff) != 1:
                prod *= abs(coeff)
            (np.add if coeff > 0 else np.subtract)(entry, prod, out=entry)
    return out


def commutator_hat(sigma: StressField, w: SpinField) -> np.ndarray:
    """Upper-triangle spectral coefficients of sigma W - W sigma.

    The pointwise commutator of the corotational rate: the product of a
    symmetric and an antisymmetric matrix makes it symmetric again, so
    storing the upper triangle loses nothing.  Formed in real space on
    the stored entries and dealiased like every nonlinear product.
    """
    grid = sigma.grid
    return sp.dealias(grid, sp.to_spectral(grid, _commutator_values(sigma, w)))


def linear_decay(grid: Grid, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay rates of F's linear part, (on v = H_alpha u, on sigma)."""
    decay_v = config.epsilon * grid.bessel_symbol(3.0) / grid.helmholtz_symbol(config.alpha)
    decay_s = config.epsilon * grid.bessel_symbol(2.0) + config.delta / config.lam
    return decay_v, decay_s


def momentum_rhs(u: VelocityField, v_hat: np.ndarray, sigma: StressField,
                 delta: float) -> np.ndarray:
    """Explicit part of F_v before projection: delta (div sigma - (curl v) x u)."""
    force = stress_divergence(sigma)
    force -= momentum_transport(u, v_hat)
    force *= delta
    return force


def stress_rhs(u: VelocityField, sigma: StressField, mu: float,
               delta: float) -> np.ndarray:
    """Explicit part of F_s: delta (2 mu E(u) - u.grad sigma - (sigma W - W sigma)).

    The two products are those of :func:`advect` and :func:`commutator_hat`,
    summed in real space and transformed once.
    """
    products = _transport_values(u, sigma.hat)
    products += _commutator_values(sigma, vorticity(u))
    out = 2.0 * mu * strain(u).hat
    out -= sp.dealias(u.grid, sp.to_spectral(u.grid, products))
    out *= delta
    return out


def _add_real_mode(grid: Grid, target: np.ndarray, kvec, amp) -> None:
    """Add the coefficients of amp e^{ik.x} + c.c. to ``target``.

    ``amp`` goes to mode k and conj(amp) to mode -k, each only where the
    half spectrum stores it.  ``target`` ends in the grid's spectral
    axes and ``amp`` broadcasts over its leading axes.
    """
    for k, coeff in ((kvec, amp), ([-int(c) for c in kvec], np.conj(amp))):
        try:
            idx = grid.mode_index(k)
        except ContractViolation:  # the unstored half, implied by the mirror
            continue
        target[(Ellipsis,) + idx] += coeff


class PairSample(NamedTuple):
    """A test pair at one time: its parts and their time rates.

    ``has_stress`` is the pair's flag, so the weight knows of a stress
    part without taking a norm.
    """

    z: VelocityField
    theta: StressField
    z_rate: np.ndarray
    theta_rate: np.ndarray
    has_stress: bool


def _horner(coeffs: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Value and t-derivative of sum_p coeffs[p] t^p, in one Horner pass.

    The derivative runs Horner on the coefficients p * coeffs[p]; both
    accumulate in place in fresh arrays.
    """
    value = coeffs[-1].copy()
    rate = np.zeros_like(value)
    scaled = np.empty_like(value)
    for p in range(len(coeffs) - 1, 0, -1):
        rate *= t
        rate += np.multiply(coeffs[p], p, out=scaled)
        value *= t
        value += coeffs[p - 1]
    return value, rate


class TestPair:
    """Smooth test trajectory (velocity part, stress part).

    Space dependence is a trigonometric polynomial on the grid; time
    dependence is polynomial, stored as spectral coefficient arrays per
    power of t.  Time derivatives are therefore exact (polynomial
    differentiation), never finite-differenced.

    The velocity coefficients are Leray-projected, mean-free, and
    dealiased at construction, so the pair is admissible at every time
    (``sanitize=False`` keeps only the mean-free step).  The pair owns
    read-only copies of its coefficient stacks; ``has_stress`` and
    ``is_zero`` are fixed at construction.
    """

    __test__ = False  # not a pytest suite despite the name

    def __init__(self, grid: Grid, velocity_coeffs: np.ndarray,
                 stress_coeffs: np.ndarray | None = None, *,
                 sanitize: bool = True):
        n_upper = len(upper_indices(grid.dim))
        velocity_coeffs = np.asarray(velocity_coeffs, dtype=complex)
        if velocity_coeffs.ndim != grid.dim + 2 or \
                velocity_coeffs.shape[1:] != (grid.dim,) + grid.spectral_shape:
            raise ContractViolation(
                "velocity coefficients must have shape (degree+1, dim, *spectral_shape)"
            )
        if stress_coeffs is None:
            stress_coeffs = np.zeros((1, n_upper) + grid.spectral_shape, dtype=complex)
        stress_coeffs = np.asarray(stress_coeffs, dtype=complex)
        if stress_coeffs.shape[1:] != (n_upper,) + grid.spectral_shape:
            raise ContractViolation(
                "stress coefficients must have shape (degree+1, entries, *spectral_shape)"
            )
        if sanitize:
            velocity_coeffs = np.stack([
                sp.leray_project(grid, sp.dealias(grid, c)) for c in velocity_coeffs
            ])
            stress_coeffs = np.stack([sp.dealias(grid, c) for c in stress_coeffs])
        else:  # own the stacks: a caller's later writes must not reach the pair
            velocity_coeffs = velocity_coeffs.copy()
            stress_coeffs = stress_coeffs.copy()
        velocity_coeffs[(slice(None), slice(None)) + (0,) * grid.dim] = 0.0
        velocity_coeffs.flags.writeable = False
        stress_coeffs.flags.writeable = False
        self.grid = grid
        self.velocity_coeffs = velocity_coeffs
        self.stress_coeffs = stress_coeffs
        self.has_stress = bool(np.any(stress_coeffs))
        self.is_zero = not self.has_stress and not np.any(velocity_coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "TestPair":
        vc = np.zeros((1, grid.dim) + grid.spectral_shape, dtype=complex)
        return cls(grid, vc, sanitize=False)

    @classmethod
    def random(cls, grid: Grid, seed: int, degree: int = 2,
               max_wavenumber: int = 3, amplitude: float = 1.0,
               with_stress: bool = True) -> "TestPair":
        """Low-wavenumber random pair, reproducible by seed."""
        rng = np.random.default_rng(seed)
        kmax = min(max_wavenumber, grid.dealias_cutoff)
        n_upper = len(upper_indices(grid.dim))
        vc = np.zeros((degree + 1, grid.dim) + grid.spectral_shape, dtype=complex)
        tc = np.zeros((degree + 1, n_upper) + grid.spectral_shape, dtype=complex)
        scale = amplitude * grid.size / (2 * kmax + 1) ** grid.dim
        for p in range(degree + 1):
            for kvec in np.ndindex(*((2 * kmax + 1,) * grid.dim)):
                k = tuple(int(c) - kmax for c in kvec)
                if all(c == 0 for c in k):
                    continue
                amp_v = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
                amp_t = rng.standard_normal(n_upper) + 1j * rng.standard_normal(n_upper)
                _add_real_mode(grid, vc[p], k, scale * amp_v)
                if with_stress:
                    _add_real_mode(grid, tc[p], k, scale * amp_t)
        return cls(grid, vc, tc if with_stress else None)

    @classmethod
    def from_trajectory(cls, trajectory, degree: int) -> "TestPair":
        """Least-squares polynomial fit of a trajectory's snapshots.

        The fit is performed in a Chebyshev basis on the snapshot
        interval for conditioning, converted back to powers of t, and
        pinned to interpolate the initial data exactly at t = 0.
        """
        snaps = trajectory.snapshots
        if degree < 0:
            raise ContractViolation(f"fit degree must be nonnegative, got {degree}")
        if len(snaps) < degree + 2:
            raise ContractViolation(
                f"need at least {degree + 2} snapshots to fit degree {degree}"
            )
        grid = trajectory.grid
        times = np.array([s.t for s in snaps])
        span = times[-1] - times[0]
        if span <= 0:
            raise ContractViolation("trajectory must span positive time")

        def fit_block(stack):  # stack: (n_snap, components, *grid.spectral_shape)
            n_snap = stack.shape[0]
            flat = stack.reshape(n_snap, -1)
            x = 2.0 * (times - times[0]) / span - 1.0
            basis = np.polynomial.chebyshev.chebvander(x, degree)
            cheb, *_ = np.linalg.lstsq(basis, flat, rcond=None)
            # Chebyshev in x -> powers of x -> powers of t via the affine map.
            c2p = np.zeros((degree + 1, degree + 1))
            for p in range(degree + 1):
                unit = np.zeros(p + 1)
                unit[p] = 1.0
                c2p[: p + 1, p] = np.polynomial.chebyshev.cheb2poly(unit)
            powers = c2p @ cheb
            a = 2.0 / span
            b = -1.0 - 2.0 * times[0] / span
            in_t = np.zeros_like(powers)
            for p in range(degree + 1):
                for m in range(p + 1):
                    in_t[m] += powers[p] * comb(p, m) * (a**m) * (b ** (p - m))
            coeffs = in_t.reshape((degree + 1,) + stack.shape[1:])
            coeffs[0] = stack[0]  # exact interpolation of the initial data
            return coeffs

        vc = fit_block(np.stack([s.u.hat for s in snaps]))
        tc = fit_block(np.stack([s.sigma.hat for s in snaps]))
        return cls(grid, vc, tc, sanitize=False)

    @classmethod
    def from_json(cls, grid: Grid, doc: dict | str) -> "TestPair":
        """Build a pair from a trigonometric-mode listing.

        Each velocity entry: {"k": [..], "component": i, "cos": [c0, c1,
        ...], "sin": [...]} contributing (sum_p c_p t^p) cos(k.x) plus
        the sine part to that component.  Stress entries use "entry":
        [i, j] instead of "component".  Velocity modes are projected to
        the divergence-free subspace on construction.  Raises
        ContractViolation unless every "k" lists ``grid.dim`` integers
        within the dealiased band, every component / entry index lies in
        [0, dim), and every coefficient c is finite with a finite
        spectral value ``0.5 * grid.size * c``.
        """
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except ValueError as exc:
                raise ContractViolation(f"test pair is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ContractViolation("test pair must be a JSON object")
        if int(doc.get("dim", grid.dim)) != grid.dim:
            raise ContractViolation("test pair dimension does not match grid")
        dim = grid.dim
        pairs = upper_indices(dim)

        def ints(entry, key, count, bound=None):
            # entry[key] as `count` integers (a bare one when count is 0),
            # each in [0, bound) when a bound is given
            value = entry.get(key)
            items = [value] if count == 0 else value
            if not (isinstance(items, (list, tuple)) and len(items) == max(count, 1)
                    and all(isinstance(c, (int, np.integer)) and not isinstance(c, bool)
                            and (bound is None or 0 <= c < bound) for c in items)):
                need = "an integer" if count == 0 else f"a list of {count} integers"
                where = "" if bound is None else f" in [0, {bound})"
                raise ContractViolation(f"test pair mode needs {key!r} as {need}{where}, "
                                        f"got {value!r}")
            return [int(c) for c in items]

        def wavevector(entry):
            k = ints(entry, "k", dim)
            if max(abs(c) for c in k) > grid.dealias_cutoff:
                raise ContractViolation(
                    f"test pair mode k={k} lies outside the resolved band |k_a| <= "
                    f"{grid.dealias_cutoff}; dealiasing would drop it")
            return k

        def poly(entry):
            parts = []
            for key in ("cos", "sin"):
                try:
                    coeffs = [float(c) for c in entry.get(key, [])]
                except (TypeError, ValueError):
                    raise ContractViolation("test pair mode needs 'cos' / 'sin' as lists "
                                            "of numbers") from None
                # each realizes as 0.5 * grid.size * c in the spectral stacks
                if not all(abs(0.5 * grid.size * c) < np.inf for c in coeffs):
                    raise ContractViolation(
                        f"test pair mode needs finite {key!r} coefficients whose spectral "
                        f"value 0.5 * {grid.size} * c is finite, got {entry[key]!r}")
                parts.append(coeffs)
            return tuple(parts)

        v_entries = doc.get("velocity_modes", [])
        t_entries = doc.get("stress_modes", [])
        if not all(isinstance(entry, dict) for entry in v_entries + t_entries):
            raise ContractViolation("test pair modes must be JSON objects")
        modes = []  # (0 velocity / 1 stress, component or entry, k, cos, sin)
        for entry in v_entries:
            (comp,) = ints(entry, "component", 0, dim)
            modes.append((0, comp, wavevector(entry)) + poly(entry))
        for entry in t_entries:
            i, j = sorted(ints(entry, "entry", 2, dim))
            modes.append((1, pairs.index((i, j)), wavevector(entry)) + poly(entry))
        deg = max([1] + [max(len(m[3]), len(m[4])) for m in modes]) - 1
        coeffs = (np.zeros((deg + 1, dim) + grid.spectral_shape, dtype=complex),
                  np.zeros((deg + 1, len(pairs)) + grid.spectral_shape, dtype=complex))
        for part, pos, kvec, cos, sin in modes:
            cos = np.pad(cos, (0, deg + 1 - len(cos)))
            sin = np.pad(sin, (0, deg + 1 - len(sin)))
            # cos(k.x) -> 1/2 at +/-k; sin(k.x) -> -i/2 at +k, +i/2 at -k
            _add_real_mode(grid, coeffs[part][:, pos], kvec,
                           0.5 * grid.size * (cos - 1j * sin))
        return cls(grid, *coeffs)

    # -- evaluation ----------------------------------------------------

    def at(self, t: float) -> PairSample:
        """The pair and its time rates at t, in fresh arrays."""
        t = float(t)
        z_hat, z_rate = _horner(self.velocity_coeffs, t)
        theta_hat, theta_rate = _horner(self.stress_coeffs, t)
        return PairSample(VelocityField(self.grid, z_hat, check=False),
                          StressField(self.grid, theta_hat), z_rate, theta_rate,
                          self.has_stress)


def momentum_residual(sample: PairSample, config: SimConfig) -> VelocityField:
    """Momentum half of F(H z, theta) - (H z', theta') at the sample's time.

    P[momentum_rhs(z, H z, theta) - d_v H z - H z'], with d_v from
    :func:`linear_decay`, for the system ``config`` integrates.
    """
    grid = sample.z.grid
    decay_v, _ = linear_decay(grid, config)
    filtered_z = sp.helmholtz_apply(grid, sample.z.hat, config.alpha)
    total = momentum_rhs(sample.z, filtered_z, sample.theta, config.delta)
    total -= decay_v * filtered_z
    total -= sp.helmholtz_apply(grid, sample.z_rate, config.alpha)
    return VelocityField(grid, sp.leray_project(grid, total), check=False)


def stress_residual(sample: PairSample, config: SimConfig) -> StressField:
    """Stress half of F(H z, theta) - (H z', theta') at the sample's time.

    stress_rhs(z, theta) - d_s theta - theta', symmetric by construction.
    Reuses the real-space samples of z that :func:`momentum_residual`
    cached on the same sample.
    """
    grid = sample.z.grid
    _, decay_s = linear_decay(grid, config)
    total = stress_rhs(sample.z, sample.theta, config.params.mu, config.delta)
    total -= decay_s * sample.theta.hat
    total -= sample.theta_rate
    return StressField(grid, total)


def gronwall_weight(sample: PairSample, params: PhysicalParams,
                    gamma_const: float) -> float:
    """Exponential weight of the dissipative inequality at the sample's time.

    gamma * max(1, 1/alpha^2) * (|filtered z|_1 + |z|_1 + alpha^2 |z|_3)
    plus, for a pair with a stress part, (1 + mu) |theta|_2 / mu.
    """
    if gamma_const <= 0:
        raise ContractViolation(f"gamma must be positive, got {gamma_const}")
    grid = sample.z.grid
    alpha = params.alpha
    z_hat = sample.z.hat
    filtered = sp.helmholtz_apply(grid, z_hat, alpha)
    total = (sp.sobolev_norm(grid, filtered, 1.0)
             + sp.sobolev_norm(grid, z_hat, 1.0)
             + alpha**2 * sp.sobolev_norm(grid, z_hat, 3.0))
    if sample.has_stress:
        if params.mu == 0.0:
            raise ContractViolation("the weight's stress term requires mu > 0")
        theta_norm = np.sqrt(max(sample.theta.h_norm_sq(2.0), 0.0))
        total += (1.0 + params.mu) * theta_norm / params.mu
    return gamma_const * max(1.0, 1.0 / alpha**2) * total


def trilinear_cancellation_defect(kappa: VelocityField, alpha: float) -> float:
    """Absolute value of the filtered-transport cancellation identity.

    |((kappa . grad) filtered kappa + sum_i (filtered kappa)_i grad kappa_i,
    kappa)| vanishes for divergence-free kappa.  It is evaluated on
    :func:`momentum_transport`, the kernel the stepper integrates, whose
    rotational form ((curl H kappa) x kappa, kappa) is zero pointwise
    (the dropped gradient pairs to zero with a divergence-free kappa);
    the returned defect is pure roundoff when kappa is dealiased.
    """
    filtered = sp.helmholtz_apply(kappa.grid, kappa.hat, alpha)
    return abs(sp.l2_inner(kappa.grid, momentum_transport(kappa, filtered), kappa.hat))


def transport_skew_defect(u: VelocityField, q_hat: np.ndarray,
                          weights=None) -> float:
    """|(u . grad q, q)| -- zero for divergence-free u."""
    transported = advect(u, q_hat)
    return abs(sp.l2_inner(u.grid, transported, sp.dealias(u.grid, q_hat),
                           weights))


def commutator_orthogonality_defect(sigma: StressField, w: SpinField) -> float:
    """|(sigma W - W sigma, sigma)| -- zero by pointwise symmetry."""
    comm = StressField(sigma.grid, commutator_hat(sigma, w))
    return abs(comm.l2_inner(sigma))


def identity_suite(grid: Grid, alpha: float, n_samples: int,
                   seed: int = 0) -> dict[str, float]:
    """Max normalized defects of the cancellation identities.

    Runs ``n_samples`` random divergence-free velocity / symmetric
    stress pairs and reports each identity's worst defect divided by
    its natural cubic or quadratic scale.  ``n_samples`` must be at least 1.
    """
    from .fields import random_divfree, random_stress

    if n_samples < 1:
        raise ContractViolation(f"need at least 1 sample, got {n_samples}")

    worst = {"trilinear": 0.0, "transport_scalar": 0.0,
             "transport_stress": 0.0, "commutator": 0.0}
    for i in range(n_samples):
        u = random_divfree(grid, seed=seed + 7 * i, spectrum_decay=2.5)
        kappa = random_divfree(grid, seed=seed + 7 * i + 3, spectrum_decay=2.5)
        sigma = random_stress(grid, seed=seed + 7 * i + 5, spectrum_decay=2.5)
        scalar_hat = random_stress(grid, seed=seed + 7 * i + 6,
                                   spectrum_decay=2.5).hat[0]

        h1 = np.sqrt(kappa.h_norm_sq(1.0))
        defect = trilinear_cancellation_defect(kappa, alpha)
        worst["trilinear"] = max(worst["trilinear"],
                                 defect / max((1 + alpha**2) * h1**3, 1e-300))

        u_h1 = np.sqrt(u.h_norm_sq(1.0))
        q_h1_sq = sp.sobolev_norm_sq(grid, scalar_hat, 1.0)
        defect = transport_skew_defect(u, scalar_hat)
        worst["transport_scalar"] = max(worst["transport_scalar"],
                                        defect / max(u_h1 * q_h1_sq, 1e-300))

        s_h1_sq = sigma.h_norm_sq(1.0)
        defect = transport_skew_defect(u, sigma.hat, sigma.weights)
        worst["transport_stress"] = max(worst["transport_stress"],
                                        defect / max(u_h1 * s_h1_sq, 1e-300))

        defect = commutator_orthogonality_defect(sigma, vorticity(u))
        worst["commutator"] = max(worst["commutator"],
                                  defect / max(sigma.l2_norm_sq() * u_h1, 1e-300))
    return worst
