"""Composite operators of the alpha model.

Defines the nonlinear kernels (transport, filtered transport, the
corotational commutator, the stress divergence); from them, once, the
right-hand side F of the integrated system (:func:`momentum_rhs`,
:func:`stress_rhs`, :func:`linear_decay`) that the stepper advances and
the test-pair residuals F(H z, theta) - (H z', theta') evaluate at a
pair's Chebyshev times, held there weighted for the checker's pairing
(:class:`PairResiduals`); test pairs, evaluated at each time as one
matrix-vector product per coefficient stack; the checker's Gronwall
weight; and the energy law's cancellation identities.  :func:`advect`
and :func:`commutator_hat` form the two stress products on their own,
for the identities only.
Every nonlinear product is formed in real space from band-limited
factors, and the forward transform keeps its band (the 2/3 rule), so the
trilinear identities hold to roundoff.
"""

from __future__ import annotations

import json
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


def _transport_values(u: VelocityField, q_hat: np.ndarray, work: sp.Workspace) -> np.ndarray:
    """sum_i u_i d q / dx_i in real space, in ``q_hat``'s component layout.

    In ``work``'s ``"rhs.products"`` buffer, each term formed in ``"rhs.term"``.
    """
    grid = u.grid
    u_values = u.values_in(work, "u")
    shape = q_hat.shape[: q_hat.ndim - grid.dim] + grid.shape
    gradient = work.take("rhs.hat", q_hat.shape, complex)

    def term(a, name):  # u_a d q / dx_a, in the buffer ``name``
        values = sp.to_real(grid, sp.spectral_derivative(grid, q_hat, a, out=gradient),
                            out=work.take(name, shape), work=work)
        # one component at a time: no broadcast, so no ufunc buffer
        for component in values.reshape((-1,) + u_values[a].shape):
            component *= u_values[a]
        return values

    out = term(0, "rhs.products")
    for a in range(1, grid.dim):
        out += term(a, "rhs.term")
    return out


def advect(u: VelocityField, q_hat: np.ndarray) -> np.ndarray:
    """Transport term sum_i u_i d q / dx_i on the band.

    ``q_hat`` may carry any leading component axes (scalar, vector, or
    tensor entries); the result has the same layout.
    """
    work = sp.Workspace()
    return sp.to_spectral(u.grid, _transport_values(u, q_hat, work), work=work)


#: (i, a, j, b) of each curl component d v_i / dx_a - d v_j / dx_b
_CURL_TERMS = {2: ((1, 0, 0, 1),), 3: ((2, 1, 1, 2), (0, 2, 2, 0), (1, 0, 0, 1))}


def momentum_transport(u: VelocityField, v_hat: np.ndarray,
                       work: sp.Workspace | None = None) -> np.ndarray:
    """Filtered transport in rotational form, (curl v) x u, on the band.

    The nonlinear term of the momentum equation for v = (I - alpha^2
    Lap) u is (u . grad) v + sum_i v_i grad u_i = (curl v) x u +
    grad(u . v).  Every caller removes the gradient: the stepper and
    :func:`momentum_residual` Leray-project :func:`momentum_rhs`, and in
    :func:`trilinear_cancellation_defect` the pairing with u vanishes
    pointwise.  For band-limited factors the 2/3 rule (``3 * cutoff < n``)
    keeps the aliases of the degree-two products outside the retained
    band, so the product rule holds exactly there and the projected
    rotational and convective forms agree to roundoff.

    Formed in real space from the scalar curl (2D) or the vector curl
    (3D) and ``u``'s samples, with a single forward transform, in
    ``work``'s ``"rhs.hat"`` buffer (a fresh workspace's when ``None``).
    """
    grid = u.grid
    if v_hat.shape != u.hat.shape:
        raise ContractViolation("v must be a vector field of u's shape on the same grid")
    work = sp.Workspace() if work is None else work
    u_values = u.values_in(work, "u")
    curl_terms = _CURL_TERMS[grid.dim]
    curl_hat = work.take("rhs.hat", (len(curl_terms),) + v_hat.shape[1:], complex)
    term = work.scratch(v_hat.shape[1:], complex)
    for entry, (i, a, j, b) in zip(curl_hat, curl_terms):
        sp.spectral_derivative(grid, v_hat[i], a, out=entry)
        entry -= sp.spectral_derivative(grid, v_hat[j], b, out=term)
    w = sp.to_real(grid, curl_hat, out=work.take("rhs.w", curl_hat.shape[:-grid.dim]
                                                 + grid.shape), work=work)
    products = work.take("rhs.products", u_values.shape)
    if grid.dim == 2:
        np.negative(w[0], out=products[0])
        products[0] *= u_values[1]
        np.multiply(w[0], u_values[0], out=products[1])
    else:  # the cross product w x u, as np.cross forms it
        term = work.scratch(u_values.shape[1:])
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.multiply(w[i], u_values[j], out=products[k])
            products[k] -= np.multiply(w[j], u_values[i], out=term)
    return sp.to_spectral(grid, products, out=work.take("rhs.hat", v_hat.shape, complex),
                          work=work)


def stress_divergence(sigma: StressField, out: np.ndarray | None = None,
                      work: sp.Workspace | None = None) -> np.ndarray:
    """(div sigma)_j = sum_i d sigma_ij / dx_i, in spectral form, into ``out``."""
    grid = sigma.grid
    pairs = upper_indices(grid.dim)
    if out is None:
        out = np.empty((grid.dim,) + sigma.hat.shape[1:], dtype=complex)
    term = (sp.Workspace() if work is None else work).scratch(sigma.hat.shape[1:], complex)
    out[...] = 0.0
    for j in range(grid.dim):
        for i in range(grid.dim):
            entry = sigma.hat[pairs.index((min(i, j), max(i, j)))]
            out[j] += sp.spectral_derivative(grid, entry, i, out=term)
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


def _add_commutator(out: np.ndarray, s: np.ndarray, a: np.ndarray, dim: int,
                    work: sp.Workspace) -> None:
    """Add the stored entries of sigma W - W sigma to ``out``, in real space.

    ``s`` and ``a`` are the samples of sigma and W (:func:`_commutator_terms`);
    each entry is summed from zero in ``work``'s scratch, then added.
    """
    entry, prod = work.scratch((2,) + s.shape[1:])
    for target, terms in zip(out, _COMMUTATOR_TERMS[dim]):
        entry[...] = 0.0
        for (ps, pw), coeff in terms.items():
            np.multiply(s[ps], a[pw], out=prod)
            if abs(coeff) != 1:
                prod *= abs(coeff)
            (np.add if coeff > 0 else np.subtract)(entry, prod, out=entry)
        target += entry


def commutator_hat(sigma: StressField, w: SpinField) -> np.ndarray:
    """Upper-triangle spectral coefficients of sigma W - W sigma.

    The pointwise commutator of the corotational rate: the product of a
    symmetric and an antisymmetric matrix makes it symmetric again, so
    storing the upper triangle loses nothing.  Formed in real space on
    the stored entries and kept on the band like every nonlinear product.
    """
    if sigma.grid != w.grid:
        raise ContractViolation("grids differ")
    work = sp.Workspace()
    out = np.zeros(sigma.values.shape)
    _add_commutator(out, sigma.values, w.values, sigma.grid.dim, work)
    return sp.to_spectral(sigma.grid, out, work=work)


def linear_decay(grid: Grid, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode decay rates of F's linear part, (on v = H_alpha u, on sigma)."""
    decay_v = config.epsilon * grid.bessel_symbol(3.0) / grid.helmholtz_symbol(config.alpha)
    decay_s = config.epsilon * grid.bessel_symbol(2.0) + config.delta / config.lam
    return decay_v, decay_s


def momentum_rhs(u: VelocityField, v_hat: np.ndarray, sigma: StressField, delta: float,
                 work: sp.Workspace, out: np.ndarray) -> np.ndarray:
    """Explicit part of F_v before projection, delta (div sigma - (curl v) x u), into ``out``.

    Every temporary is taken from ``work``; ``out`` may be ``v_hat``
    itself: v is read before ``out`` is written.
    """
    transport = momentum_transport(u, v_hat, work)
    stress_divergence(sigma, out, work)
    out -= transport
    out *= delta
    return out


def stress_rhs(u: VelocityField, sigma: StressField, mu: float, delta: float,
               work: sp.Workspace, out: np.ndarray) -> np.ndarray:
    """Explicit part of F_s, delta (2 mu E(u) - u.grad sigma - (sigma W - W sigma)), into ``out``.

    The two products are those of :func:`advect` and :func:`commutator_hat`,
    summed in real space and transformed once.  Every temporary is taken
    from ``work``; ``out`` may be ``sigma.hat`` itself: sigma is read
    before ``out`` is written.
    """
    grid = u.grid
    products = _transport_values(u, sigma.hat, work)
    sigma_values = sp.to_real(grid, sigma.hat, out=work.take("rhs.term", products.shape),
                              work=work)
    spin = vorticity(u, work.take("rhs.hat", (len(strict_upper_indices(grid.dim)),)
                                  + u.hat.shape[1:], complex), work)
    spin_values = sp.to_real(grid, spin.hat, out=work.take(
        "rhs.w", spin.hat.shape[: spin.hat.ndim - grid.dim] + grid.shape), work=work)
    _add_commutator(products, sigma_values, spin_values, grid.dim, work)
    strain(u, out, work)
    np.multiply(2.0 * mu, out, out=out)
    out -= sp.to_spectral(grid, products, out=work.take("rhs.hat", out.shape, complex),
                          work=work)
    out *= delta
    return out


def _add_real_mode(grid: Grid, target: np.ndarray, kvec, amp) -> None:
    """Add the coefficients of amp e^{ik.x} + c.c. to ``target``.

    ``amp`` goes to mode k and conj(amp) to mode -k, each only where the
    half layout stores it (a last component of 0 or more).  ``target``
    ends in the grid's spectral axes and ``amp`` broadcasts over its
    leading axes.
    """
    for k, coeff in ((kvec, amp), ([-int(c) for c in kvec], np.conj(amp))):
        if k[-1] >= 0:
            target[(Ellipsis,) + grid.mode_index(k)] += coeff


class PairSample(NamedTuple):
    """A test pair at one time, or at a series of times: its parts and their time rates.

    At a series of T times every part carries a time axis after its
    component axis, ``(C, T, *band)`` (:mod:`alphaflow.fields`).
    ``has_stress`` is the pair's flag, so the weight knows of a stress
    part without taking a norm.  A sample from ``TestPair.values_at``
    holds no rates.
    """

    z: VelocityField
    theta: StressField
    has_stress: bool
    z_rate: np.ndarray | None = None
    theta_rate: np.ndarray | None = None


def _powers(times: np.ndarray, count: int) -> np.ndarray:
    """``(T, count)`` powers t^0 .. t^(count-1) of each time, by repeated products.

    Each entry is a product of its own time only, so its bits do not
    depend on the times that come with it.
    """
    powers = np.empty((len(times), count))
    powers[:, :1] = 1.0
    for p in range(1, count):
        np.multiply(powers[:, p - 1], times, out=powers[:, p])
    return powers


def _stack_at(stack: np.ndarray, powers: np.ndarray, out: np.ndarray,
              work: sp.Workspace) -> np.ndarray:
    """sum_p stack[p] t^p at each time, into ``out`` of shape ``(C, T, *band)``.

    One matrix-vector product per time: the row ``powers[i]`` times the
    stack's ``(p+1, C*band)`` real view, formed in ``work``'s scratch
    and copied to ``out[:, i]``.  Every time is the same product, so its
    bits do not depend on the times that come with it; one matrix
    product over all of them would not promise that.  An empty stack
    (a constant pair's rates) sums to zero.
    """
    if not len(stack):
        out[...] = 0.0
        return out
    real = stack.reshape(len(stack), -1).view(float)
    row = work.scratch(real.shape[1:])
    for i, power in enumerate(powers):
        np.matmul(power[: len(stack)], real, out=row)
        out[:, i] = row.view(complex).reshape(out.shape[:1] + out.shape[2:])
    return out


def _rate_stack(coeffs: np.ndarray) -> np.ndarray:
    """The coefficients p * coeffs[p] of the t-derivative, for p = 1 .. degree."""
    rates = np.empty((len(coeffs) - 1,) + coeffs.shape[1:], dtype=complex)
    for p in range(1, len(coeffs)):
        np.multiply(coeffs[p], p, out=rates[p - 1])
    return rates


def chebyshev_times(t_first: float, t_last: float, count: int) -> np.ndarray:
    """``count`` Chebyshev points of the second kind on [t_first, t_last], ascending.

    The first and last are ``t_first`` and ``t_last`` themselves; a
    single point sits mid-interval.
    """
    if count == 1:
        return np.array([t_first + 0.5 * (t_last - t_first)])
    angles = np.pi * np.arange(count) / (count - 1)
    nodes = t_first + (t_last - t_first) * (0.5 - 0.5 * np.cos(angles))
    nodes[-1] = t_last
    return nodes


def _barycentric(nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``(T, m+1)`` weights of the values at the Chebyshev ``nodes`` for ``times``.

    The barycentric formula with weights (-1)^j, halved at the ends.
    Each row is formed from its own time only, summing the nodes in one
    order, so a time gets its weights whatever times come with it.  A
    time that equals a node takes that node's value.
    """
    signs = (-1.0) ** np.arange(len(nodes))
    if len(nodes) > 1:
        signs[[0, -1]] *= 0.5
    gaps = times[:, None] - nodes[None, :]
    hits = gaps == 0.0
    gaps[hits] = 1.0
    weights = signs / gaps
    total = weights[:, 0].copy()
    for column in weights.T[1:]:
        total += column
    weights /= total[:, None]
    for i in np.flatnonzero(hits.any(axis=1)):
        weights[i] = hits[i]
    return weights


class PairResiduals:
    """A test pair's residuals over [t_0, t_N], held at Chebyshev times for one pairing.

    On the band F is linear plus bilinear, so for a pair of degree p in
    t the residual R(t) = F(H z, theta) - (H z', theta') is a polynomial
    of degree at most 2p, fixed by its values at the 2p+1 Chebyshev
    points of the second kind, and so is its pairing with any distance:
    at a time t, 2 (a_u (R_u, du) + a_s (R_s, dsigma)) is the barycentric
    sum over the nodes of R's pairings there (Berrut & Trefethen, SIAM
    Review 46, 2004).  ``weighted`` holds, per node, the stacked
    ``(a_u R_u, a_s R_s)`` with the quadrature weight and each stress
    entry's multiplicity folded in, so that node's pairing with a time's
    difference is one dot product of real views; R_s is left out when
    a_s is 0.  Built by ``TestPair.residuals``.
    """

    def __init__(self, grid: Grid, nodes: np.ndarray, weighted: np.ndarray):
        self.grid = grid
        self.nodes = nodes
        self.weighted = weighted  # (nodes, dim [+ entries], *band)

    def source(self, times, du_hat: np.ndarray, dsigma_hat: np.ndarray | None = None,
               work: sp.Workspace | None = None) -> np.ndarray:
        """The source 2 (a_u (R_u, du) + a_s (R_s, dsigma)) at each of ``times``.

        ``du_hat`` and ``dsigma_hat`` are ``(C, T, *band)`` differences at
        those times; ``dsigma_hat`` is read only when R_s is held.  Each
        time's difference is copied into ``work``'s scratch and paired
        with every node by one matrix-vector product; the pairings are
        summed over the nodes in order with the time's barycentric
        weights.  Each time gets the same bits whatever times come with
        it.  A pairing that overflows raises FloatingPointError.
        """
        times = np.asarray(times, dtype=float)
        work = sp.Workspace() if work is None else work
        count = len(self.nodes)
        real = self.weighted.reshape(count, -1).view(float)
        row = work.scratch(real.shape[1:])
        row_u, row_s = np.split(row.view(complex).reshape(self.weighted.shape[1:]),
                                [len(du_hat)])
        pairings = np.empty((len(times), count))
        for i in range(len(times)):
            row_u[...] = du_hat[:, i]
            if len(row_s):
                row_s[...] = dsigma_hat[:, i]
            np.matmul(real, row, out=pairings[i])
        # BLAS threads may overflow without raising the caller's floating-point flags
        if not np.all(np.isfinite(pairings)):
            raise FloatingPointError("overflow encountered in the residual pairing")
        return 2.0 * np.einsum("ij,ij->i", _barycentric(self.nodes, times), pairings)


class TestPair:
    """Smooth test trajectory (velocity part, stress part).

    Space dependence is a trigonometric polynomial on the grid; time
    dependence is polynomial, stored as spectral coefficient arrays per
    power of t.  Time derivatives are therefore exact (polynomial
    differentiation), never finite-differenced.

    The velocity coefficients are Leray-projected and mean-free at
    construction, so the pair is admissible at every time.  The pair
    owns read-only copies of its coefficient stacks and, formed once,
    the stacks p * c_p of its time rates; ``has_stress`` and ``is_zero``
    are fixed at construction.
    """

    __test__ = False  # not a pytest suite despite the name

    def __init__(self, grid: Grid, velocity_coeffs: np.ndarray,
                 stress_coeffs: np.ndarray | None = None):
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
        # own the stacks: a caller's later writes must not reach the pair
        velocity_coeffs = np.stack([sp.leray_project(grid, c) for c in velocity_coeffs])
        stress_coeffs = stress_coeffs.copy()
        velocity_coeffs[(slice(None), slice(None)) + (0,) * grid.dim] = 0.0
        self.grid = grid
        self.velocity_coeffs = velocity_coeffs
        self.stress_coeffs = stress_coeffs
        self._velocity_rates = _rate_stack(velocity_coeffs)
        self._stress_rates = _rate_stack(stress_coeffs)
        for stack in (velocity_coeffs, stress_coeffs, self._velocity_rates,
                      self._stress_rates):
            stack.flags.writeable = False
        self.has_stress = bool(np.any(stress_coeffs))
        self.is_zero = not self.has_stress and not np.any(velocity_coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "TestPair":
        vc = np.zeros((1, grid.dim) + grid.spectral_shape, dtype=complex)
        return cls(grid, vc)

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
        """Least-squares polynomial fit of a trajectory's snapshots, in one pass.

        The ``(degree+1, T)`` projector ``pinv(B)``, with B the Chebyshev
        Vandermonde matrix of the T snapshot times mapped to [-1, 1], is
        applied ``degree + 1`` snapshots at a time, so memory holds a few
        stacks of ``degree + 1`` fields however long the run.  One
        ``(degree+1) x (degree+1)`` matrix then turns the Chebyshev stacks
        into powers of t; folding it into the projector would cost five
        orders of accuracy at degree 10, the monomials being that badly
        conditioned.  The constant term is pinned to the first snapshot,
        which must lie at t = 0, so the pair holds the initial data exactly.
        """
        snaps = trajectory.snapshots
        if degree < 0:
            raise ContractViolation(f"fit degree must be nonnegative, got {degree}")
        if len(snaps) < degree + 2:
            raise ContractViolation(
                f"need at least {degree + 2} snapshots to fit degree {degree}"
            )
        times = trajectory.times
        if times[0] != 0.0:
            raise ContractViolation(
                f"the fit pins t = 0 to the first snapshot, which is at t={times[0]:g}")
        span = times[-1]
        if span <= 0:
            raise ContractViolation("trajectory must span positive time")
        projector = np.linalg.pinv(
            np.polynomial.chebyshev.chebvander(2.0 * times / span - 1.0, degree))
        to_powers = np.zeros((degree + 1, degree + 1))
        for p in range(degree + 1):
            basis = np.polynomial.Chebyshev.basis(p, domain=(0.0, span))
            to_powers[: p + 1, p] = basis.convert(kind=np.polynomial.Polynomial).coef

        def fit(name):  # the fitted stack of each snapshot's ``name`` field
            first = getattr(snaps[0], name).hat
            cheb = np.zeros((degree + 1,) + first.shape, dtype=complex)
            for start in range(0, len(snaps), degree + 1):
                part = slice(start, start + degree + 1)
                chunk = np.stack([getattr(s, name).hat for s in snaps[part]])
                cheb += np.tensordot(projector[:, part], chunk, axes=1)
            coeffs = np.tensordot(to_powers, cheb, axes=1)
            coeffs[0] = first  # exact initial data
            return coeffs

        return cls(trajectory.grid, fit("u"), fit("sigma"))

    @classmethod
    def from_json(cls, grid: Grid, doc: dict | str) -> "TestPair":
        """Build a pair from a trigonometric-mode listing.

        Each velocity entry: {"k": [..], "component": i, "cos": [c0, c1,
        ...], "sin": [...]} contributing (sum_p c_p t^p) cos(k.x) plus
        the sine part to that component.  Stress entries use "entry":
        [i, j] instead of "component".  Velocity modes are projected to
        the divergence-free subspace on construction.  Raises
        ContractViolation unless every "k" lists ``grid.dim`` integers
        within the band, every component / entry index lies in
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
                    f"{grid.dealias_cutoff}, which the grid does not store")
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

    def _evaluate(self, stacks, t, work: sp.Workspace | None) -> list[np.ndarray]:
        """Each stack's polynomial at ``t``, a float or a 1-D array of times.

        Into ``work``'s buffers ``pair.z``, ``pair.theta``,
        ``pair.z_rate`` and ``pair.theta_rate``, in the order of
        ``stacks``, or into fresh arrays when ``work`` is ``None``.
        """
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ContractViolation(
                f"times must be a float or a 1-D array, got shape {times.shape}")
        fresh = work is None
        work = sp.Workspace() if fresh else work
        powers = _powers(times.reshape(-1), max(len(stack) for stack in stacks))
        parts = []
        for name, stack in zip(("pair.z", "pair.theta", "pair.z_rate", "pair.theta_rate"),
                               stacks):
            # the time axis goes right after the component axis
            shape = (stack.shape[1], len(powers)) + self.grid.spectral_shape
            out = np.empty(shape, complex) if fresh else work.take(name, shape, complex)
            _stack_at(stack, powers, out, work)
            parts.append(out if times.ndim else out[:, 0])
        return parts

    def _sample(self, z_hat, theta_hat, *rates) -> PairSample:
        return PairSample(VelocityField.wrap(self.grid, z_hat),
                          StressField(self.grid, theta_hat), self.has_stress, *rates)

    def at(self, t, work: sp.Workspace | None = None) -> PairSample:
        """The pair and its time rates at t, in ``work`` or in fresh arrays.

        ``t`` is a float, or a 1-D array of T times; then every part of
        the sample has shape ``(C, T, *band)`` and each time holds, bit
        for bit, what ``at`` returns for that time alone.  Given ``work``,
        the parts live in its ``pair.*`` buffers until the next call.
        """
        return self._sample(*self._evaluate(
            (self.velocity_coeffs, self.stress_coeffs, self._velocity_rates,
             self._stress_rates), t, work))

    def values_at(self, t, work: sp.Workspace | None = None) -> PairSample:
        """The pair at t as :meth:`at` gives it, without the time rates."""
        return self._sample(*self._evaluate((self.velocity_coeffs, self.stress_coeffs),
                                            t, work))

    def residuals(self, config: SimConfig, times, batch: int, form: tuple[float, float],
                  work: sp.Workspace | None = None) -> PairResiduals:
        """F(H z, theta) - (H z', theta') over [times[0], times[-1]], for one pairing.

        Evaluates both residuals at the 2p+1 Chebyshev times of the
        interval (:class:`PairResiduals`), p the pair's degree in t, or at
        ``times[0]`` alone when the interval is a point; one call of
        each residual per ``batch`` nodes, formed in ``work`` (a fresh
        workspace when ``None``), whose ``residual.nodes`` buffer then
        holds them weighted by ``form`` = (a_u, a_s).  a_s = 0 leaves
        R_s out.  A residual that overflows raises ContractViolation
        naming the first of ``times`` at which it overflows on its own,
        or else the first such node.
        """
        a_u, a_s = form
        degree = max(len(self.velocity_coeffs), len(self.stress_coeffs)) - 1
        t_first, t_last = float(times[0]), float(times[-1])
        count = 2 * degree + 1 if t_last != t_first else 1
        nodes = chebyshev_times(t_first, t_last, count)
        work = sp.Workspace() if work is None else work
        grid = self.grid

        def evaluate(t):  # (R_u, R_s or None) at t, raising on overflow
            with np.errstate(over="raise", invalid="raise"):
                sample = self.at(t, work)
                r_u = momentum_residual(sample, config, work)
                return r_u, stress_residual(sample, config, work) if a_s else None

        entries = len(upper_indices(grid.dim)) if a_s else 0
        weighted = work.take("residual.nodes", (count, grid.dim + entries)
                             + grid.spectral_shape, complex)
        try:
            for start in range(0, count, batch):
                part = slice(start, start + batch)
                r_u, r_s = evaluate(nodes[part])
                np.multiply(r_u.hat.swapaxes(0, 1), a_u * grid.quadrature_weight,
                            out=weighted[part, :grid.dim])
                if a_s:
                    for entry, (hat, multiplicity) in enumerate(zip(r_s.hat, r_s.weights)):
                        np.multiply(hat, a_s * multiplicity * grid.quadrature_weight,
                                    out=weighted[part, grid.dim + entry])
        except FloatingPointError:
            for t in [*times, *nodes]:  # find the first time that overflows
                try:
                    evaluate(float(t))
                except FloatingPointError as exc:
                    raise ContractViolation(
                        f"the test pair overflows at time t={t:g}: {exc}") from None
            raise
        return PairResiduals(grid, nodes, weighted)


def momentum_residual(sample: PairSample, config: SimConfig,
                      work: sp.Workspace | None = None) -> VelocityField:
    """Momentum half of F(H z, theta) - (H z', theta') at the sample's time(s).

    P[momentum_rhs(z, H z, theta) - d_v H z - H z'], with d_v from
    :func:`linear_decay`, for the system ``config`` integrates.  Shapes
    follow the sample's, so a sample at T times costs one call.  Formed
    in ``work`` (a fresh workspace when ``None``), where the result lives
    until the next call.
    """
    grid = sample.z.grid
    work = sp.Workspace() if work is None else work
    decay_v, _ = linear_decay(grid, config)
    z_hat = sample.z.hat
    filtered_z = sp.helmholtz_apply(grid, z_hat, config.alpha,
                                    out=work.take("residual.term", z_hat.shape, complex))
    total = momentum_rhs(sample.z, filtered_z, sample.theta, config.delta, work,
                         work.take("residual.momentum", z_hat.shape, complex))
    total -= np.multiply(decay_v, filtered_z, out=filtered_z)
    total -= sp.helmholtz_apply(grid, sample.z_rate, config.alpha, out=filtered_z)
    return VelocityField.wrap(grid, sp.leray_project(grid, total, out=total, work=work))


def stress_residual(sample: PairSample, config: SimConfig,
                    work: sp.Workspace | None = None) -> StressField:
    """Stress half of F(H z, theta) - (H z', theta') at the sample's time(s).

    stress_rhs(z, theta) - d_s theta - theta', symmetric by construction.
    Reuses the real-space samples of z that :func:`momentum_residual`
    cached on the same sample.  Formed in ``work`` (a fresh workspace
    when ``None``), where the result lives until the next call.
    """
    grid = sample.z.grid
    work = sp.Workspace() if work is None else work
    _, decay_s = linear_decay(grid, config)
    theta_hat = sample.theta.hat
    total = stress_rhs(sample.z, sample.theta, config.params.mu, config.delta, work,
                       work.take("residual.stress", theta_hat.shape, complex))
    total -= np.multiply(decay_s, theta_hat,
                         out=work.take("residual.term", theta_hat.shape, complex))
    total -= sample.theta_rate
    return StressField(grid, total)


def gronwall_weight(sample: PairSample, params: PhysicalParams, gamma_const: float,
                    work: sp.Workspace | None = None) -> float | np.ndarray:
    """Exponential weight of the dissipative inequality at the sample's time.

    gamma * max(1, 1/alpha^2) * (|filtered z|_1 + |z|_1 + alpha^2 |z|_3)
    plus, for a pair with a stress part, (1 + mu) |theta|_2 / mu.  A
    sample at T times gives a ``(T,)`` array.  Given ``work``, filtered z
    is formed in its ``weight.filtered`` buffer and the norms' temporaries
    in its scratch.
    """
    if gamma_const <= 0:
        raise ContractViolation(f"gamma must be positive, got {gamma_const}")
    grid = sample.z.grid
    alpha = params.alpha
    z_hat = sample.z.hat
    filtered = sp.helmholtz_apply(grid, z_hat, alpha, out=None if work is None else
                                  work.take("weight.filtered", z_hat.shape, complex))
    total = (sp.sobolev_norm(grid, filtered, 1.0, work=work)
             + sp.sobolev_norm(grid, z_hat, 1.0, work=work)
             + alpha**2 * sp.sobolev_norm(grid, z_hat, 3.0, work=work))
    if sample.has_stress:
        if params.mu == 0.0:
            raise ContractViolation("the weight's stress term requires mu > 0")
        theta_norm = np.sqrt(np.maximum(sample.theta.h_norm_sq(2.0, work), 0.0))
        total += (1.0 + params.mu) * theta_norm / params.mu
    return gamma_const * max(1.0, 1.0 / alpha**2) * total


def trilinear_cancellation_defect(kappa: VelocityField, alpha: float) -> float:
    """Absolute value of the filtered-transport cancellation identity.

    |((kappa . grad) filtered kappa + sum_i (filtered kappa)_i grad kappa_i,
    kappa)| vanishes for divergence-free kappa.  It is evaluated on
    :func:`momentum_transport`, the kernel the stepper integrates, whose
    rotational form ((curl H kappa) x kappa, kappa) is zero pointwise
    (the dropped gradient pairs to zero with a divergence-free kappa);
    the returned defect is pure roundoff.
    """
    filtered = sp.helmholtz_apply(kappa.grid, kappa.hat, alpha)
    return abs(sp.l2_inner(kappa.grid, momentum_transport(kappa, filtered), kappa.hat))


def transport_skew_defect(u: VelocityField, q_hat: np.ndarray,
                          weights=None) -> float:
    """|(u . grad q, q)| -- zero for divergence-free u."""
    transported = advect(u, q_hat)
    return abs(sp.l2_inner(u.grid, transported, q_hat, weights))


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
