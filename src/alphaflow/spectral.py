"""Periodic-domain spectral infrastructure.

Fields live on the torus [0, 2*pi)^dim sampled on a uniform N^dim grid.
The canonical in-package representation of a field is its unnormalized
numpy FFT coefficient array ("hat"): for real values ``f``,

    hat = np.fft.fftn(f)          # hat[k] = sum_x f(x) exp(-i k.x)
    f   = np.fft.ifftn(hat).real

so a constant field ``c`` has a single nonzero coefficient ``c * N**dim``
at the zero mode, and ``cos(k.x)`` has coefficients ``N**dim / 2`` at
``+k`` and ``-k``.  Real fields keep Hermitian symmetry; all operators
here multiply by real symbols and therefore preserve it, except on the
Nyquist planes (an axis index of ``N/2``), where ``k`` takes the single
value ``-N/2`` and odd symbols break the pairing.

The layout above is the only one the package exposes, but the
transforms are real-to-complex: :func:`to_spectral` runs ``rfftn`` and
expands the half spectrum by conjugate symmetry, and :func:`to_real`
runs ``irfftn`` on the non-negative half of the last axis after
replacing each nonzero Nyquist plane by its Hermitian part.  The
results equal ``fftn`` / ``ifftn(...).real`` to roundoff.

Vector and tensor fields stack components on leading axes; the last
``dim`` axes are always the spatial grid.

Inner products follow the continuum normalization: the quadrature weight
``(2*pi/N)**dim`` makes spectral sums equal integrals over the domain,
and H^s inner products use the Bessel symbol ``(1 + |k|^2)**s`` (an
equivalent H^s norm on the torus).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ConfigurationError, ContractViolation

TWO_PI = 2.0 * np.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic grid with cached wavenumber machinery.

    Parameters
    ----------
    dim : 2 or 3
    n : points per axis, a power of two, at least 8.

    The 2/3-rule dealias cutoff is ``n // 3``: modes with any
    ``|k_axis| > cutoff`` are dropped by :func:`dealias`.  Keeping
    ``3 * cutoff < n`` makes collocation quadrature of triple products
    of dealiased fields exact, which the cancellation-identity checks
    rely on.
    """

    def __init__(self, dim: int, n: int):
        if dim not in (2, 3):
            raise ConfigurationError(f"dim must be 2 or 3, got {dim}")
        if n < 8:
            raise ConfigurationError(f"need at least 8 points per axis, got {n}")
        if not _is_power_of_two(n):
            raise ConfigurationError(f"points per axis must be a power of two, got {n}")
        self.dim = dim
        self.n = n
        self.length = TWO_PI
        self.dealias_cutoff = n // 3
        self.shape = (n,) * dim
        self.size = n**dim
        self.cell_volume = (TWO_PI / n) ** dim

        k1 = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on a 2*pi box
        axes = np.meshgrid(*([k1] * dim), indexing="ij")
        self.k = np.stack(axes)  # (dim, n, ..., n)
        self.k_sq = np.sum(self.k**2, axis=0)
        self.dealias_mask = np.all(np.abs(self.k) <= self.dealias_cutoff, axis=0)
        self._bessel_cache: dict[float, np.ndarray] = {}

    def __eq__(self, other):
        return isinstance(other, Grid) and other.dim == self.dim and other.n == self.n

    def __hash__(self):
        return hash((self.dim, self.n))

    def __repr__(self):
        return f"Grid(dim={self.dim}, n={self.n})"

    @property
    def spatial_axes(self) -> tuple[int, ...]:
        return tuple(range(-self.dim, 0))

    def coordinates(self) -> np.ndarray:
        """Real-space coordinate arrays, shape (dim, n, ..., n)."""
        x1 = np.arange(self.n) * (TWO_PI / self.n)
        return np.stack(np.meshgrid(*([x1] * self.dim), indexing="ij"))

    def bessel_symbol(self, s: float) -> np.ndarray:
        """(1 + |k|^2)**s, the H^s multiplier."""
        if s not in self._bessel_cache:
            self._bessel_cache[s] = (1.0 + self.k_sq) ** s
        return self._bessel_cache[s]

    def helmholtz_symbol(self, alpha: float) -> np.ndarray:
        """1 + alpha^2 |k|^2, the Fourier symbol of I - alpha^2 Laplacian."""
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        return 1.0 + alpha**2 * self.k_sq

    def mode_index(self, kvec) -> tuple[int, ...]:
        """Array index of the coefficient for integer wavevector ``kvec``."""
        return tuple(int(k) % self.n for k in kvec)


def _reflect(hat: np.ndarray, n_axes: int) -> np.ndarray:
    """Coefficients at -k: index i -> (-i) mod n on the last ``n_axes`` axes."""
    for ax in range(-n_axes, 0):
        hat = np.roll(np.flip(hat, axis=ax), 1, axis=ax)
    return hat


def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Forward transform over the spatial axes, in the full layout.

    A real-to-complex transform; the modes with a negative last-axis
    index are filled in as the conjugates of their mirror modes.
    """
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ContractViolation("field contains non-finite values")
    m = grid.n // 2
    out = np.empty(values.shape, dtype=complex)
    half = np.fft.rfftn(values, axes=grid.spatial_axes, out=out[..., : m + 1])
    # hat[k', j] = conj(hat[-k', n - j]) for j > n/2; negating an index
    # keeps 0 and reverses 1..n-1, one pair of slices per other axis
    for pick in product(((0, 0), (slice(1, None), slice(None, 0, -1))),
                        repeat=grid.dim - 1):
        dst = (Ellipsis,) + tuple(p[0] for p in pick) + (slice(m + 1, None),)
        src = (Ellipsis,) + tuple(p[1] for p in pick) + (slice(m - 1, 0, -1),)
        np.conjugate(half[src], out=out[dst])
    return out


def to_real(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Inverse transform; equals ``np.fft.ifftn(hat).real``.

    A complex-to-real transform of the non-negative half of the last
    axis, which is exact for Hermitian ``hat``.  Equality holds for any
    ``hat`` that is Hermitian off the Nyquist planes, which every hat
    the package forms is (module docstring).  Odd symbols and the
    Leray projection leave non-Hermitian content on the Nyquist planes
    of fields that were not dealiased, so each nonzero Nyquist plane of
    the other axes is first replaced by its Hermitian part (the real
    part of the inverse transform sees nothing else).  The last axis's
    own Nyquist and zero planes need no fix: the complex-to-real
    transform keeps only their real parts after the other axes' inverse
    transforms, which is the same thing.
    """
    m = grid.n // 2
    half = hat[..., : m + 1]
    copied = False
    for ax in grid.spatial_axes[:-1]:
        plane_at = (Ellipsis, m) + (slice(None),) * (-ax - 1)
        plane = hat[plane_at]
        if np.any(plane):
            if not copied:
                half, copied = half.copy(), True
            herm = 0.5 * (plane + np.conj(_reflect(plane, grid.dim - 1)))
            half[plane_at] = herm[..., : m + 1]
    return np.fft.irfftn(half, s=grid.shape, axes=grid.spatial_axes)


def spectral_derivative(grid: Grid, hat: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis in spectral space (multiply mode k by i*k_axis)."""
    if not 0 <= axis < grid.dim:
        raise ContractViolation(f"axis {axis} out of range for dim {grid.dim}")
    return 1j * grid.k[axis] * hat


def gradient_hat(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """All partial derivatives, stacked on a new leading axis."""
    return np.stack([spectral_derivative(grid, hat, a) for a in range(grid.dim)])


def divergence_hat(grid: Grid, vec_hat: np.ndarray) -> np.ndarray:
    if vec_hat.shape[0] != grid.dim:
        raise ContractViolation(
            f"expected {grid.dim} components, got {vec_hat.shape[0]}"
        )
    out = np.zeros(grid.shape, dtype=complex)
    for a in range(grid.dim):
        out += 1j * grid.k[a] * vec_hat[a]
    return out


def leray_project(grid: Grid, vec_hat: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto divergence-free fields.

    Per mode: u - k (k.u) / |k|^2.  The zero mode is untouched
    (constants are divergence-free).  Idempotent and L2 self-adjoint.
    """
    if vec_hat.shape[0] != grid.dim:
        raise ContractViolation(
            f"expected {grid.dim} components, got {vec_hat.shape[0]}"
        )
    k = grid.k
    k_dot_u = np.sum(k * vec_hat, axis=0)
    safe_k_sq = np.where(grid.k_sq > 0, grid.k_sq, 1.0)
    factor = np.where(grid.k_sq > 0, k_dot_u / safe_k_sq, 0.0)
    return vec_hat - k * factor


def helmholtz_apply(grid: Grid, hat: np.ndarray, alpha: float) -> np.ndarray:
    """Apply I - alpha^2 Laplacian (multiply by 1 + alpha^2 |k|^2)."""
    return grid.helmholtz_symbol(alpha) * hat


def helmholtz_invert(grid: Grid, hat: np.ndarray, alpha: float) -> np.ndarray:
    return hat / grid.helmholtz_symbol(alpha)


def dealias(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Zero modes outside the 2/3-rule band. Idempotent."""
    return hat * grid.dealias_mask


def sobolev_inner(
    grid: Grid,
    a_hat: np.ndarray,
    b_hat: np.ndarray,
    s: float = 0.0,
    weights: np.ndarray | None = None,
) -> float:
    """H^s inner product via the Bessel symbol.

    Leading component axes are summed over; ``weights`` (one entry per
    leading component) lets tensor fields stored as an upper triangle
    count off-diagonal entries twice.  ``s=0`` equals the L2 quadrature
    of the pointwise product over the domain.
    """
    if a_hat.shape != b_hat.shape:
        raise ContractViolation("field shapes differ")
    if a_hat.shape[-grid.dim :] != grid.shape:
        raise ContractViolation("field does not live on this grid")
    if s < 0:
        raise ContractViolation(f"Sobolev order must be nonnegative, got {s}")
    sym = grid.bessel_symbol(s) if s != 0.0 else 1.0
    prod = (a_hat * np.conj(b_hat)).real * sym
    norm = grid.cell_volume / grid.size  # (2*pi)^d / N^(2d)
    if weights is None:
        return float(np.sum(prod) * norm)
    per_entry = np.sum(prod, axis=grid.spatial_axes)
    per_entry = per_entry.reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != per_entry.shape:
        raise ContractViolation("weights do not match component count")
    return float(np.dot(per_entry, w) * norm)


def sobolev_norm_sq(grid, hat, s=0.0, weights=None) -> float:
    return sobolev_inner(grid, hat, hat, s, weights)


def sobolev_norm(grid, hat, s=0.0, weights=None) -> float:
    return float(np.sqrt(max(sobolev_norm_sq(grid, hat, s, weights), 0.0)))


def l2_inner(grid, a_hat, b_hat, weights=None) -> float:
    return sobolev_inner(grid, a_hat, b_hat, 0.0, weights)


def l2_norm_sq(grid, hat, weights=None) -> float:
    return sobolev_norm_sq(grid, hat, 0.0, weights)


def alpha_inner(grid: Grid, a_hat, b_hat, alpha: float, weights=None) -> float:
    """The alpha-model energy inner product (u,v) + alpha^2 (grad u, grad v).

    Realized by the symbol 1 + alpha^2 |k|^2; on the torus this equals
    the L2 pairing of (I - alpha^2 Laplacian) u with v.
    """
    if a_hat.shape != b_hat.shape or a_hat.shape[-grid.dim :] != grid.shape:
        raise ContractViolation("field shapes differ or wrong grid")
    sym = grid.helmholtz_symbol(alpha)
    prod = (a_hat * np.conj(b_hat)).real * sym
    norm = grid.cell_volume / grid.size
    if weights is None:
        return float(np.sum(prod) * norm)
    per_entry = np.sum(prod, axis=grid.spatial_axes).reshape(-1)
    return float(np.dot(per_entry, np.asarray(weights, float)) * norm)


def alpha_norm_sq(grid, hat, alpha, weights=None) -> float:
    return alpha_inner(grid, hat, hat, alpha, weights)


def hermitian_defect(grid: Grid, hat: np.ndarray) -> float:
    """Max deviation from conjugate symmetry, normalized by N^dim.

    Zero (to roundoff) exactly when the field is real.
    """
    flipped = _reflect(hat, grid.dim)
    return float(np.max(np.abs(hat - np.conj(flipped))) / grid.size)
