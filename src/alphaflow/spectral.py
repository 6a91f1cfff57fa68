"""Periodic-domain spectral infrastructure.

Fields live on the torus [0, 2*pi)^dim sampled on a uniform N^dim grid.
The one in-package representation of a real field is its unnormalized
real-to-complex coefficient array ("hat"), the half spectrum:

    hat = np.fft.rfftn(f)         # hat[k] = sum_x f(x) exp(-i k.x)
    f   = np.fft.irfftn(hat, s=grid.shape)

Its shape is ``grid.spectral_shape = (N,) * (dim - 1) + (N//2 + 1,)``:
every axis but the last holds the wavenumbers ``0, 1, ..., N/2 - 1,
-N/2, ..., -1`` (``fftfreq``); the last holds only ``0, ..., N/2``
(``rfftfreq``).  A mode whose last component is negative is not stored;
it is the conjugate of its mirror ``-k``, so Hermitian symmetry is
structural.  A constant field ``c`` has the single coefficient
``c * N**dim`` at the zero mode, and ``cos(k.x)`` has ``N**dim / 2`` at
``+k`` and at ``-k`` wherever they are stored.

Nyquist convention.  An odd symbol (``i k_a``: derivatives, divergence,
and the Leray projection built from them) is zero where axis ``a``'s
index is ``N/2``.  The half layout cannot hold a non-Hermitian Nyquist
pair, and the zeroed symbol is exactly what the real part of the full
complex transform keeps there (``sin(N x / 2)`` vanishes on the grid).
Even symbols (``|k|^2``, the Bessel and Helmholtz symbols) use the full
``|k|^2``.

Vector and tensor fields stack components on leading axes; the last
``dim`` axes are always the spatial grid (or its half spectrum).

Inner products follow the continuum normalization: the quadrature weight
``(2*pi/N)**dim / N**dim`` makes spectral sums equal integrals over the
domain, and H^s inner products use the Bessel symbol ``(1 + |k|^2)**s``
(an equivalent H^s norm on the torus).  In the half layout the sums
count the interior last-axis columns twice (for the unstored mirrors)
and the columns 0 and N/2 once; :meth:`Grid.sobolev_quadrature` and
:meth:`Grid.alpha_quadrature` cache the symbols with that weight folded
in.
"""

from __future__ import annotations

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

    ``shape`` is the real-space shape and ``spectral_shape`` the half
    spectrum's.  ``k`` and ``ik`` are broadcastable 1-D axes (sparse
    meshgrid), ``k_sq`` and ``dealias_mask`` are dense in
    ``spectral_shape``; every other symbol is built on first use and
    kept read-only in one per-instance memo, so callers share it but
    cannot change it.

    The 2/3-rule dealias cutoff is ``n // 3``: modes with any
    ``|k_axis| > cutoff`` are dropped by :func:`dealias`.  Keeping
    ``3 * cutoff < n`` makes collocation quadrature of triple products
    of dealiased fields exact, which the cancellation-identity checks
    rely on.
    """

    def __init__(self, dim: int, n: int):
        self.validate(dim, n)
        self.dim = dim
        self.n = n
        self.length = TWO_PI
        self.dealias_cutoff = n // 3
        self.shape = (n,) * dim
        self.spectral_shape = (n,) * (dim - 1) + (n // 2 + 1,)
        self.size = n**dim
        self.cell_volume = (TWO_PI / n) ** dim

        # integer wavenumbers on a 2*pi box
        axes = [np.fft.fftfreq(n, d=1.0 / n)] * (dim - 1) + [np.fft.rfftfreq(n, d=1.0 / n)]
        self.k = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
        #: odd symbols i k_a, zero on axis a's Nyquist index (module docstring)
        self.ik = tuple(1j * np.where(np.abs(k) == n // 2, 0.0, k) for k in self.k)
        self.k_sq = sum(k**2 for k in self.k)
        self.dealias_mask = np.abs(self.k[0]) <= self.dealias_cutoff
        for k in self.k[1:]:
            self.dealias_mask = self.dealias_mask & (np.abs(k) <= self.dealias_cutoff)
        #: half-spectrum quadrature weight, broadcastable along the last
        #: axis: cell_volume / size times 2 on the interior columns (for
        #: their unstored mirrors) and 1 on columns 0 and N/2
        weight = np.full(n // 2 + 1, 2.0 * self.cell_volume / self.size)
        weight[[0, -1]] *= 0.5
        self.quadrature_weight = weight.reshape((1,) * (dim - 1) + (-1,))
        self._memo: dict[tuple, np.ndarray] = {}

    @staticmethod
    def validate(dim: int, n: int) -> None:
        """Raise ConfigurationError unless ``Grid(dim, n)`` is valid; allocates nothing."""
        if dim not in (2, 3):
            raise ConfigurationError(f"dim must be 2 or 3, got {dim}")
        if n < 8:
            raise ConfigurationError(f"need at least 8 points per axis, got {n}")
        if not _is_power_of_two(n):
            raise ConfigurationError(f"points per axis must be a power of two, got {n}")

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

    def _cached(self, key: tuple, build) -> np.ndarray:
        """The symbol under ``key``, built on first use and kept read-only."""
        symbol = self._memo.get(key)
        if symbol is None:
            symbol = self._memo[key] = build()
            symbol.flags.writeable = False
        return symbol

    def bessel_symbol(self, s: float) -> np.ndarray:
        """(1 + |k|^2)**s, the H^s multiplier."""
        return self._cached(("bessel", s), lambda: (1.0 + self.k_sq) ** s)

    def helmholtz_symbol(self, alpha: float) -> np.ndarray:
        """1 + alpha^2 |k|^2, the Fourier symbol of I - alpha^2 Laplacian."""
        if not alpha > 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        return self._cached(("helmholtz", alpha), lambda: 1.0 + alpha**2 * self.k_sq)

    def sobolev_quadrature(self, s: float) -> np.ndarray:
        """The H^s symbol with the quadrature weight folded in."""
        if s == 0.0:
            return self.quadrature_weight
        return self._cached(("sobolev", s),
                            lambda: self.quadrature_weight * self.bessel_symbol(s))

    def alpha_quadrature(self, alpha: float) -> np.ndarray:
        """The alpha-energy symbol 1 + alpha^2 |k|^2 with the weight folded in."""
        return self._cached(("alpha", alpha),
                            lambda: self.quadrature_weight * self.helmholtz_symbol(alpha))

    @property
    def inverse_laplacian(self) -> np.ndarray:
        """1 / sum_a (i k_a)^2 from the Nyquist-zeroed odd symbols; 0 where that is 0."""
        def build():
            lap = sum((ik * ik).real for ik in self.ik)
            return np.divide(1.0, lap, out=np.zeros(self.spectral_shape), where=lap != 0)
        return self._cached(("inverse_laplacian",), build)

    def mode_index(self, kvec) -> tuple[int, ...]:
        """Array index of the stored coefficient for integer wavevector ``kvec``.

        Raises ContractViolation when the last component lies in the
        unstored half (its coefficient is the conjugate at ``-kvec``).
        """
        idx = tuple(int(k) % self.n for k in kvec)
        if idx[-1] > self.n // 2:
            raise ContractViolation(
                f"mode {tuple(int(k) for k in kvec)} is not stored in the half "
                "spectrum; use the conjugate of its mirror"
            )
        return idx


def to_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Forward transform over the spatial axes, into the half spectrum.

    A real-to-complex pass along the last axis, then complex passes in
    place along each other axis; equals ``np.fft.rfftn``.
    """
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise ContractViolation("field contains non-finite values")
    hat = np.fft.rfft(values, axis=-1)
    for ax in grid.spatial_axes[:-1]:
        np.fft.fft(hat, axis=ax, out=hat)
    return hat


def _band_limited(grid: Grid, hat: np.ndarray) -> bool:
    """Whether ``hat`` is zero on the slabs :func:`to_real` can skip.

    They are the last-axis columns above the dealias cutoff and, in 3D,
    the axis -2 rows above it within the kept columns.
    """
    band = grid.dealias_cutoff + 1
    if hat[..., band:].any():
        return False
    return grid.dim == 2 or not hat[..., band:grid.n - grid.dealias_cutoff, :band].any()


def to_real(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Inverse transform of a half spectrum; equals ``np.fft.irfftn``.

    Complex passes along every axis but the last, into a zeroed work
    array, then a complex-to-real pass along the last axis, which keeps
    only the real parts of columns 0 and N/2.  When the input is zero
    outside the dealias band (:func:`_band_limited`, true of every field
    the stepper and the checker transform), the complex passes skip
    lines that hold only zeros: the 2D pass and the second 3D pass run on
    the last-axis columns up to the cutoff, and the first 3D pass on the
    axis -2 rows up to it (whole rows, so that each block of rows is one
    batch of lines).  A skipped line transforms to zeros, which the work
    array already holds, so the result is the same bit for bit.
    """
    hat = np.asarray(hat)
    n, cutoff = grid.n, grid.dealias_cutoff
    if _band_limited(grid, hat):
        cols, row_blocks = slice(0, cutoff + 1), (slice(0, cutoff + 1), slice(n - cutoff, n))
    else:
        cols, row_blocks = slice(None), (slice(None),)
    work = np.zeros(hat.shape, dtype=complex)
    if grid.dim == 2:
        np.fft.ifft(hat[..., cols], axis=-2, out=work[..., cols])
    else:
        for rows in row_blocks:
            np.fft.ifft(hat[..., rows, :], axis=-3, out=work[..., rows, :])
        np.fft.ifft(work[..., cols], axis=-2, out=work[..., cols])
    return np.fft.irfft(work, n=n, axis=-1)


def spectral_derivative(grid: Grid, hat: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis in spectral space (multiply by the odd symbol i*k_axis)."""
    if not 0 <= axis < grid.dim:
        raise ContractViolation(f"axis {axis} out of range for dim {grid.dim}")
    return grid.ik[axis] * hat


def _check_vector(grid: Grid, vec_hat: np.ndarray) -> None:
    if vec_hat.shape[0] != grid.dim:
        raise ContractViolation(
            f"expected {grid.dim} components, got {vec_hat.shape[0]}"
        )


def divergence_hat(grid: Grid, vec_hat: np.ndarray) -> np.ndarray:
    _check_vector(grid, vec_hat)
    out = grid.ik[0] * vec_hat[0]
    for a in range(1, grid.dim):
        out += grid.ik[a] * vec_hat[a]
    return out


def leray_project(grid: Grid, vec_hat: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto divergence-free fields, u - grad Lap^-1 div u.

    Built from the odd symbols, so modes where all of them vanish (the
    zero mode and the all-Nyquist corners) are untouched.  Idempotent
    and L2 self-adjoint, and ``divergence_hat`` of the result is zero.
    """
    _check_vector(grid, vec_hat)
    potential = divergence_hat(grid, vec_hat)
    potential *= grid.inverse_laplacian
    out = np.empty(vec_hat.shape, dtype=complex)
    for a in range(grid.dim):
        np.multiply(grid.ik[a], potential, out=out[a])
        np.subtract(vec_hat[a], out[a], out=out[a])
    return out


def helmholtz_apply(grid: Grid, hat: np.ndarray, alpha: float) -> np.ndarray:
    """Apply I - alpha^2 Laplacian (multiply by 1 + alpha^2 |k|^2)."""
    return grid.helmholtz_symbol(alpha) * hat


def dealias(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """Zero modes outside the 2/3-rule band. Idempotent."""
    return hat * grid.dealias_mask


def _quadrature(grid: Grid, a_hat, b_hat, symbol: np.ndarray, weights) -> float:
    """sum over stored modes and components of Re(a conj(b)) * symbol.

    ``symbol`` carries the quadrature weight; ``weights`` (one entry per
    leading component) scales each component's sum.
    """
    if a_hat.shape != b_hat.shape:
        raise ContractViolation("field shapes differ")
    if a_hat.shape[a_hat.ndim - grid.dim:] != grid.spectral_shape:
        raise ContractViolation("field does not live on this grid")
    count = int(np.prod(a_hat.shape[: a_hat.ndim - grid.dim]))
    # real and imaginary parts side by side: one elementwise reduction
    # gives a.real * b.real + a.imag * b.imag (a BLAS dot would wake its
    # thread pool on every call)
    a_rows = np.ascontiguousarray(a_hat, dtype=complex).view(np.float64).reshape(count, -1)
    b_rows = np.asarray(b_hat * symbol, dtype=complex).view(np.float64).reshape(count, -1)
    per_entry = np.einsum("ij,ij->i", a_rows, b_rows)
    if weights is None:
        return float(np.sum(per_entry))
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != per_entry.shape:
        raise ContractViolation("weights do not match component count")
    return float(np.dot(per_entry, w))


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
    if s < 0:
        raise ContractViolation(f"Sobolev order must be nonnegative, got {s}")
    return _quadrature(grid, a_hat, b_hat, grid.sobolev_quadrature(s), weights)


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
    return _quadrature(grid, a_hat, b_hat, grid.alpha_quadrature(alpha), weights)


def alpha_norm_sq(grid, hat, alpha, weights=None) -> float:
    return alpha_inner(grid, hat, hat, alpha, weights)
