"""Periodic-domain spectral infrastructure.

Fields live on the torus [0, 2*pi)^dim sampled on a uniform N^dim grid.
The integrated system is a Galerkin system on the 2/3-rule band
(Orszag 1971): every mode it holds has ``|k_a| <= c`` on each axis, with
``c = grid.dealias_cutoff = N // 3``.  The one in-package representation
of a real field is its unnormalized coefficient array ("hat") on that
band, in the real-to-complex half layout:

    hat = to_spectral(grid, f)    # hat[k] = sum_x f(x) exp(-i k.x), k in the band
    f   = to_real(grid, hat)

Its shape is ``grid.spectral_shape = (2c+1,) * (dim - 1) + (c+1,)``:
every axis but the last holds the wavenumbers ``0, 1, ..., c, -c, ...,
-1`` (the band rows of ``fftfreq``, in its order); the last holds only
``0, ..., c``.  A mode whose last component is negative is not stored;
it is the conjugate of its mirror ``-k``, so Hermitian symmetry is
structural, except on the plane ``k_last = 0``, which stores both
(:func:`hermitian_defect`).  A constant field ``c`` has the single
coefficient ``c * N**dim`` at the zero mode (index 0 on every axis), and
``cos(k.x)`` has ``N**dim / 2`` at ``+k`` and at ``-k`` wherever they
are stored.

The forward transform is the 2/3 rule: it keeps the band of
``np.fft.rfftn`` and drops the rest.  Keeping ``3 * c < N`` makes the
band part of a product of band-limited fields exact, which the
cancellation identities and the energy law rely on.  The band never
reaches the Nyquist index ``N/2``, so every symbol is the plain one.

Vector and tensor fields stack components on leading axes; the last
``dim`` axes are always the spatial grid (or its band).  A field may
carry a time axis right after its component axis, ``(C, T, *band)``:
the transforms and symbols act on it line by line as on each time
alone, and the norms and inner products reduce over the components and
the band only, returning one value per time.

Both transforms write into a given output and run their passes in a
:class:`Workspace`, whose buffers are allocated on first use and reused
by every later call, so a loop of transforms faults its memory in once.

Inner products follow the continuum normalization: the quadrature weight
``(2*pi/N)**dim / N**dim`` makes spectral sums equal integrals over the
domain, and H^s inner products use the Bessel symbol ``(1 + |k|^2)**s``
(an equivalent H^s norm on the torus).  In the half layout the sums
count the last-axis columns 1..c twice (for the unstored mirrors) and
column 0 once; :meth:`Grid.sobolev_quadrature` and
:meth:`Grid.alpha_quadrature` cache the symbols with that weight folded
in.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError, ContractViolation

TWO_PI = 2.0 * np.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def check_alpha(alpha: float) -> None:
    """Raise ConfigurationError unless alpha^2 and 1/alpha^2 are positive finite doubles.

    Every filter-length symbol squares alpha or divides by its square, so
    this is the range of filter lengths the package accepts.
    """
    alpha = float(alpha)
    alpha_sq = alpha * alpha
    # NaN fails every comparison, and 1/alpha^2 is only formed for alpha^2 > 0
    if not (alpha > 0.0 and 0.0 < alpha_sq < np.inf and 1.0 / alpha_sq < np.inf):
        raise ConfigurationError(
            f"alpha must be positive, with alpha^2 and 1/alpha^2 finite, got {alpha}")


def band_shape(dim: int, n: int) -> tuple[int, ...]:
    """``Grid(dim, n).spectral_shape``: the 2/3-rule band in the half layout."""
    return (2 * (n // 3) + 1,) * (dim - 1) + (n // 3 + 1,)


class Grid:
    """Uniform periodic grid with cached wavenumber machinery.

    Parameters
    ----------
    dim : 2 or 3
    n : points per axis, a power of two, at least 8.

    ``shape`` is the real-space shape and ``spectral_shape`` the band's
    (module docstring), whose non-last axes hold the full-axis rows
    ``band_rows``.  ``k`` and ``ik`` are broadcastable 1-D axes (sparse
    meshgrid), ``k_sq`` is dense in ``spectral_shape``; every other
    symbol is built on first use and kept read-only in one per-instance
    memo, so callers share it but cannot change it.
    """

    def __init__(self, dim: int, n: int):
        self.validate(dim, n)
        self.dim = dim
        self.n = n
        self.length = TWO_PI
        self.dealias_cutoff = c = n // 3
        self.shape = (n,) * dim
        self.spectral_shape = band_shape(dim, n)
        self.size = n**dim
        self.cell_volume = (TWO_PI / n) ** dim
        #: positions of the band's rows on a full non-last axis, in stored order
        self.band_rows = np.r_[0:c + 1, n - c:n]

        # integer wavenumbers on a 2*pi box
        row = np.fft.fftfreq(n, d=1.0 / n)[self.band_rows]
        axes = [row] * (dim - 1) + [np.arange(c + 1.0)]
        self.k = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
        self.ik = tuple(1j * k for k in self.k)
        self.k_sq = sum(k**2 for k in self.k)
        #: half-layout quadrature weight, broadcastable along the last
        #: axis: cell_volume / size times 2 on columns 1..c (for their
        #: unstored mirrors) and 1 on column 0
        weight = np.full(c + 1, 2.0 * self.cell_volume / self.size)
        weight[0] *= 0.5
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
        check_alpha(alpha)
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
        """1 / -|k|^2, the symbol of Lap^-1; 0 at the zero mode."""
        return self._cached(("inverse_laplacian",), lambda: np.divide(
            -1.0, self.k_sq, out=np.zeros(self.spectral_shape), where=self.k_sq != 0))

    def mode_index(self, kvec) -> tuple[int, ...]:
        """Array index of the stored coefficient for integer wavevector ``kvec``.

        Raises ContractViolation when a component lies outside the band
        or the last component is negative (that coefficient is the
        conjugate at ``-kvec``).
        """
        kvec = tuple(int(k) for k in kvec)
        c = self.dealias_cutoff
        if max(abs(k) for k in kvec) > c:
            raise ContractViolation(f"mode {kvec} lies outside the band |k_a| <= {c}")
        if kvec[-1] < 0:
            raise ContractViolation(
                f"mode {kvec} is not stored in the half layout; use the conjugate "
                "of its mirror"
            )
        return tuple(k % (2 * c + 1) for k in kvec)


class Workspace:
    """Scratch arrays reused from call to call, one buffer per name.

    ``take(name, shape, dtype)`` returns a contiguous view of the buffer
    ``name`` with that shape and undefined contents.  The buffer is
    allocated (``np.empty``) on its first request and replaced by a larger
    one when a request outgrows it, so a loop that repeats the same
    requests allocates only on its first pass.  Buffers hold bytes: one
    name can serve a complex role and then a real one.

    A view stays valid until its name is taken again, so each name has
    one owner that keeps it across its calls into others.  The one
    exception is :meth:`scratch`, which every function shares: the
    transforms run their passes in it, and between transforms any
    function may take it for temporaries that it drops before its next
    call.  A function that needs two such temporaries takes them in one
    stacked view.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape, dtype=float) -> np.ndarray:
        shape = tuple(shape)
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)

    def scratch(self, shape, dtype=float) -> np.ndarray:
        """A view of the shared buffer, valid until the next transform or scratch request."""
        return self.take("scratch", shape, dtype)


@functools.lru_cache(maxsize=None)
def _band_blocks(grid: Grid, axes: tuple) -> tuple[tuple[tuple, tuple], ...]:
    """(full-axis index, band index) pairs covering the band rows on ``axes``.

    On each listed spatial axis (negative, consecutive) the band rows
    ``0..c`` and ``-c..-1`` are two runs: the first ``c+1`` and the last
    ``c`` rows of a full axis, the first ``c+1`` and the last ``c`` of a
    band axis.
    """
    c, n = grid.dealias_cutoff, grid.n
    runs = ((slice(0, c + 1), slice(0, c + 1)), (slice(n - c, n), slice(c + 1, 2 * c + 1)))
    blocks = [((), ())]
    for _ in axes:
        blocks = [(full + (f,), band + (b,)) for full, band in blocks for f, b in runs]
    pad = (slice(None),) * (-axes[-1] - 1) if axes else ()
    return tuple(((Ellipsis,) + full + pad, (Ellipsis,) + band + pad)
                 for full, band in blocks)


def _pass_lines(grid: Grid, transform, full: np.ndarray, ax: int, band_axes) -> None:
    """``transform`` along ``ax``, in place, on the lines at band rows of ``band_axes``."""
    for index, _ in _band_blocks(grid, band_axes):
        block = full[index]
        transform(block, axis=ax, out=block)


def to_spectral(grid: Grid, values: np.ndarray, out: np.ndarray | None = None,
                work: Workspace | None = None) -> np.ndarray:
    """Forward transform over the spatial axes, onto the band, into ``out``.

    A real-to-complex pass along the last axis, one grid's worth at a
    time, kept on columns 0..cutoff, then a complex pass in place along
    each other axis, from the first to axis -2, on the lines at the band
    rows of the axes already passed.  Every kept line is transformed as
    ``np.fft.rfftn`` with that axis order transforms it, so the result is
    that transform's band, bit for bit.  ``out`` (fresh when ``None``)
    receives the band; the passes run in ``work``'s scratch and its
    ``"scratch.line"`` buffer.
    """
    values = np.asarray(values)
    # NaN propagates through min and max, and an inf is one of them
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ContractViolation("field contains non-finite values")
    work = Workspace() if work is None else work
    lead = values.shape[: values.ndim - grid.dim]
    half = grid.shape[:-1] + (grid.dealias_cutoff + 1,)
    full = work.scratch(lead + half, complex)
    line = work.take("scratch.line", grid.shape[:-1] + (grid.n // 2 + 1,), complex)
    for index in np.ndindex(*lead):
        np.fft.rfft(values[index], axis=-1, out=line)
        full[index] = line[..., :grid.dealias_cutoff + 1]
    axes = grid.spatial_axes[:-1]
    for i, ax in enumerate(axes):
        _pass_lines(grid, np.fft.fft, full, ax, axes[:i])
    if out is None:
        out = np.empty(lead + grid.spectral_shape, dtype=complex)
    for source, target in _band_blocks(grid, axes):
        out[target] = full[source]
    return out


def to_real(grid: Grid, hat: np.ndarray, out: np.ndarray | None = None,
            work: Workspace | None = None) -> np.ndarray:
    """Inverse transform of a band into ``out``; ``np.fft.irfftn`` of the zero-padded band.

    The band is scattered into a zeroed full layout, then complex passes
    run from the first axis to axis -2, each only on the lines at the
    band rows of the axes not yet passed, then a complex-to-real pass
    along the last axis, whose columns above the cutoff are zero.  A
    skipped line transforms to the zeros it already holds, so the result
    equals the full inverse of the zero-padded half spectrum bit for bit.
    ``out`` (fresh when ``None``) receives the samples; the passes run in
    ``work``'s scratch.
    """
    hat = np.asarray(hat)
    if hat.shape[hat.ndim - grid.dim:] != grid.spectral_shape:
        raise ContractViolation(f"spectral axes {hat.shape[hat.ndim - grid.dim:]} are not "
                                f"the band's {grid.spectral_shape}")
    work = Workspace() if work is None else work
    lead = hat.shape[: hat.ndim - grid.dim]
    c, n = grid.dealias_cutoff, grid.n
    full = work.scratch(lead + grid.shape[:-1] + (c + 1,), complex)
    axes = grid.spatial_axes[:-1]
    for ax in axes:  # zero the rows outside the band, then fill the band
        full[(Ellipsis, slice(c + 1, n - c)) + (slice(None),) * (-ax - 1)] = 0.0
    for target, source in _band_blocks(grid, axes):
        full[target] = hat[source]
    for i, ax in enumerate(axes):
        _pass_lines(grid, np.fft.ifft, full, ax, axes[i + 1:])
    if out is None:
        out = np.empty(lead + grid.shape)
    return np.fft.irfft(full, n=n, axis=-1, out=out)


def hermitian_defect(grid: Grid, hat: np.ndarray) -> float | np.ndarray:
    """max |hat(k) - conj hat(-k)| over the stored ``k_last = 0`` plane.

    That plane stores each mode and its mirror, which a real field makes
    conjugate; zero for every band the transforms produce.  The maximum
    runs over the components too, and a field with a time axis,
    ``(C, T, *band)``, gets one per time.
    """
    hat = np.asarray(hat)
    plane = hat[..., 0]
    rows = -np.arange(len(grid.band_rows)) % len(grid.band_rows)  # the row of -k
    mirror = plane[(Ellipsis,) + np.ix_(*[rows] * (grid.dim - 1))]
    gap = np.abs(plane - np.conj(mirror))
    if hat.ndim == grid.dim + 2:
        return np.max(gap, axis=(0,) + tuple(range(2, gap.ndim)), initial=0.0)
    return float(np.max(gap, initial=0.0))


def spectral_derivative(grid: Grid, hat: np.ndarray, axis: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """d/dx_axis in spectral space (multiply by the odd symbol i*k_axis), into ``out``."""
    if not 0 <= axis < grid.dim:
        raise ContractViolation(f"axis {axis} out of range for dim {grid.dim}")
    return np.multiply(grid.ik[axis], hat, out=out)


def _check_vector(grid: Grid, vec_hat: np.ndarray) -> None:
    if vec_hat.shape[0] != grid.dim:
        raise ContractViolation(
            f"expected {grid.dim} components, got {vec_hat.shape[0]}"
        )


def _divergence(grid: Grid, vec_hat: np.ndarray, out: np.ndarray,
                term: np.ndarray) -> np.ndarray:
    """sum_a i k_a vec_a into ``out``, each term after the first formed in ``term``."""
    spectral_derivative(grid, vec_hat[0], 0, out=out)
    for a in range(1, grid.dim):
        out += spectral_derivative(grid, vec_hat[a], a, out=term)
    return out


def divergence_hat(grid: Grid, vec_hat: np.ndarray) -> np.ndarray:
    _check_vector(grid, vec_hat)
    shape = vec_hat.shape[1:]
    return _divergence(grid, vec_hat, np.empty(shape, complex), np.empty(shape, complex))


def leray_project(grid: Grid, vec_hat: np.ndarray, out: np.ndarray | None = None,
                  work: Workspace | None = None) -> np.ndarray:
    """Orthogonal projection onto divergence-free fields, u - grad Lap^-1 div u.

    The zero mode is untouched.  Idempotent and L2 self-adjoint, and
    ``divergence_hat`` of the result is zero.  ``out`` (fresh when
    ``None``) may be ``vec_hat`` itself; the potential and each gradient
    component are formed in ``work``'s scratch.
    """
    _check_vector(grid, vec_hat)
    work = Workspace() if work is None else work
    potential, term = work.scratch((2,) + vec_hat.shape[1:], complex)
    _divergence(grid, vec_hat, potential, term)
    potential *= grid.inverse_laplacian
    if out is None:
        out = np.empty(vec_hat.shape, dtype=complex)
    for a in range(grid.dim):
        np.subtract(vec_hat[a], spectral_derivative(grid, potential, a, out=term), out=out[a])
    return out


def helmholtz_apply(grid: Grid, hat: np.ndarray, alpha: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Apply I - alpha^2 Laplacian (multiply by 1 + alpha^2 |k|^2), into ``out``."""
    return np.multiply(grid.helmholtz_symbol(alpha), hat, out=out)


def dealias(grid: Grid, hat: np.ndarray) -> np.ndarray:
    """The 2/3-rule filter on a band: the identity, since the band holds only kept modes."""
    return hat


def _quadrature(grid: Grid, a_hat, b_hat, symbol: np.ndarray,
                weights, work: Workspace | None = None) -> float | np.ndarray:
    """sum over stored modes and components of Re(a conj(b)) * symbol.

    ``symbol`` carries the quadrature weight; ``weights`` (one entry per
    component) scales each component's sum.  The first leading axis is
    the component axis; a second one is a time axis, ``(C, T, *band)``,
    which the sum keeps: a float for an unbatched field, a ``(T,)``
    array for a batched one, each time summed as it would be alone.
    ``b * symbol`` is formed in ``work``'s scratch (a fresh array when
    ``None``), so neither field may live there.
    """
    if a_hat.shape != b_hat.shape:
        raise ContractViolation("field shapes differ")
    lead = a_hat.shape[: a_hat.ndim - grid.dim]
    if a_hat.shape[len(lead):] != grid.spectral_shape:
        raise ContractViolation("field does not live on this grid")
    if len(lead) > 2:
        raise ContractViolation(f"leading axes {lead} are more than components and time")
    count = int(np.prod(lead))
    # real and imaginary parts side by side: one elementwise reduction
    # gives a.real * b.real + a.imag * b.imag (a BLAS dot would wake its
    # thread pool on every call)
    a_rows = np.ascontiguousarray(a_hat, dtype=complex).view(np.float64).reshape(count, -1)
    scaled = None if work is None else work.scratch(b_hat.shape, complex)
    b_rows = np.multiply(b_hat, symbol, out=scaled, dtype=complex).view(
        np.float64).reshape(count, -1)
    per_entry = np.einsum("ij,ij->i", a_rows, b_rows).reshape(lead or (1,))
    if weights is not None:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.shape != per_entry.shape[:1]:
            raise ContractViolation("weights do not match component count")
        per_entry *= w.reshape(w.shape + (1,) * (per_entry.ndim - 1))
    # components summed in order, one time at a time
    total = np.sum(per_entry, axis=0)
    return float(total) if total.ndim == 0 else total


def sobolev_inner(
    grid: Grid,
    a_hat: np.ndarray,
    b_hat: np.ndarray,
    s: float = 0.0,
    weights: np.ndarray | None = None,
    work: Workspace | None = None,
) -> float | np.ndarray:
    """H^s inner product via the Bessel symbol.

    The component axis is summed over and a time axis kept
    (:func:`_quadrature`, which takes its temporary from ``work``);
    ``weights`` (one entry per component) lets tensor fields stored as an
    upper triangle count off-diagonal entries twice.  ``s=0`` equals the
    L2 quadrature of the pointwise product over the domain.
    """
    if s < 0:
        raise ContractViolation(f"Sobolev order must be nonnegative, got {s}")
    return _quadrature(grid, a_hat, b_hat, grid.sobolev_quadrature(s), weights, work)


def sobolev_norm_sq(grid, hat, s=0.0, weights=None, work=None) -> float | np.ndarray:
    return sobolev_inner(grid, hat, hat, s, weights, work)


def sobolev_norm(grid, hat, s=0.0, weights=None, work=None) -> float | np.ndarray:
    norm = np.sqrt(np.maximum(sobolev_norm_sq(grid, hat, s, weights, work), 0.0))
    return float(norm) if norm.ndim == 0 else norm


def l2_inner(grid, a_hat, b_hat, weights=None) -> float | np.ndarray:
    return sobolev_inner(grid, a_hat, b_hat, 0.0, weights)


def l2_norm_sq(grid, hat, weights=None, work=None) -> float | np.ndarray:
    return sobolev_norm_sq(grid, hat, 0.0, weights, work)


def alpha_inner(grid: Grid, a_hat, b_hat, alpha: float, weights=None,
                work: Workspace | None = None) -> float | np.ndarray:
    """The alpha-model energy inner product (u,v) + alpha^2 (grad u, grad v).

    Realized by the symbol 1 + alpha^2 |k|^2; on the torus this equals
    the L2 pairing of (I - alpha^2 Laplacian) u with v.
    """
    return _quadrature(grid, a_hat, b_hat, grid.alpha_quadrature(alpha), weights, work)


def alpha_norm_sq(grid, hat, alpha, weights=None, work=None) -> float | np.ndarray:
    return alpha_inner(grid, hat, hat, alpha, weights, work)
