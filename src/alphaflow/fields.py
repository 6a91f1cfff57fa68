"""Vector and symmetric-tensor fields with their kinematic operators.

Velocity fields are divergence-free with zero mean per component; stress
fields are symmetric by construction (only the upper triangle is stored,
so symmetry cannot drift).  Every field class shares one base that holds
the coefficients on the 2/3-rule band (:mod:`alphaflow.spectral`) as
their one representation and caches the real-space samples
``to_real(hat)`` on first use.  ``VelocityField.from_values`` transforms
the given samples onto the band and keeps only the coefficients, so modes
above the band are dropped and ``.values`` never disagrees with ``.hat``.

A field may also hold one state per time of a series: coefficients of
shape ``(C, T, *band)``, the time axis right after the component axis
(:mod:`alphaflow.spectral`).  The operators act on each time as on that
time alone, and the norms and inner products return one value per time,
a ``(T,)`` array where an unbatched field returns a float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .errors import ConfigurationError, ContractViolation
from .spectral import Grid


def upper_indices(dim: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i <= j, in row-major order."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def strict_upper_indices(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


@dataclass(frozen=True)
class PhysicalParams:
    """Maxwell-alpha material parameters.

    ``eta`` is the Maxwellian viscosity (eta = 0 selects the Euler-alpha
    special case), ``lam`` the relaxation time, ``alpha`` the filter
    length.  The elastic modulus ``mu = eta / lam`` is always recomputed,
    never stored.
    """

    eta: float
    lam: float
    alpha: float

    def __post_init__(self):
        # chained comparisons: NaN fails every range, and inf is excluded
        if not 0.0 <= self.eta < np.inf:
            raise ConfigurationError(f"eta must be nonnegative and finite, got {self.eta}")
        if not 0.0 < self.lam < np.inf:
            raise ConfigurationError(f"lambda must be positive and finite, got {self.lam}")
        sp.check_alpha(self.alpha)

    @property
    def mu(self) -> float:
        return self.eta / self.lam


class _BandField:
    """Coefficients on the band, (C, *band) or (C, T, *band), with cached samples.

    Holds every field's algebra and norms; ``weights`` (``None``: all 1)
    counts each stored entry's multiplicity in the full tensor.
    """

    __slots__ = ("grid", "hat", "_values")

    weights = None

    def __init__(self, grid: Grid, hat: np.ndarray):
        hat = np.asarray(hat, dtype=complex)
        shape = (self.components(grid.dim),) + grid.spectral_shape
        if hat.shape != shape and hat.shape[:1] + hat.shape[2:] != shape:
            raise ContractViolation(
                f"{type(self).__name__} hat must have shape {shape}, or "
                f"{(shape[0], 'T') + grid.spectral_shape} with a time axis")
        self.grid = grid
        self.hat = hat
        self._values = None

    @property
    def values(self) -> np.ndarray:
        """Real-space samples, transformed on first use and cached read-only."""
        return self.values_in(sp.Workspace(), "values")

    def values_in(self, work: sp.Workspace, name: str) -> np.ndarray:
        """``values``, transformed on first use into ``work``'s buffer ``name``.

        The cached samples then live in that buffer, so the field must not
        be read once the name is taken again.
        """
        if self._values is None:
            hat = self.hat
            out = work.take(name, hat.shape[: hat.ndim - self.grid.dim] + self.grid.shape)
            self._values = sp.to_real(self.grid, hat, out=out, work=work)
            self._values.flags.writeable = False
        return self._values

    def _new(self, hat: np.ndarray):
        """A field of this class on this grid with coefficients ``hat``."""
        return type(self)(self.grid, hat)

    def h_norm_sq(self, s: float = 0.0, work: sp.Workspace | None = None) -> float | np.ndarray:
        return sp.sobolev_norm_sq(self.grid, self.hat, s, self.weights, work)

    def l2_norm_sq(self, work: sp.Workspace | None = None) -> float | np.ndarray:
        return sp.l2_norm_sq(self.grid, self.hat, self.weights, work)

    def l2_inner(self, other) -> float | np.ndarray:
        return sp.l2_inner(self.grid, self.hat, other.hat, self.weights)

    def __sub__(self, other):
        if other.grid != self.grid:
            raise ContractViolation("grids differ")
        return self._new(self.hat - other.hat)

    def scaled(self, c: float):
        return self._new(c * self.hat)


class VelocityField(_BandField):
    """Divergence-free vector field with zero mean per component."""

    __slots__ = ()

    #: divergence defect allowed relative to the H^1 norm
    DIV_TOL = 1e-10

    @staticmethod
    def components(dim: int) -> int:
        return dim

    def __init__(self, grid: Grid, hat: np.ndarray, *, check: bool = True):
        # a copy: the field never shares the caller's array
        self._own(grid, np.array(hat, dtype=complex))
        if check:
            failure = self.divergence_failure()
            if failure is not None:
                raise ContractViolation(failure[1])

    def _own(self, grid: Grid, hat: np.ndarray) -> None:
        super().__init__(grid, hat)
        self.hat[(Ellipsis,) + (0,) * grid.dim] = 0.0  # zero mean per component

    @classmethod
    def wrap(cls, grid: Grid, hat: np.ndarray) -> "VelocityField":
        """An unchecked field over ``hat`` itself, its mean zeroed in place.

        For complex arrays that the package has just made and no one
        else writes: the public constructor's copy is skipped.
        """
        field = cls.__new__(cls)
        field._own(grid, hat)
        return field

    def _new(self, hat: np.ndarray) -> "VelocityField":
        return VelocityField.wrap(self.grid, hat)

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "VelocityField":
        return cls(grid, sp.to_spectral(grid, np.asarray(values, float)))

    @classmethod
    def zero(cls, grid: Grid) -> "VelocityField":
        return cls.wrap(grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex))

    def divergence_failure(self) -> tuple[int, str] | None:
        """(time index, message) of the first time whose divergence is off, else None.

        A time is off when its :meth:`divergence_max` exceeds ``DIV_TOL``
        times its H^1 norm (plus 1e-14); an unbatched field has the one
        index 0.
        """
        defect = np.ravel(self.divergence_max())
        scale = np.ravel(sp.sobolev_norm(self.grid, self.hat, 1.0))
        failed = defect > self.DIV_TOL * scale + 1e-14
        if not np.any(failed):
            return None
        first = int(np.argmax(failed))
        return first, (f"velocity field is not divergence-free (defect "
                       f"{defect[first]:.3e}, scale {scale[first]:.3e})")

    def divergence_max(self) -> float | np.ndarray:
        """Largest |div u| coefficient on the band over N^dim; one per time."""
        div = np.abs(sp.divergence_hat(self.grid, self.hat))
        defect = np.max(div, axis=self.grid.spatial_axes) / self.grid.size
        return float(defect) if defect.ndim == 0 else defect

    def alpha_norm_sq(self, alpha: float,
                      work: sp.Workspace | None = None) -> float | np.ndarray:
        return sp.alpha_norm_sq(self.grid, self.hat, alpha, work=work)

    def max_speed(self, work: sp.Workspace | None = None) -> float:
        """max |u| over the grid, |u|^2 summed in ``work``'s scratch."""
        values = self.values
        squares = (sp.Workspace() if work is None else work).scratch((2,) + values.shape[1:])
        np.square(values[0], out=squares[0])
        for component in values[1:]:
            squares[0] += np.square(component, out=squares[1])
        # sqrt is monotone: the root of the max is the max of the roots
        return float(np.sqrt(np.max(squares[0])))


class StressField(_BandField):
    """Symmetric tensor field stored as its upper triangle, row-major over i <= j."""

    __slots__ = ()

    @staticmethod
    def components(dim: int) -> int:
        return len(upper_indices(dim))

    @property
    def weights(self) -> np.ndarray:
        return np.array([1.0 if i == j else 2.0 for i, j in upper_indices(self.grid.dim)])

    @classmethod
    def zero(cls, grid: Grid) -> "StressField":
        return cls(grid, np.zeros((cls.components(grid.dim),) + grid.spectral_shape,
                                  dtype=complex))

    def entry_values(self, i: int, j: int) -> np.ndarray:
        """Real-space samples of the entry (i, j), which is also (j, i)."""
        return self.values[upper_indices(self.grid.dim).index((min(i, j), max(i, j)))]


class SpinField(_BandField):
    """Antisymmetric tensor field stored as its strict upper triangle (W_ji = -W_ij)."""

    __slots__ = ()

    @staticmethod
    def components(dim: int) -> int:
        return len(strict_upper_indices(dim))

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.components(self.grid.dim), 2.0)


def _gradient_part(u: VelocityField, pairs, combine, out, work) -> np.ndarray:
    """Entries 0.5 * combine(d_j u_i, d_i u_j) for (i, j) in ``pairs``, into ``out``."""
    grid = u.grid
    if out is None:
        out = np.empty((len(pairs),) + u.hat.shape[1:], dtype=complex)
    term = (sp.Workspace() if work is None else work).scratch(u.hat.shape[1:], complex)
    for entry, (i, j) in zip(out, pairs):
        sp.spectral_derivative(grid, u.hat[i], j, out=entry)
        combine(entry, sp.spectral_derivative(grid, u.hat[j], i, out=term), out=entry)
        np.multiply(0.5, entry, out=entry)
    return out


def strain(u: VelocityField, out: np.ndarray | None = None,
           work: sp.Workspace | None = None) -> StressField:
    """Symmetric velocity gradient E_ij = (d_j u_i + d_i u_j) / 2, over ``out`` if given."""
    return StressField(u.grid, _gradient_part(u, upper_indices(u.grid.dim), np.add,
                                              out, work))


def vorticity(u: VelocityField, out: np.ndarray | None = None,
              work: sp.Workspace | None = None) -> SpinField:
    """Antisymmetric velocity gradient W_ij = (d_j u_i - d_i u_j) / 2, over ``out`` if given."""
    return SpinField(u.grid, _gradient_part(u, strict_upper_indices(u.grid.dim),
                                            np.subtract, out, work))


def energy(u: VelocityField, sigma: StressField, params: PhysicalParams) -> float:
    """The dissipated quadratic form 2 mu |u|_V^2 + |sigma|^2."""
    if u.grid != sigma.grid:
        raise ContractViolation("grids differ")
    return 2.0 * params.mu * u.alpha_norm_sq(params.alpha) + sigma.l2_norm_sq()


def _shaped_noise(grid: Grid, seed: int, n_components: int,
                  spectrum_decay: float) -> np.ndarray:
    """White noise on the band filtered to an isotropic |k|^(-decay) spectrum, zero mean."""
    if spectrum_decay <= 1:
        raise ConfigurationError(
            f"spectrum_decay must exceed 1, got {spectrum_decay}"
        )
    noise = np.random.default_rng(seed).standard_normal((n_components,) + grid.shape)
    hat = sp.to_spectral(grid, noise)
    k_norm = np.where(grid.k_sq > 0, np.sqrt(grid.k_sq), 1.0)
    return hat * np.where(grid.k_sq > 0, k_norm ** (-spectrum_decay), 0.0)


def random_divfree(grid: Grid, seed: int, spectrum_decay: float = 4.0) -> VelocityField:
    """Reproducible divergence-free field with a power-law spectrum.

    Construction: real white noise per component, shaped to
    |k|^(-spectrum_decay) on the band, Leray-projected, then rescaled so
    the L2 norm is 1.
    """
    hat = _shaped_noise(grid, seed, grid.dim, spectrum_decay)
    hat = sp.leray_project(grid, hat)
    norm = np.sqrt(sp.l2_norm_sq(grid, hat))
    if norm > 0:
        hat *= 1.0 / norm
    return VelocityField.wrap(grid, hat)


def random_stress(grid: Grid, seed: int, spectrum_decay: float = 4.0) -> StressField:
    """Reproducible symmetric tensor field with a power-law spectrum and unit L2 norm."""
    hat = _shaped_noise(grid, seed, StressField.components(grid.dim), spectrum_decay)
    field = StressField(grid, hat)
    norm = np.sqrt(field.l2_norm_sq())
    if norm > 0:
        field = field.scaled(1.0 / norm)
    return field
