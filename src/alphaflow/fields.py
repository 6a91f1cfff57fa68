"""Vector and symmetric-tensor fields with their kinematic operators.

Velocity fields are divergence-free with zero mean per component; stress
fields are symmetric by construction (only the upper triangle is stored,
so symmetry cannot drift).  Both carry their coefficients on the 2/3-rule
band (:mod:`alphaflow.spectral`) as their one representation and cache
the real-space samples ``to_real(hat)`` on first use.  ``from_values``
and ``from_entry_values`` transform the given samples onto the band and
keep only the coefficients, so modes above the band are dropped and
``.values`` never disagrees with ``.hat``.
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


def symmetric_weights(dim: int) -> np.ndarray:
    """Multiplicity of each stored entry in a full-tensor contraction."""
    return np.array([1.0 if i == j else 2.0 for i, j in upper_indices(dim)])


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
        if not 0.0 < self.alpha < np.inf:
            raise ConfigurationError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def mu(self) -> float:
        return self.eta / self.lam


class VelocityField:
    """Divergence-free vector field with zero mean per component."""

    __slots__ = ("grid", "hat", "_values")

    #: divergence defect allowed relative to the H^1 norm
    DIV_TOL = 1e-10

    def __init__(self, grid: Grid, hat: np.ndarray, *, check: bool = True):
        hat = np.asarray(hat, dtype=complex)
        if hat.shape != (grid.dim,) + grid.spectral_shape:
            raise ContractViolation(
                f"velocity hat must have shape {(grid.dim,) + grid.spectral_shape}"
            )
        hat = hat.copy()
        hat[(slice(None),) + (0,) * grid.dim] = 0.0  # zero mean per component
        self.grid = grid
        self.hat = hat
        self._values = None
        if check:
            defect = self.divergence_max()
            scale = sp.sobolev_norm(grid, hat, 1.0)
            if defect > self.DIV_TOL * scale + 1e-14:
                raise ContractViolation(
                    f"velocity field is not divergence-free "
                    f"(defect {defect:.3e}, scale {scale:.3e})"
                )

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray, *,
                    check: bool = True) -> "VelocityField":
        return cls(grid, sp.to_spectral(grid, np.asarray(values, float)), check=check)

    @classmethod
    def zero(cls, grid: Grid) -> "VelocityField":
        return cls(grid, np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex),
                   check=False)

    @property
    def values(self) -> np.ndarray:
        """Real-space samples, transformed on first use and cached read-only."""
        if self._values is None:
            self._values = sp.to_real(self.grid, self.hat)
            self._values.flags.writeable = False
        return self._values

    def divergence_max(self) -> float:
        div = sp.divergence_hat(self.grid, self.hat)
        return float(np.max(np.abs(div)) / self.grid.size)

    def h_norm_sq(self, s: float = 0.0) -> float:
        return sp.sobolev_norm_sq(self.grid, self.hat, s)

    def alpha_norm_sq(self, alpha: float) -> float:
        return sp.alpha_norm_sq(self.grid, self.hat, alpha)

    def max_speed(self) -> float:
        return float(np.max(np.sqrt(np.sum(self.values**2, axis=0))))

    def __sub__(self, other: "VelocityField") -> "VelocityField":
        if other.grid != self.grid:
            raise ContractViolation("grids differ")
        return VelocityField(self.grid, self.hat - other.hat, check=False)

    def __add__(self, other: "VelocityField") -> "VelocityField":
        if other.grid != self.grid:
            raise ContractViolation("grids differ")
        return VelocityField(self.grid, self.hat + other.hat, check=False)

    def scaled(self, c: float) -> "VelocityField":
        return VelocityField(self.grid, c * self.hat, check=False)


class _TriangularTensorField:
    """Shared storage/algebra for symmetric and antisymmetric tensors."""

    __slots__ = ("grid", "hat", "_values")

    def __init__(self, grid: Grid, hat: np.ndarray):
        hat = np.asarray(hat, dtype=complex)
        expected = (len(self.index_pairs(grid.dim)),) + grid.spectral_shape
        if hat.shape != expected:
            raise ContractViolation(f"tensor hat must have shape {expected}")
        self.grid = grid
        self.hat = hat
        self._values = None

    @property
    def values(self) -> np.ndarray:
        """Real-space samples, transformed on first use and cached read-only."""
        if self._values is None:
            self._values = sp.to_real(self.grid, self.hat)
            self._values.flags.writeable = False
        return self._values

    def entry_values(self, i: int, j: int) -> np.ndarray:
        sign, pos = self._lookup(i, j)
        return sign * self.values[pos]


class StressField(_TriangularTensorField):
    """Symmetric tensor field stored as its upper triangle.

    Entry order is row-major over i <= j; ``weights`` carries the
    multiplicity (2 off-diagonal) used in tensor contractions.
    """

    @staticmethod
    def index_pairs(dim):
        return upper_indices(dim)

    def _lookup(self, i, j):
        if i > j:
            i, j = j, i
        return 1.0, self.index_pairs(self.grid.dim).index((i, j))

    @property
    def weights(self) -> np.ndarray:
        return symmetric_weights(self.grid.dim)

    @classmethod
    def zero(cls, grid: Grid) -> "StressField":
        return cls(grid, np.zeros((len(upper_indices(grid.dim)),) + grid.spectral_shape,
                                  dtype=complex))

    @classmethod
    def from_entry_values(cls, grid: Grid, values: np.ndarray) -> "StressField":
        return cls(grid, sp.to_spectral(grid, np.asarray(values, float)))

    def l2_inner(self, other: "StressField") -> float:
        return sp.l2_inner(self.grid, self.hat, other.hat, self.weights)

    def l2_norm_sq(self) -> float:
        return sp.l2_norm_sq(self.grid, self.hat, self.weights)

    def h_norm_sq(self, s: float) -> float:
        return sp.sobolev_norm_sq(self.grid, self.hat, s, self.weights)

    def __sub__(self, other: "StressField") -> "StressField":
        if other.grid != self.grid:
            raise ContractViolation("grids differ")
        return StressField(self.grid, self.hat - other.hat)

    def __add__(self, other: "StressField") -> "StressField":
        if other.grid != self.grid:
            raise ContractViolation("grids differ")
        return StressField(self.grid, self.hat + other.hat)

    def scaled(self, c: float) -> "StressField":
        return StressField(self.grid, c * self.hat)


class SpinField(_TriangularTensorField):
    """Antisymmetric tensor field stored as its strict upper triangle."""

    @staticmethod
    def index_pairs(dim):
        return strict_upper_indices(dim)

    def _lookup(self, i, j):
        if i == j:
            return 0.0, 0
        if i > j:
            return -1.0, self.index_pairs(self.grid.dim).index((j, i))
        return 1.0, self.index_pairs(self.grid.dim).index((i, j))

    @classmethod
    def zero(cls, grid: Grid) -> "SpinField":
        return cls(grid, np.zeros((len(strict_upper_indices(grid.dim)),)
                                  + grid.spectral_shape, dtype=complex))


def strain(u: VelocityField) -> StressField:
    """Symmetric velocity gradient E_ij = (d_j u_i + d_i u_j) / 2."""
    grid = u.grid
    entries = []
    for i, j in upper_indices(grid.dim):
        entries.append(0.5 * (sp.spectral_derivative(grid, u.hat[i], j)
                              + sp.spectral_derivative(grid, u.hat[j], i)))
    return StressField(grid, np.stack(entries))


def vorticity(u: VelocityField) -> SpinField:
    """Antisymmetric velocity gradient W_ij = (d_j u_i - d_i u_j) / 2."""
    grid = u.grid
    entries = []
    for i, j in strict_upper_indices(grid.dim):
        entries.append(0.5 * (sp.spectral_derivative(grid, u.hat[i], j)
                              - sp.spectral_derivative(grid, u.hat[j], i)))
    return SpinField(grid, np.stack(entries))


def energy(u: VelocityField, sigma: StressField, params: PhysicalParams) -> float:
    """The dissipated quadratic form 2 mu |u|_V^2 + |sigma|^2."""
    if u.grid != sigma.grid:
        raise ContractViolation("grids differ")
    return 2.0 * params.mu * u.alpha_norm_sq(params.alpha) + sigma.l2_norm_sq()


def _shaped_noise(grid: Grid, rng: np.random.Generator, n_components: int,
                  spectrum_decay: float) -> np.ndarray:
    """White noise on the band filtered to an isotropic |k|^(-decay) spectrum, zero mean."""
    noise = rng.standard_normal((n_components,) + grid.shape)
    hat = sp.to_spectral(grid, noise)
    k_norm = np.where(grid.k_sq > 0, np.sqrt(grid.k_sq), 1.0)
    return hat * np.where(grid.k_sq > 0, k_norm ** (-spectrum_decay), 0.0)


def random_divfree(grid: Grid, seed: int, spectrum_decay: float = 4.0,
                   amplitude: float = 1.0) -> VelocityField:
    """Reproducible divergence-free field with a power-law spectrum.

    Construction: real white noise per component, shaped to
    |k|^(-spectrum_decay) on the band, Leray-projected, then rescaled so
    the L2 norm equals ``amplitude``.
    """
    if spectrum_decay <= 1:
        raise ConfigurationError(
            f"spectrum_decay must exceed 1, got {spectrum_decay}"
        )
    rng = np.random.default_rng(seed)
    hat = _shaped_noise(grid, rng, grid.dim, spectrum_decay)
    hat = sp.leray_project(grid, hat)
    norm = np.sqrt(sp.l2_norm_sq(grid, hat))
    if norm > 0:
        hat *= amplitude / norm
    return VelocityField(grid, hat, check=False)


def random_stress(grid: Grid, seed: int, spectrum_decay: float = 4.0,
                  amplitude: float = 1.0) -> StressField:
    """Reproducible symmetric tensor field with a power-law spectrum."""
    if spectrum_decay <= 1:
        raise ConfigurationError(
            f"spectrum_decay must exceed 1, got {spectrum_decay}"
        )
    rng = np.random.default_rng(seed)
    n_entries = len(upper_indices(grid.dim))
    hat = _shaped_noise(grid, rng, n_entries, spectrum_decay)
    field = StressField(grid, hat)
    norm = np.sqrt(field.l2_norm_sq())
    if norm > 0:
        field = field.scaled(amplitude / norm)
    return field
