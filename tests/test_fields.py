"""Field types, kinematic operators, energies, random generators."""

import numpy as np
import pytest

import alphaflow.spectral as sp
from alphaflow.errors import ConfigurationError, ContractViolation
from alphaflow.fields import (
    PhysicalParams,
    SpinField,
    StressField,
    VelocityField,
    energy,
    random_divfree,
    random_stress,
    strain,
    vorticity,
)
from alphaflow.operators import commutator_hat
from alphaflow.spectral import Grid

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 32)


def shear_field(grid):
    x = grid.coordinates()
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[0] = np.sin(x[1])
    return VelocityField.from_values(grid, vals)


class TestPhysicalParams:
    def test_mu_recomputed(self):
        p = PhysicalParams(eta=3.0, lam=2.0, alpha=1.0)
        assert p.mu == 1.5

    @pytest.mark.parametrize("eta,lam,alpha", [
        (-1, 1, 1), (1, 0, 1), (1, 1, 0),
        (float("nan"), 1, 1), (1, float("nan"), 1), (1, 1, float("nan")),
        (float("inf"), 1, 1), (1, float("inf"), 1), (1, 1, float("inf")),
    ])
    def test_validation(self, eta, lam, alpha):
        with pytest.raises(ConfigurationError):
            PhysicalParams(eta=eta, lam=lam, alpha=alpha)


class TestVelocityField:
    def test_zero_mean_enforced(self, grid):
        hat = np.zeros((2,) + grid.spectral_shape, dtype=complex)
        hat[0][(0, 0)] = 5.0 * grid.size
        u = VelocityField(grid, hat, check=False)
        assert u.hat[0][(0, 0)] == 0.0

    def test_divergence_contract(self, grid):
        x = grid.coordinates()
        bad = np.zeros((2,) + grid.shape)
        bad[0] = np.sin(x[0])  # d1 sin(x1) != 0
        with pytest.raises(ContractViolation):
            VelocityField.from_values(grid, bad)
        repaired = sp.leray_project(grid, sp.to_spectral(grid, bad))
        VelocityField(grid, repaired)  # projection repairs

    def test_difference_stays_divergence_free(self, grid):
        a = random_divfree(grid, seed=1)
        b = random_divfree(grid, seed=2)
        assert (a - b).divergence_max() <= 1e-12

    def test_max_speed(self, grid):
        u = shear_field(grid)
        assert u.max_speed() == pytest.approx(1.0, abs=1e-12)


class TestStressField:
    def test_symmetry_by_construction(self, grid):
        s = random_stress(grid, seed=3)
        assert np.array_equal(s.entry_values(0, 1), s.entry_values(1, 0))

    def test_l2_norm_counts_offdiagonal_twice(self, grid):
        x = grid.coordinates()
        entries = np.zeros((3,) + grid.shape)
        entries[1] = np.sin(x[0])  # the (0,1) = (1,0) entry
        s = StressField.from_entry_values(grid, entries)
        assert s.l2_norm_sq() == pytest.approx(2.0 * TWO_PI**2 / 2.0, rel=1e-12)


class TestFromSamples:
    """Fields built from samples keep only the band, so values are to_real(hat)."""

    def test_stress_samples_above_the_band_are_dropped(self, grid):
        # white noise has modes above n // 3; the kept samples used to differ by 2.76
        entries = np.random.default_rng(3).standard_normal((3,) + grid.shape)
        sigma = StressField.from_entry_values(grid, entries)
        assert sigma._values is None
        assert np.max(np.abs(sigma.values - sp.to_real(grid, sigma.hat))) == 0.0
        assert np.max(np.abs(sigma.values - entries)) > 0.1

    def test_velocity_samples_above_the_band_are_dropped(self, grid):
        vals = np.random.default_rng(4).standard_normal((2,) + grid.shape)
        u = VelocityField.from_values(grid, vals, check=False)
        assert u._values is None
        assert np.max(np.abs(u.values - sp.to_real(grid, u.hat))) == 0.0


class TestStrainVorticity:
    def test_zero_field(self, grid):
        u = VelocityField.zero(grid)
        assert np.max(np.abs(strain(u).hat)) == 0.0
        assert np.max(np.abs(vorticity(u).hat)) == 0.0

    def test_shear_strain_oracle(self, grid):
        # u = (sin x2, 0): E12 = cos(x2)/2, diagonal zero
        u = shear_field(grid)
        e = strain(u)
        x = grid.coordinates()
        assert np.max(np.abs(e.entry_values(0, 1) - 0.5 * np.cos(x[1]))) <= 1e-12
        assert np.max(np.abs(e.entry_values(0, 0))) <= 1e-12
        assert np.max(np.abs(e.entry_values(1, 1))) <= 1e-12

    def test_shear_vorticity_oracle(self, grid):
        u = shear_field(grid)
        w = vorticity(u)
        x = grid.coordinates()
        assert np.max(np.abs(w.entry_values(0, 1) - 0.5 * np.cos(x[1]))) <= 1e-12
        assert np.array_equal(w.entry_values(1, 0), -w.entry_values(0, 1))
        assert np.max(np.abs(w.entry_values(0, 0))) == 0.0

    def test_strain_trace_free_on_divfree(self, grid):
        for seed in range(50):
            u = random_divfree(grid, seed=seed, spectrum_decay=3.0)
            e = strain(u)
            trace = e.entry_values(0, 0) + e.entry_values(1, 1)
            assert np.max(np.abs(trace)) <= 1e-10 * np.sqrt(u.h_norm_sq(1.0))


class TestCommutator:
    def test_identity_tensor_commutes(self, grid):
        entries = np.zeros((3,) + grid.shape)
        entries[0] = 1.0
        entries[2] = 1.0
        identity = StressField.from_entry_values(grid, entries)
        w = vorticity(shear_field(grid))
        comm = StressField(grid, commutator_hat(identity, w))
        assert np.max(np.abs(comm.hat)) / grid.size <= 1e-13

    def test_zero_spin(self, grid):
        s = random_stress(grid, seed=4)
        comm = StressField(grid, commutator_hat(s, SpinField.zero(grid)))
        assert np.max(np.abs(comm.hat)) == 0.0

    def test_2d_closed_form(self, grid):
        # sigma = [[a, b], [b, c]], W = [[0, w], [-w, 0]]:
        # sigma W - W sigma = [[-2bw, (a - c) w], [(a - c) w, 2bw]]
        x = grid.coordinates()
        a = np.sin(x[0])
        b = np.cos(x[1])
        c = np.sin(x[0] + x[1])
        w = np.cos(x[0])
        sigma = StressField.from_entry_values(grid, np.stack([a, b, c]))
        spin = SpinField(grid, sp.to_spectral(grid, w)[None])
        comm = StressField(grid, commutator_hat(sigma, spin))
        assert np.max(np.abs(comm.entry_values(0, 0) - (-2 * b * w))) <= 1e-11
        assert np.max(np.abs(comm.entry_values(0, 1) - (a - c) * w)) <= 1e-11
        assert np.max(np.abs(comm.entry_values(1, 1) - 2 * b * w)) <= 1e-11

    def test_orthogonality_to_sigma(self, grid):
        for seed in range(50):
            sigma = random_stress(grid, seed=100 + seed, spectrum_decay=2.5)
            u = random_divfree(grid, seed=200 + seed, spectrum_decay=2.5)
            comm = StressField(grid, commutator_hat(sigma, vorticity(u)))
            defect = abs(comm.l2_inner(sigma))
            scale = sigma.l2_norm_sq() * np.sqrt(u.h_norm_sq(1.0))
            assert defect <= 1e-10 * scale

    def test_grids_must_match(self, grid):
        s = random_stress(grid, seed=4)
        with pytest.raises(ContractViolation):
            commutator_hat(s, SpinField.zero(Grid(2, 16)))


class TestEnergy:
    def test_zero(self, grid):
        p = PhysicalParams(eta=1.0, lam=1.0, alpha=1.0)
        assert energy(VelocityField.zero(grid), StressField.zero(grid), p) == 0.0

    def test_shear_closed_form(self, grid):
        # 2 mu (|u|^2 + a^2 |grad u|^2) = 2 ((2pi)^2/2 + (2pi)^2/2) = 2 (2pi)^2
        p = PhysicalParams(eta=1.0, lam=1.0, alpha=1.0)
        value = energy(shear_field(grid), StressField.zero(grid), p)
        assert value == pytest.approx(2.0 * TWO_PI**2, rel=1e-12)

    def test_quadratic_scaling(self, grid):
        p = PhysicalParams(eta=2.0, lam=1.0, alpha=0.5)
        u = random_divfree(grid, seed=5)
        s = random_stress(grid, seed=6)
        base = energy(u, s, p)
        assert energy(u.scaled(3.0), s.scaled(3.0), p) == pytest.approx(
            9.0 * base, rel=1e-12)

    def test_zero_iff_both_vanish(self, grid):
        p = PhysicalParams(eta=1.0, lam=1.0, alpha=1.0)
        u = random_divfree(grid, seed=7)
        assert energy(u, StressField.zero(grid), p) > 0
        assert energy(VelocityField.zero(grid), random_stress(grid, seed=8), p) > 0


class TestRandomFields:
    def test_deterministic(self, grid):
        a = random_divfree(grid, seed=42)
        b = random_divfree(grid, seed=42)
        assert np.array_equal(a.hat, b.hat)

    def test_divergence_free(self, grid):
        assert random_divfree(grid, seed=9).divergence_max() <= 1e-12

    def test_spectrum_decay_within_factor_two(self):
        grid = Grid(2, 64)
        decay = 3.0
        u = random_divfree(grid, seed=42, spectrum_decay=decay)
        k_norm = np.sqrt(grid.k_sq)
        amp2 = np.sum(np.abs(u.hat) ** 2, axis=0)
        shells = [2, 4, 8, 16]
        rms = []
        for shell in shells:
            mask = (k_norm > shell - 0.5) & (k_norm <= shell + 0.5)
            rms.append(np.sqrt(np.mean(amp2[mask])))
        reference = rms[0] * (shells[0] ** decay)
        for shell, value in zip(shells, rms):
            ratio = value * shell**decay / reference
            assert 0.5 <= ratio <= 2.0

    def test_decay_validation(self, grid):
        with pytest.raises(ConfigurationError):
            random_divfree(grid, seed=0, spectrum_decay=1.0)
        with pytest.raises(ConfigurationError):
            random_stress(grid, seed=0, spectrum_decay=0.5)

    def test_random_stress_deterministic_symmetric(self, grid):
        a = random_stress(grid, seed=11)
        b = random_stress(grid, seed=11)
        assert np.array_equal(a.hat, b.hat)
        assert np.array_equal(a.entry_values(0, 1), a.entry_values(1, 0))


class Test3D:
    def test_operators_in_three_dimensions(self):
        grid = Grid(3, 16)
        u = random_divfree(grid, seed=1, spectrum_decay=3.0)
        assert u.divergence_max() <= 1e-12
        e = strain(u)
        trace = sum(e.entry_values(i, i) for i in range(3))
        assert np.max(np.abs(trace)) <= 1e-10 * np.sqrt(u.h_norm_sq(1.0))
        sigma = random_stress(grid, seed=2, spectrum_decay=3.0)
        comm = StressField(grid, commutator_hat(sigma, vorticity(u)))
        assert abs(comm.l2_inner(sigma)) <= 1e-10 * sigma.l2_norm_sq() * np.sqrt(
            u.h_norm_sq(1.0))
