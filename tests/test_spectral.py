"""Spectral core: transforms, derivatives, projection, filter, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaflow.spectral as sp
from alphaflow.errors import ConfigurationError, ContractViolation
from alphaflow.spectral import Grid

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 32)


class TestGrid:
    def test_basic(self, grid):
        assert grid.dim == 2
        assert grid.n == 32
        assert grid.dealias_cutoff == 10
        assert grid.dealias_cutoff < grid.n / 2
        assert grid.shape == (32, 32)

    @pytest.mark.parametrize("dim,n", [(1, 32), (4, 32), (2, 4), (2, 48), (2, 33)])
    def test_rejects_bad_parameters(self, dim, n):
        with pytest.raises(ConfigurationError):
            Grid(dim, n)

    def test_3d_supported(self):
        g = Grid(3, 8)
        assert g.k.shape == (3, 8, 8, 8)

    def test_wavenumbers_are_integers(self, grid):
        assert np.all(grid.k == np.round(grid.k))
        assert grid.k[0][grid.mode_index((5, 0))] == 5
        assert grid.k[0][grid.mode_index((-5, 0))] == -5


class TestTransform:
    def test_constant_field_spectrum(self, grid):
        hat = sp.to_spectral(grid, np.full(grid.shape, 2.5))
        assert hat[0, 0] == pytest.approx(2.5 * grid.size)
        rest = hat.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-10

    def test_single_harmonic_two_modes(self, grid):
        x = grid.coordinates()
        hat = sp.to_spectral(grid, np.sin(x[0]))
        nonzero = np.argwhere(np.abs(hat) > 1e-8 * grid.size)
        assert len(nonzero) == 2
        assert set(map(tuple, nonzero)) == {grid.mode_index((1, 0)),
                                            grid.mode_index((-1, 0))}

    def test_round_trip(self, grid):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(grid.shape)
        back = sp.to_real(grid, sp.to_spectral(grid, f))
        assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))

    def test_parseval(self, grid):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(grid.shape)
        real_space = np.sum(f**2) * grid.cell_volume
        spectral = sp.l2_norm_sq(grid, sp.to_spectral(grid, f))
        assert spectral == pytest.approx(real_space, rel=1e-12)

    def test_hermitian_symmetry_of_real_fields(self, grid):
        rng = np.random.default_rng(2)
        hat = sp.to_spectral(grid, rng.standard_normal(grid.shape))
        assert sp.hermitian_defect(grid, hat) < 1e-12
        hat[grid.mode_index((3, 1))] += 1.0  # breaking symmetry is detected
        assert sp.hermitian_defect(grid, hat) > 1e-8

    def test_nonfinite_rejected(self, grid):
        f = np.zeros(grid.shape)
        f[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            sp.to_spectral(grid, f)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
           n_lead=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_real_transforms_match_complex_fft(self, dim, n, n_lead, seed):
        # the real-to-complex pair must reproduce fftn / ifftn(...).real,
        # also on hats with non-Hermitian Nyquist planes: projections and
        # odd derivatives of fields that were not dealiased
        g = Grid(dim, n)
        lead = ((), (dim,), (2, dim))[n_lead]
        values = np.random.default_rng(seed).standard_normal(lead + g.shape)
        hat = sp.to_spectral(g, values)
        ref = np.fft.fftn(values, axes=g.spatial_axes)
        assert np.max(np.abs(hat - ref)) <= 1e-12 * np.max(np.abs(ref))

        hats = [ref] + [sp.spectral_derivative(g, ref, a) for a in range(dim)]
        if lead:
            vectors = ref.reshape((-1, dim) + g.shape)
            hats.append(np.stack([sp.leray_project(g, v) for v in vectors]))
        for h in hats:
            expected = np.fft.ifftn(h, axes=g.spatial_axes).real
            out = sp.to_real(g, h).reshape(expected.shape)
            assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDerivative:
    def test_sin_to_cos(self, grid):
        x = grid.coordinates()
        hat = sp.to_spectral(grid, np.sin(x[0]))
        d = sp.to_real(grid, sp.spectral_derivative(grid, hat, 0))
        assert np.max(np.abs(d - np.cos(x[0]))) <= 1e-12

    def test_constant_derivative_zero(self, grid):
        hat = sp.to_spectral(grid, np.full(grid.shape, 4.0))
        d = sp.to_real(grid, sp.spectral_derivative(grid, hat, 1))
        assert np.max(np.abs(d)) <= 1e-12

    def test_product_harmonic(self, grid):
        # d/dx2 of sin(2 x2) cos(x1) = 2 cos(2 x2) cos(x1)
        x = grid.coordinates()
        hat = sp.to_spectral(grid, np.sin(2 * x[1]) * np.cos(x[0]))
        d = sp.to_real(grid, sp.spectral_derivative(grid, hat, 1))
        expected = 2.0 * np.cos(2 * x[1]) * np.cos(x[0])
        assert np.max(np.abs(d - expected)) <= 1e-12

    def test_axis_out_of_range(self, grid):
        hat = np.zeros(grid.shape, dtype=complex)
        with pytest.raises(ContractViolation):
            sp.spectral_derivative(grid, hat, 2)


class TestLerayProjection:
    def test_annihilates_gradients(self, grid):
        x = grid.coordinates()
        phi = sp.to_spectral(grid, np.sin(x[0]) * np.sin(x[1]))
        proj = sp.leray_project(grid, sp.gradient_hat(grid, phi))
        assert np.max(np.abs(proj)) / grid.size <= 1e-12

    def test_divergence_free_unchanged(self, grid):
        x = grid.coordinates()
        u = np.zeros((2,) + grid.shape)
        u[0] = np.sin(x[1])
        hat = sp.to_spectral(grid, u)
        proj = sp.leray_project(grid, hat)
        assert np.max(np.abs(proj - hat)) / grid.size <= 1e-13

    def test_removes_gradient_part_per_mode_oracle(self, grid):
        rng = np.random.default_rng(3)
        hat = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
        proj = sp.leray_project(grid, hat)
        # independent per-mode formula: u - k (k.u)/|k|^2, looped explicitly
        expected = hat.copy()
        for idx in np.ndindex(*grid.shape):
            kvec = np.array([grid.k[a][idx] for a in range(2)])
            ksq = np.dot(kvec, kvec)
            if ksq == 0:
                continue
            coeff = np.array([hat[c][idx] for c in range(2)])
            coeff = coeff - kvec * (np.dot(kvec, coeff) / ksq)
            for c in range(2):
                expected[c][idx] = coeff[c]
        assert np.max(np.abs(proj - expected)) <= 1e-11 * np.max(np.abs(hat))

    def test_recovers_divfree_part(self, grid):
        from alphaflow.fields import random_divfree

        u = random_divfree(grid, seed=4)
        x = grid.coordinates()
        phi = sp.to_spectral(grid, np.cos(2 * x[0]) * np.sin(x[1]))
        mixed = u.hat + sp.gradient_hat(grid, phi)
        proj = sp.leray_project(grid, mixed)
        assert np.max(np.abs(proj - u.hat)) <= 1e-11 * np.max(np.abs(u.hat))

    def test_idempotent_and_self_adjoint(self, grid):
        rng = np.random.default_rng(5)
        for trial in range(100):
            f = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
            g = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
            pf = sp.leray_project(grid, f)
            ppf = sp.leray_project(grid, pf)
            assert np.max(np.abs(ppf - pf)) <= 1e-11 * np.max(np.abs(pf))
            lhs = sp.l2_inner(grid, pf, g)
            rhs = sp.l2_inner(grid, f, sp.leray_project(grid, g))
            scale = sp.sobolev_norm(grid, f) * sp.sobolev_norm(grid, g)
            assert abs(lhs - rhs) <= 1e-11 * scale

    def test_projected_field_divergence(self, grid):
        rng = np.random.default_rng(6)
        hat = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
        proj = sp.leray_project(grid, hat)
        div = sp.divergence_hat(grid, proj)
        assert np.max(np.abs(div)) / grid.size <= 1e-12 * np.max(np.abs(proj)) / grid.size * grid.n


class TestHelmholtz:
    def test_symbol_on_unit_mode(self, grid):
        x = grid.coordinates()
        hat = sp.to_spectral(grid, np.sin(x[0]))  # |k|^2 = 1
        out = sp.helmholtz_apply(grid, hat, 1.0)
        assert np.allclose(out, 2.0 * hat)

    def test_constant_unchanged(self, grid):
        hat = sp.to_spectral(grid, np.full(grid.shape, 1.5))
        assert np.allclose(sp.helmholtz_apply(grid, hat, 2.0), hat)

    def test_apply_invert_round_trip(self, grid):
        rng = np.random.default_rng(7)
        hat = sp.to_spectral(grid, rng.standard_normal(grid.shape))
        back = sp.helmholtz_invert(grid, sp.helmholtz_apply(grid, hat, 0.37), 0.37)
        assert np.max(np.abs(back - hat)) <= 1e-13 * np.max(np.abs(hat))

    def test_alpha_norm_matches_filtered_pairing(self, grid):
        # |u|_V^2 = ((I - a^2 Lap) u, u) on the torus
        rng = np.random.default_rng(8)
        hat = sp.to_spectral(grid, rng.standard_normal((2,) + grid.shape))
        direct = sp.alpha_norm_sq(grid, hat, 0.8)
        paired = sp.l2_inner(grid, sp.helmholtz_apply(grid, hat, 0.8), hat)
        assert direct == pytest.approx(paired, rel=1e-11)

    def test_rejects_nonpositive_alpha(self, grid):
        with pytest.raises(ConfigurationError):
            grid.helmholtz_symbol(0.0)


class TestSobolev:
    def test_constant_l2(self, grid):
        hat = sp.to_spectral(grid, np.full(grid.shape, 3.0))
        assert sp.sobolev_norm_sq(grid, hat) == pytest.approx(TWO_PI**2 * 9.0)

    def test_sin_l2_quadrature_oracle(self, grid):
        x = grid.coordinates()
        values = np.sin(x[0])
        quadrature = np.sum(values**2) * grid.cell_volume
        hat = sp.to_spectral(grid, values)
        assert sp.sobolev_norm_sq(grid, hat) == pytest.approx(quadrature, rel=1e-12)
        assert quadrature == pytest.approx(TWO_PI**2 / 2.0, rel=1e-12)

    def test_sin_h1_bessel_symbol(self, grid):
        x = grid.coordinates()
        hat = sp.to_spectral(grid, np.sin(x[0]))
        assert sp.sobolev_norm_sq(grid, hat, 1.0) == pytest.approx(
            2.0 * sp.sobolev_norm_sq(grid, hat), rel=1e-12)

    def test_symmetry_and_positivity(self, grid):
        rng = np.random.default_rng(9)
        f = sp.to_spectral(grid, rng.standard_normal(grid.shape))
        g = sp.to_spectral(grid, rng.standard_normal(grid.shape))
        assert sp.sobolev_inner(grid, f, g, 2.0) == pytest.approx(
            sp.sobolev_inner(grid, g, f, 2.0), rel=1e-12)
        assert sp.sobolev_norm_sq(grid, f, 2.0) > 0

    def test_monotone_in_order(self, grid):
        rng = np.random.default_rng(10)
        f = sp.to_spectral(grid, rng.standard_normal(grid.shape))
        norms = [sp.sobolev_norm_sq(grid, f, s) for s in (0.0, 1.0, 2.0, 3.0)]
        assert norms == sorted(norms)

    def test_grid_mismatch_rejected(self, grid):
        other = Grid(2, 16)
        f = np.zeros(grid.shape, dtype=complex)
        g = np.zeros(other.shape, dtype=complex)
        with pytest.raises(ContractViolation):
            sp.sobolev_inner(grid, f, g)

    def test_negative_order_rejected(self, grid):
        f = np.zeros(grid.shape, dtype=complex)
        with pytest.raises(ContractViolation):
            sp.sobolev_inner(grid, f, f, -1.0)


class TestDealias:
    def test_low_modes_unchanged(self, grid):
        x = grid.coordinates()
        hat = sp.to_spectral(grid, np.sin(3 * x[0]) * np.cos(2 * x[1]))
        assert np.allclose(sp.dealias(grid, hat), hat)

    def test_high_mode_zeroed(self, grid):
        hat = np.zeros(grid.shape, dtype=complex)
        k_high = grid.n // 2 - 1
        hat[grid.mode_index((k_high, 0))] = 1.0
        hat[grid.mode_index((-k_high, 0))] = 1.0
        assert np.max(np.abs(sp.dealias(grid, hat))) == 0.0

    def test_idempotent(self, grid):
        rng = np.random.default_rng(11)
        hat = sp.to_spectral(grid, rng.standard_normal(grid.shape))
        once = sp.dealias(grid, hat)
        assert np.array_equal(sp.dealias(grid, once), once)
