"""Spectral core: transforms, derivatives, projection, filter, norms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaflow.spectral as sp
from alphaflow.errors import ConfigurationError, ContractViolation
from alphaflow.spectral import Grid

from band_layout import crop, pad

TWO_PI = 2.0 * np.pi


def close(out, expected):
    """Max-norm agreement to 1e-12 of the oracle's largest entry."""
    return np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def full_wavenumbers(dim, n):
    """Dense (dim, n, ..., n) fftfreq wavenumbers of the full complex spectrum."""
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    return np.stack(np.meshgrid(*([k1] * dim), indexing="ij"))


def band_limited(grid, values):
    """``values`` with every mode outside the band removed, by numpy alone."""
    half = np.fft.rfftn(values, axes=grid.spatial_axes)
    return np.fft.irfftn(pad(grid, crop(grid, half)), s=grid.shape, axes=grid.spatial_axes)


#: the forward passes' axis order as an ``np.fft.rfftn`` axes argument:
#: rfftn transforms axes[-1] first and then the rest from the back, so
#: this runs the last axis, then the first axis up to axis -2
FORWARD_AXES = {2: (-2, -1), 3: (-2, -3, -1)}


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
        g = Grid(3, 8)  # cutoff 2: rows 0, 1, 2, -2, -1 and columns 0, 1, 2
        assert g.spectral_shape == (5, 5, 3)
        assert [k.shape for k in g.k] == [(5, 1, 1), (1, 5, 1), (1, 1, 3)]
        assert g.k_sq.shape == g.spectral_shape
        assert list(g.k[0].ravel()) == [0, 1, 2, -2, -1]
        assert list(g.k[2].ravel()) == [0, 1, 2]

    def test_wavenumbers_are_integers(self, grid):
        assert all(np.all(k == np.round(k)) for k in grid.k)
        assert grid.k[0].ravel()[grid.mode_index((5, 0))[0]] == 5
        assert grid.k[0].ravel()[grid.mode_index((-5, 0))[0]] == -5
        assert grid.k[1].ravel()[grid.mode_index((0, 5))[1]] == 5
        assert grid.mode_index((-10, 10)) == (11, 10)  # the band's corner
        with pytest.raises(ContractViolation):
            grid.mode_index((0, -5))  # the conjugate of (0, 5), not stored
        for outside in ((11, 0), (0, 11), (-11, 3), (0, -16)):
            with pytest.raises(ContractViolation, match="outside the band"):
                grid.mode_index(outside)

    def test_construction_memory(self):
        # Grid(3, 128) holds k_sq in the band and everything else as 1-D
        # axes; a dense (dim, n, n, n) wavenumber stack alone would take 50 MB
        tracemalloc.start()
        try:
            g = Grid(3, 128)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.spectral_shape == (85, 85, 43)
        assert held <= 32e6
        assert peak <= 64e6


class TestSymbolMemo:
    def test_bessel_symbol_built_once_and_read_only(self):
        grid = Grid(2, 16)
        first = grid.bessel_symbol(3.0)
        assert grid.bessel_symbol(3.0) is first
        assert np.array_equal(first, (1.0 + grid.k_sq) ** 3.0)
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_every_cached_symbol_is_read_only(self):
        grid = Grid(3, 8)
        symbols = (grid.helmholtz_symbol(0.5), grid.sobolev_quadrature(2.0),
                   grid.alpha_quadrature(0.5), grid.inverse_laplacian)
        for symbol in symbols:
            assert not symbol.flags.writeable
        assert grid.helmholtz_symbol(0.5) is symbols[0]


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
        # along the last axis the mode -k is the unstored mirror of +k
        hat = sp.to_spectral(grid, np.sin(x[1]))
        nonzero = np.argwhere(np.abs(hat) > 1e-8 * grid.size)
        assert set(map(tuple, nonzero)) == {grid.mode_index((0, 1))}

    def test_round_trip(self, grid):
        rng = np.random.default_rng(0)
        f = band_limited(grid, rng.standard_normal(grid.shape))
        back = sp.to_real(grid, sp.to_spectral(grid, f))
        assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))

    def test_parseval(self, grid):
        rng = np.random.default_rng(1)
        f = band_limited(grid, rng.standard_normal(grid.shape))
        real_space = np.sum(f**2) * grid.cell_volume
        spectral = sp.l2_norm_sq(grid, sp.to_spectral(grid, f))
        assert spectral == pytest.approx(real_space, rel=1e-12)

    def test_inverse_rejects_a_half_spectrum(self, grid):
        half = np.zeros(grid.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
        with pytest.raises(ContractViolation, match="band"):
            sp.to_real(grid, half)

    def test_nonfinite_rejected(self, grid):
        f = np.zeros(grid.shape)
        f[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            sp.to_spectral(grid, f)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
           n_lead=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_real_transforms_match_complex_fft(self, dim, n, n_lead, seed):
        # oracle: the full complex spectrum.  The band is its left half
        # cropped to |k_a| <= n // 3, and on band-limited fields the round
        # trip is exact, derivatives equal ifftn(i k fftn(f)).real, and the
        # projection equals the full-spectrum projection
        g = Grid(dim, n)
        lead = ((), (dim,), (2, dim))[n_lead]
        rng = np.random.default_rng(seed)
        values = band_limited(g, rng.standard_normal(lead + g.shape))
        hat = sp.to_spectral(g, values)
        full = np.fft.fftn(values, axes=g.spatial_axes)
        assert close(hat, crop(g, full[..., : n // 2 + 1]))
        assert close(sp.to_real(g, hat), values)

        k = full_wavenumbers(dim, n)
        for a in range(dim):
            expected = np.fft.ifftn(1j * k[a] * full, axes=g.spatial_axes).real
            assert close(sp.to_real(g, sp.spectral_derivative(g, hat, a)), expected)
        if lead:
            k_sq = np.sum(k**2, axis=0)
            inv = np.divide(1.0, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0)
            for v_full, v_band in zip(full.reshape((-1, dim) + g.shape),
                                      hat.reshape((-1, dim) + g.spectral_shape)):
                p_full = v_full - k * (np.sum(k * v_full, axis=0) * inv)
                p_band = sp.leray_project(g, v_band)
                assert close(p_band, crop(g, p_full[..., : n // 2 + 1]))
                expected = np.fft.ifftn(p_full, axes=g.spatial_axes)
                assert np.max(np.abs(expected.imag)) <= 1e-12 * np.max(np.abs(expected))
                assert close(sp.to_real(g, p_band), expected.real)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32, 64]),
           n_lead=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_forward_is_the_band_of_rfftn_bit_for_bit(self, dim, n, n_lead, seed):
        # on any field, band-limited or not: the forward transform keeps
        # exactly the band of rfftn run in the same axis order
        g = Grid(dim, n)
        lead = ((), (dim,), (2, dim))[n_lead]
        values = np.random.default_rng(seed).standard_normal(lead + g.shape)
        expected = crop(g, np.fft.rfftn(values, axes=FORWARD_AXES[dim]))
        assert np.array_equal(sp.to_spectral(g, values), expected)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32, 64]),
           n_lead=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_band_limited_inverse_is_irfftn_bit_for_bit(self, dim, n, n_lead, seed):
        # the inverse runs only the lines that hold band data, and equals
        # irfftn of the zero-padded half spectrum, derivatives included
        g = Grid(dim, n)
        lead = ((), (dim,), (2, dim))[n_lead]
        values = np.random.default_rng(seed).standard_normal(lead + g.shape)
        hat = sp.to_spectral(g, values)
        for field in [hat] + [sp.spectral_derivative(g, hat, a) for a in range(dim)]:
            expected = np.fft.irfftn(pad(g, field), s=g.shape, axes=g.spatial_axes)
            assert np.array_equal(sp.to_real(g, field), expected)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
           n_lead=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_inner_products_match_full_spectrum_sums(self, dim, n, n_lead, seed):
        # on band-limited fields the weighted band sums (column 0 once,
        # the rest twice) equal the plain sums over the full fftn spectrum;
        # a second leading axis is a time axis, one sum per time, so the
        # sums over it are added up
        g = Grid(dim, n)
        lead = ((), (dim,), (2, dim))[n_lead]
        rng = np.random.default_rng(seed)
        f, h = band_limited(g, rng.standard_normal((2,) + lead + g.shape))
        f_full, h_full = np.fft.fftn(np.stack([f, h]), axes=g.spatial_axes)
        f_hat, h_hat = sp.to_spectral(g, f), sp.to_spectral(g, h)
        k_sq = np.sum(full_wavenumbers(dim, n) ** 2, axis=0)

        def full_sum(a, b, symbol):
            return np.sum((a * np.conj(b)).real * symbol) * g.cell_volume / g.size

        cases = [((1.0 + k_sq) ** s, lambda a, b, s=s: sp.sobolev_inner(g, a, b, s))
                 for s in (0.0, 1.0, 2.0, 3.0)]
        cases.append((1.0, lambda a, b: sp.l2_inner(g, a, b)))
        cases += [(1.0 + alpha**2 * k_sq, lambda a, b, al=alpha: sp.alpha_inner(g, a, b, al))
                  for alpha in (0.3, 1.0)]
        for symbol, inner in cases:
            f_sq, h_sq = full_sum(f_full, f_full, symbol), full_sum(h_full, h_full, symbol)
            assert np.sum(inner(f_hat, f_hat)) == pytest.approx(f_sq, rel=1e-12)
            expected = full_sum(f_full, h_full, symbol)
            got = np.sum(inner(f_hat, h_hat))
            assert abs(got - expected) <= 1e-12 * np.sqrt(f_sq * h_sq)


class TestWorkspace:
    def test_a_name_keeps_its_buffer_until_a_request_outgrows_it(self):
        work = sp.Workspace()
        real = work.take("a", (4, 5))
        assert np.shares_memory(real, work.take("a", (2, 3), complex))
        assert not np.shares_memory(real, work.scratch((2,)))
        grown = work.take("a", (10, 10))
        assert not np.shares_memory(real, grown)
        assert np.shares_memory(grown, work.take("a", (4, 5)))

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_transforms_through_a_used_workspace_are_bitwise_fresh_ones(self, dim, n):
        # the inverse zeroes only the rows outside the band: whatever an
        # earlier call of any shape left in the buffers must not leak
        g = Grid(dim, n)
        rng = np.random.default_rng(dim)
        work = sp.Workspace()
        for lead in [(dim,), (), (2, 3), (1,)]:
            values = rng.standard_normal(lead + g.shape)
            hat = sp.to_spectral(g, values)
            out = np.empty_like(hat)
            assert sp.to_spectral(g, values, out=out, work=work) is out
            assert np.array_equal(out, hat)
            for field in [hat, sp.spectral_derivative(g, hat, dim - 1)]:
                back = np.empty(lead + g.shape)
                assert sp.to_real(g, field, out=back, work=work) is back
                assert np.array_equal(back, sp.to_real(g, field))
            sp.to_real(g, rng.standard_normal(hat.shape) + 0j, work=work)  # dirty buffers


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
        grad = np.stack([sp.spectral_derivative(grid, phi, a) for a in range(grid.dim)])
        proj = sp.leray_project(grid, grad)
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
        # over the stored modes: rows 0..c, -c..-1 and columns 0..c
        c = grid.n // 3
        rows, cols = np.r_[0:c + 1, -c:0], np.arange(c + 1)
        expected = hat.copy()
        for idx in np.ndindex(*grid.spectral_shape):
            kvec = np.array([rows[idx[0]], cols[idx[1]]], dtype=float)
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
        mixed = u.hat + np.stack([sp.spectral_derivative(grid, phi, a)
                                  for a in range(grid.dim)])
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

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 16, 32]),
           n_lead=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_idempotent_self_adjoint_divergence_free(self, dim, n, n_lead, seed):
        g = Grid(dim, n)
        lead = ((), (2,), (2, 3))[n_lead]
        rng = np.random.default_rng(seed)
        f, h = (sp.to_spectral(g, rng.standard_normal(lead + (dim,) + g.shape))
                .reshape((-1, dim) + g.spectral_shape) for _ in range(2))
        for f_v, h_v in zip(f, h):
            pf = sp.leray_project(g, f_v)
            assert close(sp.leray_project(g, pf), pf)
            lhs = sp.l2_inner(g, pf, h_v)
            rhs = sp.l2_inner(g, f_v, sp.leray_project(g, h_v))
            assert abs(lhs - rhs) <= 1e-12 * sp.sobolev_norm(g, f_v) * sp.sobolev_norm(g, h_v)
            div = sp.divergence_hat(g, pf)
            assert np.max(np.abs(div)) <= 1e-12 * n * np.max(np.abs(pf))

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
        back = sp.helmholtz_apply(grid, hat, 0.37) / grid.helmholtz_symbol(0.37)
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
    """The 2/3 rule is the forward transform's crop to the band."""

    def test_low_modes_unchanged(self, grid):
        x = grid.coordinates()
        values = np.sin(3 * x[0]) * np.cos(10 * x[1])  # |k_a| <= cutoff 10
        back = sp.to_real(grid, sp.to_spectral(grid, values))
        assert np.max(np.abs(back - values)) <= 1e-13

    def test_high_mode_zeroed(self, grid):
        x = grid.coordinates()
        k_high = grid.dealias_cutoff + 1
        for kx, ky in ((k_high, 0), (0, k_high), (-3, k_high), (grid.n // 2, 1)):
            hat = sp.to_spectral(grid, np.cos(kx * x[0] + ky * x[1]))
            assert np.max(np.abs(hat)) <= 1e-12 * grid.size

    def test_idempotent(self, grid):
        rng = np.random.default_rng(11)
        once = sp.to_real(grid, sp.to_spectral(grid, rng.standard_normal(grid.shape)))
        twice = sp.to_real(grid, sp.to_spectral(grid, once))
        assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))
