import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import (
    Field,
    Grid,
    InvalidField,
    NonRealSpectrum,
    SpectralField,
    dealias_product,
    dealias_triple,
    derivative,
    forward_transform,
    helmholtz_inverse,
    inverse_transform,
)
from besovlab.corpus import _random_samples, random_field
from besovlab.spectral import (
    _apply,
    _dealias,
    _derivative_multiplier,
    _fft,
    _helmholtz_multiplier,
    _ifft,
    _inner,
    _parseval_residual,
    _real_ifft,
)

from conftest import rng


def _full_band_samples(grid, draws, rows):
    """(rows, N) samples with random_field's spectrum on every mode, the
    Nyquist mode included, drawn from draws as _random_samples draws them."""
    n, h = grid.num_points, grid.nyquist_index
    re, im = draws.standard_normal((rows, 2, n)).transpose(1, 0, 2)
    mirror = -np.arange(h + 1)
    weight = (1.0 + grid.xi) ** -1.5
    coeffs = (0.5 * weight) * (
        (re[:, : h + 1] + re[:, mirror]) + 1j * (im[:, : h + 1] - im[:, mirror])
    )
    return _ifft(grid, coeffs)


def _full_band_field(grid, draws):
    return Field(grid, _full_band_samples(grid, draws, 1)[0])


class TestForwardTransform:
    def test_cosine_mass(self, trig_grid):
        g = trig_grid
        xi1 = math.pi / g.half_length
        f = Field(g, np.cos(xi1 * g.x))
        F = forward_transform(f).coeffs
        at = np.isclose(g.xi, xi1)
        assert np.allclose(F[at], g.half_length, atol=1e-10)
        assert np.abs(F[~at]).max() <= 1e-12 * g.half_length

    def test_zero_maps_to_zero(self, trig_grid):
        F = forward_transform(Field.zero(trig_grid))
        assert np.abs(F.coeffs).max() == 0.0

    def test_gaussian_closed_form(self):
        # continuous transform of exp(-x^2/2) is sqrt(2 pi) exp(-xi^2/2)
        g = Grid(2**12, 32.0)
        f = Field(g, np.exp(-(g.x**2) / 2))
        F = forward_transform(f).coeffs
        exact = math.sqrt(2 * math.pi) * np.exp(-(g.xi**2) / 2)
        assert np.abs(F - exact).max() <= 1e-10

    def test_nan_rejected(self, trig_grid):
        bad = np.zeros(trig_grid.num_points)
        bad[3] = np.nan
        with pytest.raises(InvalidField):
            Field(trig_grid, bad)


class TestInverseTransform:
    def test_single_pair_gives_cosine(self, trig_grid):
        g = trig_grid
        coeffs = np.zeros(g.xi.size, dtype=complex)
        coeffs[1] = g.half_length  # stands for the pair k = +-1
        f = inverse_transform(SpectralField(g, coeffs))
        xi1 = math.pi / g.half_length
        assert np.abs(f.samples - np.cos(xi1 * g.x)).max() <= 1e-12

    def test_zero(self, trig_grid):
        f = inverse_transform(SpectralField(trig_grid, np.zeros(trig_grid.xi.size)))
        assert f.max_abs() == 0.0

    def test_round_trip_from_spectrum(self, trig_grid):
        # full band, Nyquist mode included
        for seed in range(20):
            F = forward_transform(_full_band_field(trig_grid, rng(seed)))
            back = forward_transform(inverse_transform(F))
            scale = np.abs(F.coeffs).max()
            assert np.abs(back.coeffs - F.coeffs).max() <= 1e-12 * scale

    def test_non_hermitian_rejected(self, trig_grid):
        # the k = 0 and Nyquist entries are their own conjugate partners, so
        # they must be real; every other entry stands for a conjugate pair
        f = _full_band_field(trig_grid, rng(17))
        for entry in (0, -1):
            F = forward_transform(f).coeffs.copy()
            F[entry] = F[entry].real
            back = inverse_transform(SpectralField(trig_grid, F))
            assert np.abs(back.samples - f.samples).max() <= 1e-12 * f.max_abs()
            F[entry] += 1e-6j * np.abs(F).max()
            with pytest.raises(NonRealSpectrum):
                inverse_transform(SpectralField(trig_grid, F))

    def test_round_trip_many_fields(self, trig_grid):
        worst = 0.0
        for seed in range(200):
            f = random_field(trig_grid, rng(seed))
            back = inverse_transform(forward_transform(f))
            worst = max(worst, np.abs(back.samples - f.samples).max() / f.max_abs())
        assert worst <= 1e-12

    def test_parseval_identity(self, trig_grid):
        for seed in range(50):
            f = random_field(trig_grid, rng(seed))
            assert _parseval_residual(trig_grid, f.samples) <= 1e-10

    def test_row_block_matches_one_field_calls(self, trig_grid):
        g = trig_grid
        block = _random_samples(g, rng(7), 5)
        draws = rng(7)
        fields = [random_field(g, draws) for _ in range(5)]
        coeffs = _fft(g, block)
        back = _real_ifft(g, coeffs)
        residuals = _parseval_residual(g, block)
        d1, d2 = _derivative_multiplier(g, 1), _derivative_multiplier(g, 2)
        for r, f in enumerate(fields):
            assert np.array_equal(block[r], f.samples)
            assert np.array_equal(coeffs[r], forward_transform(f).coeffs)
            assert np.array_equal(back[r], inverse_transform(forward_transform(f)).samples)
            assert residuals[r] == _parseval_residual(g, f.samples)
            assert np.array_equal(_apply(g, d1, block)[r], derivative(f, 1).samples)
            assert np.array_equal(_apply(g, d2, block)[r], derivative(f, 2).samples)
            helmholtz = _apply(g, _helmholtz_multiplier(g), block)[r]
            assert np.array_equal(helmholtz, helmholtz_inverse(f).samples)
        assert _parseval_residual(g, np.zeros((2, g.num_points))).tolist() == [0.0, 0.0]

    def test_row_block_rejects_one_non_real_row(self, trig_grid):
        coeffs = _fft(trig_grid, _random_samples(trig_grid, rng(8), 4))
        coeffs[2, -1] += 1e-6j * np.abs(coeffs[2]).max()
        with pytest.raises(NonRealSpectrum):
            _real_ifft(trig_grid, coeffs)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-10, 10, allow_nan=False), b=st.floats(-10, 10, allow_nan=False))
def test_transform_linearity(a, b):
    g = Grid(256, math.pi)
    f1 = random_field(g, rng(1))
    f2 = random_field(g, rng(2))
    lhs = forward_transform(Field(g, a * f1.samples + b * f2.samples)).coeffs
    rhs = a * forward_transform(f1).coeffs + b * forward_transform(f2).coeffs
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_public_layout():
    g = Grid(2**10, 16 * math.pi)
    F = forward_transform(random_field(g, rng(18))).coeffs
    assert F.shape == g.xi.shape == (g.num_points // 2 + 1,)
    assert g.xi[0] == 0.0 and np.all(np.diff(g.xi) > 0)
    assert g.xi[-1] == pytest.approx(g.xi_max, rel=1e-15)


class TestDerivative:
    def test_sin_first_order(self, trig_grid):
        g = trig_grid
        for k in (1, 3, 10):
            d = derivative(Field(g, np.sin(k * g.x)), 1)
            assert np.abs(d.samples - k * np.cos(k * g.x)).max() <= 1e-11 * k

    def test_cos_second_order(self, trig_grid):
        g = trig_grid
        k = 4
        d = derivative(Field(g, np.cos(k * g.x)), 2)
        assert np.abs(d.samples + k**2 * np.cos(k * g.x)).max() <= 1e-10 * k**2

    def test_order_validation(self, trig_grid):
        with pytest.raises(ValueError):
            derivative(Field.zero(trig_grid), 4)

    def test_bump_matches_finite_differences(self, box_bump):
        # 4th-order central stencil on the same samples; error contracts ~16x
        # per grid halving, so the coarse-grid error bounds the fine one.
        errs = []
        for pts in (2**12, 2**13):
            from besovlab import build_bump

            g = Grid(pts, 32 * math.pi)
            phi = build_bump(g)
            d_spec = derivative(phi, 1).samples
            s = phi.samples
            d_fd = (
                -np.roll(s, -2) + 8 * np.roll(s, -1) - 8 * np.roll(s, 1) + np.roll(s, 2)
            ) / (12 * g.dx)
            errs.append(np.abs(d_spec - d_fd).max())
        assert errs[1] <= 1e-9
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)

    def test_composition_matches_second_order(self, trig_grid):
        for seed in range(20):
            f = random_field(trig_grid, rng(seed))
            d11 = derivative(derivative(f, 1), 1)
            d2 = derivative(f, 2)
            assert np.abs(d11.samples - d2.samples).max() <= 1e-10 * d2.max_abs()


class TestHelmholtzInverse:
    def test_cosine_eigenfunction(self, trig_grid):
        g = trig_grid
        for k in (1, 5):
            out = helmholtz_inverse(Field(g, np.cos(k * g.x)))
            assert np.abs(out.samples - np.cos(k * g.x) / (1 + k**2)).max() <= 1e-12

    def test_constant_fixed_point(self, trig_grid):
        out = helmholtz_inverse(Field.constant(trig_grid, 1.0))
        assert np.abs(out.samples - 1.0).max() <= 1e-12

    def test_inverse_property(self, trig_grid):
        f = random_field(trig_grid, rng(11))
        h = helmholtz_inverse(f)
        recovered = Field(
            trig_grid, h.samples - derivative(h, 2).samples
        )
        assert np.abs(recovered.samples - f.samples).max() <= 1e-10 * f.max_abs()

    def test_gaussian_matches_kernel_quadrature(self):
        # oracle: trapezoid of 0.5*exp(-|x-y|)*f(y) on a 64x refined grid,
        # evaluated at a subset of nodes
        g = Grid(2**12, 32.0)
        f = Field(g, np.exp(-(g.x**2) / 2))
        out = helmholtz_inverse(f).samples
        refine = 64
        fine = np.linspace(-32.0, 32.0, g.num_points * refine, endpoint=False)
        fy = np.exp(-(fine**2) / 2)
        dxf = fine[1] - fine[0]
        idx = np.arange(0, g.num_points, 128)
        for i in idx:
            xi = g.x[i]
            oracle = 0.5 * dxf * np.sum(np.exp(-np.abs(xi - fine)) * fy)
            assert abs(out[i] - oracle) <= 1e-8

    def test_self_adjoint(self, trig_grid):
        for seed in range(20):
            f = random_field(trig_grid, rng(seed))
            h = random_field(trig_grid, rng(seed + 100))
            a = _inner(trig_grid, helmholtz_inverse(f).samples, h.samples)
            b = _inner(trig_grid, f.samples, helmholtz_inverse(h).samples)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


class TestDealiasProduct:
    def test_cos_squared(self, trig_grid):
        g = trig_grid
        k = 7
        f = Field(g, np.cos(k * g.x))
        out = dealias_product(f, f, 2)
        assert np.abs(out.samples - (1 + np.cos(2 * k * g.x)) / 2).max() <= 1e-12

    def test_one_is_identity(self, trig_grid):
        f = random_field(trig_grid, rng(13))
        out = dealias_product(Field.constant(trig_grid, 1.0), f, 2)
        assert np.abs(out.samples - f.samples).max() <= 1e-12 * f.max_abs()

    def test_full_band_matches_fine_grid(self, trig_grid):
        # reference: same product on a 4x finer grid, truncated to this band;
        # on 258 points the 3/2 rule's 387 is rounded up to 388
        from besovlab.spectral import _coeffs, _from_padded, _to_field, _to_padded

        for g in (trig_grid, Grid(258, math.pi)):
            f = _full_band_field(g, rng(14))
            h = _full_band_field(g, rng(15))
            out = dealias_product(f, h, 2)

            fine = Grid(4 * g.num_points, g.half_length)
            ff = _to_padded(g, _coeffs(f), fine)
            hf = _to_padded(g, _coeffs(h), fine)
            ref = _to_field(g, _from_padded(g, fine, ff, hf))
            assert np.abs(out.samples - ref.samples).max() <= 1e-10 * max(ref.max_abs(), 1.0)

    def test_triple_product_band_limited_exact(self, trig_grid):
        g = trig_grid
        f = Field(g, np.cos(3 * g.x))
        out = dealias_triple(f, f, f)
        exact = np.cos(3 * g.x) ** 3
        assert np.abs(out.samples - exact).max() <= 1e-12

    def test_degree_validation(self, trig_grid):
        f = Field.zero(trig_grid)
        with pytest.raises(ValueError):
            dealias_product(f, f, 4)

    def test_row_block_matches_one_field_calls(self, trig_grid):
        g = trig_grid
        u, v, w = _full_band_samples(g, rng(9), 12).reshape(3, 4, -1)
        U, V, W = (_fft(g, rows) for rows in (u, v, w))
        quadratic = _dealias(g, 2, U, V)
        triple = _dealias(g, 3, U, V, W)
        for r in range(4):
            f, h, k = (Field(g, rows[r]) for rows in (u, v, w))
            assert np.array_equal(_ifft(g, quadratic[r]), dealias_product(f, h, 2).samples)
            assert np.array_equal(_ifft(g, triple[r]), dealias_triple(f, h, k).samples)

    def test_repeated_factor_padded_once(self, trig_grid, monkeypatch):
        from besovlab import spectral

        g = trig_grid
        a, b = (_fft(g, rows) for rows in _full_band_samples(g, rng(17), 2))
        fine = spectral._padded_grid(g, 3)
        pads = [spectral._to_padded(g, F, fine) for F in (a, a, b)]
        explicit = spectral._from_padded(g, fine, *pads)
        real = spectral._to_padded
        calls = []
        monkeypatch.setattr(spectral, "_to_padded", lambda *args: calls.append(None) or real(*args))
        assert np.array_equal(_dealias(g, 3, a, a, b), explicit)
        assert len(calls) == 2


class TestNyquistMode:
    """The half-spectrum's last entry stands for both xi = +-xi_max.  Only
    full-band fields carry it; band-limited data would hide a mishandled one."""

    def test_padding_keeps_the_coarse_field(self, trig_grid):
        from besovlab.spectral import _coeffs, _derivative_multiplier, _padded_grid, _to_padded

        g = trig_grid
        fine = _padded_grid(g, 3)  # factor 2: the even fine points are the coarse ones
        f = _full_band_field(g, rng(16))
        F = _coeffs(f)
        assert abs(F[-1]) > 1e-6 * np.abs(F).max()
        padded = _to_padded(g, F, fine)
        assert np.abs(padded[::2] - f.samples).max() <= 1e-13 * f.max_abs()
        # i*xi*F pads like the coarse field it stands for: an imaginary Nyquist
        # entry would add a sine mode that shows at the odd fine points only
        fx = derivative(f, 1)
        padded = _to_padded(g, _derivative_multiplier(g, 1) * F, fine)
        assert np.abs(padded - _to_padded(g, _coeffs(fx), fine)).max() <= 1e-13 * fx.max_abs()
        assert np.abs(padded[::2] - fx.samples).max() <= 1e-13 * fx.max_abs()

    def test_derivatives_of_the_nyquist_mode(self, trig_grid):
        g = trig_grid
        mode = Field(g, (-1.0) ** np.arange(g.num_points))
        assert derivative(mode, 1).max_abs() <= 1e-13 * g.xi_max
        d2 = derivative(mode, 2)
        assert np.abs(d2.samples + g.xi_max**2 * mode.samples).max() <= 1e-13 * g.xi_max**2


def test_padded_grid_rounds_up_to_even_and_is_cached():
    from besovlab.spectral import _padded_grid

    g = Grid(258, math.pi)  # N = 2 (mod 4): 3N/2 is odd
    fine = _padded_grid(g, 2)
    assert (fine.num_points, fine.half_length) == (3 * 258 // 2 + 1, g.half_length)
    assert _padded_grid(g, 2) is fine


def test_grid_invariants():
    g = Grid(2**10, 16 * math.pi)
    assert g.dx * g.num_points == 2 * g.half_length
    assert g.num_points % 2 == 0
    # half-spectrum frequencies: equispaced by pi/L
    assert np.allclose(np.diff(g.xi), math.pi / g.half_length, rtol=1e-12, atol=0)
    with pytest.raises(ValueError):
        Grid(15, 1.0)
    with pytest.raises(ValueError):
        Grid(64, -1.0)
