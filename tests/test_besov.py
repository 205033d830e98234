import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import (
    BesovIndex,
    Field,
    Grid,
    Model,
    besov_norm,
    build_cutoffs,
    dyadic_block,
    lipschitz_norm,
    make_packets,
)
from besovlab.besov import (
    _besov_norm,
    _block_reach,
    _lp_profile,
    block_lp_profile,
    transition_chi,
    transition_ring,
)
from besovlab.corpus import _random_samples, random_field
from besovlab.harness import EMBED_CONSTANT, PRODUCT_CSTAR
from besovlab.spectral import _apply, _fft, _power, _to_field, dealias_product
from besovlab.wavepackets import _driving_product

from conftest import rng

INF = math.inf


class TestCutoffs:
    def test_low_cutoff_values(self):
        assert transition_chi(np.array([0.0]))[0] == 1.0
        assert transition_chi(np.array([2.0]))[0] == 0.0
        assert transition_chi(np.array([1.0]))[0] == 1.0  # plateau reaches 1

    def test_ring_support(self):
        xs = np.array([0.0, 0.5, 0.74, 2.7, 3.0, 10.0])
        assert np.abs(transition_ring(xs)).max() == 0.0
        inside = transition_ring(np.array([1.5, 2.0]))
        assert np.all(inside > 0.99)

    def test_partition_of_unity_dense(self, box_grid, box_cutoffs):
        xis = np.linspace(-box_grid.xi_max, box_grid.xi_max, 100001)
        total = transition_chi(xis)
        for j in range(box_cutoffs.j_max + 1):
            total = total + transition_ring(xis / 2.0**j)
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_neighbouring_rings_only_overlap(self):
        xis = np.linspace(0.1, 800.0, 200000)
        for j, k in ((0, 2), (1, 4), (3, 6)):
            prod = transition_ring(xis / 2.0**j) * transition_ring(xis / 2.0**k)
            assert np.abs(prod).max() == 0.0

    def test_j_max_covers_grid(self, box_grid):
        jm = build_cutoffs(box_grid).j_max
        assert 2.0 ** (jm + 1) >= box_grid.xi_max


class TestBandedBlocks:
    """Each block is stored on its support; multipliers equal a dense
    (j_max + 2) x (N/2 + 1) table to the bit, block norms agree with it to
    1e-14, and each block's reach contains its support."""

    GRIDS = [(1024, 16 * math.pi), (3 * 2**12, 32 * math.pi), (2**15, 32 * math.pi)]

    @pytest.mark.parametrize("ring_scale", [1.0, 1.01])
    @pytest.mark.parametrize("num_points, half_length", GRIDS)
    def test_banded_blocks_match_dense_table(self, num_points, half_length, ring_scale):
        grid = Grid(num_points, half_length)
        cutoffs = build_cutoffs(grid, ring_scale)
        # the table shares each level chi(xi / 2^j) between the two rings
        # next to it, an evaluation independent of besov's row evaluator
        levels = [transition_chi(grid.xi / 2.0**j) for j in range(cutoffs.j_max + 2)]
        dense = np.array(
            [levels[0]] + [ring_scale * (high - low) for low, high in zip(levels, levels[1:])]
        )
        for j in range(-1, cutoffs.j_max + 1):
            assert np.array_equal(cutoffs.block_multiplier(j), dense[j + 1])
        coeffs = _fft(grid, _random_samples(grid, rng(7), 3))
        power = _power(coeffs)[:, None, :]
        reference = np.sqrt(np.sum(dense**2 * power, axis=-1) / (2.0 * half_length))
        np.testing.assert_allclose(_lp_profile(coeffs, cutoffs), reference, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("ring_scale", [1.0, 1.01])
    @pytest.mark.parametrize("num_points, half_length", GRIDS)
    def test_reach_contains_stored_support(self, num_points, half_length, ring_scale):
        grid = Grid(num_points, half_length)
        cutoffs = build_cutoffs(grid, ring_scale)
        for j in range(-1, cutoffs.j_max + 1):
            start, size = cutoffs.starts[j + 1], cutoffs.values[j + 1].size
            if size == 0:
                continue
            lo, hi = _block_reach(j)
            assert lo <= grid.xi[start] and grid.xi[start + size - 1] <= hi, j

    def test_storage_and_norm_memory_linear_in_n(self):
        grid = Grid(2**16, 32 * math.pi)
        cutoffs = build_cutoffs(grid)
        held = 0
        for spec in dataclasses.fields(cutoffs):
            value = getattr(cutoffs, spec.name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    held += item.nbytes
        # dense tables would hold 2 (j_max + 2) (N/2 + 1) doubles: 7.0 MB here
        assert held <= 4 * (grid.num_points // 2 + 1) * 8
        f = random_field(grid, rng(8))
        idx = BesovIndex(1.5, 2, 1)
        besov_norm(f, idx, cutoffs)
        tracemalloc.start()
        try:
            besov_norm(f, idx, cutoffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense (j_max + 2) x (N/2 + 1) temporary would peak at 4.4 MB
        assert peak < 2e6


class TestGridMismatch:
    @pytest.mark.parametrize(
        "other", [Grid(4096, 16 * math.pi), Grid(2048, 32 * math.pi)], ids=["box", "points"]
    )
    def test_cutoffs_of_another_grid_rejected(self, other):
        # another box's cutoffs would give a silently wrong norm
        grid = Grid(4096, 32 * math.pi)
        f = Field(grid, np.exp(-(grid.x**2) / 2.0))
        cutoffs = build_cutoffs(other)
        calls = (
            lambda: besov_norm(f, BesovIndex(1.5, 2, 1), cutoffs),
            lambda: block_lp_profile(f, cutoffs),
            lambda: dyadic_block(f, 0, cutoffs),
        )
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert repr(grid) in str(err.value) and repr(other) in str(err.value)

    def test_equal_grid_accepted(self):
        grid = Grid(4096, 32 * math.pi)
        f = Field(grid, np.exp(-(grid.x**2) / 2.0))
        twin = build_cutoffs(Grid(4096, 32 * math.pi))
        idx = BesovIndex(1.5, 2, 1)
        assert besov_norm(f, idx, twin) == besov_norm(f, idx, build_cutoffs(grid))


class TestDyadicBlocks:
    def test_low_frequency_field_has_no_ring_content(self, box_bump, box_cutoffs):
        fam = make_packets(box_bump, 4)
        low = fam.bump_fast  # spectrum inside |xi| <= 1/2
        norm = low.l2_norm()
        for j in range(0, box_cutoffs.j_max + 1):
            assert dyadic_block(low, j, box_cutoffs).l2_norm() <= 1e-12 * norm
        kept = dyadic_block(low, -1, box_cutoffs)
        assert np.abs(kept.samples - low.samples).max() <= 1e-12 * low.max_abs()

    def test_modulated_product_occupies_single_block(self, box_bump, box_cutoffs):
        fam = make_packets(box_bump, 5)
        g = box_bump.grid
        prod = _to_field(
            g, _driving_product(g, Model.NOVIKOV, fam.packet_hat, fam.slow_hat)
        )
        norm = prod.l2_norm()
        same = dyadic_block(prod, 5, box_cutoffs)
        assert np.abs(same.samples - prod.samples).max() <= 1e-12 * prod.max_abs()
        for j in range(-1, box_cutoffs.j_max + 1):
            if j != 5:
                assert dyadic_block(prod, j, box_cutoffs).l2_norm() <= 1e-12 * norm

    def test_blocks_sum_to_field(self, box_grid, box_cutoffs):
        for seed in range(10):
            f = random_field(box_grid, rng(seed))
            total = np.zeros(box_grid.num_points)
            for j in range(-1, box_cutoffs.j_max + 1):
                total += dyadic_block(f, j, box_cutoffs).samples
            assert np.abs(total - f.samples).max() <= 1e-10 * f.max_abs()

    def test_out_of_range_blocks_vanish(self, box_grid, box_cutoffs):
        f = random_field(box_grid, rng(3))
        assert dyadic_block(f, -2, box_cutoffs).l2_norm() == 0.0
        assert dyadic_block(f, box_cutoffs.j_max + 5, box_cutoffs).l2_norm() == 0.0

    def test_row_block_matches_one_field_calls(self, box_grid, box_cutoffs):
        block = _random_samples(box_grid, rng(4), 3)
        for j in range(-1, box_cutoffs.j_max + 1):
            blocks = _apply(box_grid, box_cutoffs.block_multiplier(j), block)
            for r in range(3):
                one = dyadic_block(Field(box_grid, block[r]), j, box_cutoffs)
                assert np.array_equal(blocks[r], one.samples)

    def test_almost_orthogonality(self, box_grid, box_cutoffs):
        for seed in range(10):
            f = random_field(box_grid, rng(seed))
            norm = f.l2_norm()
            for j, k in ((0, 2), (1, 3), (2, 5)):
                twice = dyadic_block(dyadic_block(f, j, box_cutoffs), k, box_cutoffs)
                assert twice.l2_norm() <= 1e-12 * norm


class TestBesovNorm:
    def test_zero_field(self, box_grid, box_cutoffs):
        assert besov_norm(Field.zero(box_grid), BesovIndex(1.5, 2, 1), box_cutoffs) == 0.0

    def test_homogeneity(self, box_grid, box_cutoffs):
        f = random_field(box_grid, rng(21))
        idx = BesovIndex(1.5, 2, 1)
        base = besov_norm(f, idx, box_cutoffs)
        scaled = besov_norm(-3.5 * f, idx, box_cutoffs)
        assert scaled == pytest.approx(3.5 * base, rel=1e-12)

    def test_low_bump_norm_equals_single_block_quadrature(self, box_bump, box_cutoffs):
        # for a field whose spectrum sits under the low cutoff the whole norm
        # is 2^{-sigma} times an explicit L^2 quadrature of the block
        g = box_bump.grid
        low_block = dyadic_block(box_bump, -1, box_cutoffs)
        quad = math.sqrt(g.dx * float(np.sum(low_block.samples**2)))
        for n in range(4, 6):
            fam = make_packets(box_bump, n)
            measured = besov_norm(fam.bump_fast, BesovIndex(1.5, 2, 1), box_cutoffs)
            expected = (12.0 / 17.0) * 2.0 ** (-(n + 1.5)) * quad
            assert measured == pytest.approx(expected, rel=1e-10)

    def test_r_monotonicity(self, box_grid, box_cutoffs):
        for seed in range(25):
            f = random_field(box_grid, rng(seed))
            n1 = besov_norm(f, BesovIndex(0.5, 2, 1), box_cutoffs)
            n2 = besov_norm(f, BesovIndex(0.5, 2, 2), box_cutoffs)
            ninf = besov_norm(f, BesovIndex(0.5, 2, INF), box_cutoffs)
            assert n1 + 1e-12 >= n2 >= ninf - 1e-12

    def test_row_block_matches_one_field_calls(self, box_grid, box_cutoffs):
        block = _random_samples(box_grid, rng(6), 4)
        profile = _lp_profile(_fft(box_grid, block), box_cutoffs)
        for r in range(4):
            f = Field(box_grid, block[r])
            assert np.array_equal(profile[r], block_lp_profile(f, box_cutoffs))
            for idx in (BesovIndex(1.5, 2, 1), BesovIndex(0.5, 2, 2), BesovIndex(1.5, 2, INF)):
                assert _besov_norm(profile, idx)[r] == besov_norm(f, idx, box_cutoffs)

    def test_index_validation(self):
        # only B^s_{2,r} is implemented; every other p is rejected
        for p in (0.5, 1.0, INF):
            with pytest.raises(ValueError):
                BesovIndex(1.5, p, 1)
        # a NaN s used to be accepted and make every norm NaN without an error
        for s in (math.nan, INF, -INF):
            with pytest.raises(ValueError, match="s must be finite"):
                BesovIndex(s, 2, 1)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(-50, 50, allow_nan=False))
def test_besov_homogeneity_property(lam):
    g = Grid(256, math.pi)
    c = build_cutoffs(g)
    f = random_field(g, rng(5))
    idx = BesovIndex(0.5, 2, 1)
    assert besov_norm(lam * f, idx, c) == pytest.approx(
        abs(lam) * besov_norm(f, idx, c), rel=1e-10, abs=1e-12
    )


class TestSupNorms:
    def test_sine(self, trig_grid):
        g = trig_grid
        for k in (1, 4):
            f = Field(g, np.sin(k * g.x))
            assert f.max_abs() == pytest.approx(1.0, abs=1e-3)
            assert lipschitz_norm(f) == pytest.approx(1.0 + k, abs=1e-2)

    def test_constant(self, trig_grid):
        f = Field.constant(trig_grid, -2.5)
        assert f.max_abs() == 2.5
        assert lipschitz_norm(f) == pytest.approx(2.5, abs=1e-12)

    def test_packet_slope_rescales_uniformly(self, box_bump):
        values = [
            lipschitz_norm(make_packets(box_bump, n).packet) * 2.0 ** (n / 2)
            for n in range(3, 6)
        ]
        assert max(values) / min(values) < 1.5


class TestCalibratedBounds:
    def test_embedding_constant(self, box_grid, box_cutoffs):
        worst = 0.0
        for seed in range(200):
            f = random_field(box_grid, rng(seed))
            worst = max(
                worst, f.max_abs() / besov_norm(f, BesovIndex(0.5, 2, 1), box_cutoffs)
            )
        assert worst <= EMBED_CONSTANT
        assert EMBED_CONSTANT < 2.0

    def test_product_estimate_regression(self, box_grid, box_cutoffs):
        idx = BesovIndex(1.5, 2, 1)
        bound = 2.0 * PRODUCT_CSTAR
        for seed in range(200):
            u = random_field(box_grid, rng(seed))
            v = random_field(box_grid, rng(seed + 1000))
            uv = dealias_product(u, v, 2)
            num = besov_norm(uv, idx, box_cutoffs)
            den = besov_norm(u, idx, box_cutoffs) * v.max_abs() + besov_norm(
                v, idx, box_cutoffs
            ) * u.max_abs()
            assert num <= bound * den
