import json
import math

import numpy as np
import pytest

from besovlab import (
    BesovIndex,
    DecayViolation,
    Grid,
    Model,
    ResolutionExceeded,
    besov_norm,
    build_bump,
    carrier_frequency,
    derivative,
    forward_transform,
    make_packets,
    product_limits,
)
from besovlab.besov import _besov_norm, _lp_profile
from besovlab.dynamics import DECAY_TOL
from besovlab.spectral import _coeffs
from besovlab.wavepackets import (
    CARRIER_RATIO,
    _driving_product,
    bump_hat,
    localization_residual,
    min_points_for,
    modulation_identity_residual,
    ring_membership,
    scaling_report,
)

B321 = BesovIndex(1.5, 2, 1)
B32INF = BesovIndex(1.5, 2, math.inf)


def driving_product(fam, model):
    """Coefficients of family member fam's driving product for model."""
    grid = fam.packet.grid
    pert = fam.perturbation(model)
    return _driving_product(grid, model, _coeffs(fam.packet), _coeffs(pert))


def b32inf(coeffs, cutoffs):
    return float(_besov_norm(_lp_profile(coeffs, cutoffs), B32INF))


def pair_sum(values):
    """Sum over k = -N/2 .. N/2-1 of an even function tabulated at grid.xi:
    each interior entry stands for k and -k."""
    return 2.0 * float(np.sum(values)) - values[0] - values[-1]


class TestBump:
    def test_transform_plateau_and_support(self):
        assert bump_hat(np.array([0.2]))[0] == 1.0
        assert bump_hat(np.array([0.0]))[0] == 1.0
        assert bump_hat(np.array([-0.25]))[0] == 1.0
        assert bump_hat(np.array([0.6]))[0] == 0.0
        assert bump_hat(np.array([0.5]))[0] == 0.0
        mid = bump_hat(np.array([0.375]))[0]
        assert 0.0 < mid < 1.0

    def test_bump_even_and_positive_at_origin(self, box_bump):
        phi = box_bump.phi.samples
        assert box_bump.peak > 0
        # discrete evenness: sample at -x equals sample at x
        assert np.abs(phi[1:] - phi[1:][::-1]).max() <= 1e-12

    def test_center_value_matches_transform_mean(self, box_bump):
        g = box_bump.grid
        expected = pair_sum(bump_hat(g.xi)) / (2 * g.half_length)
        assert box_bump.peak == pytest.approx(expected, rel=1e-12)

    def test_parseval(self, box_bump):
        g = box_bump.grid
        hat_l2 = math.sqrt(pair_sum(bump_hat(g.xi) ** 2) * math.pi / g.half_length)
        assert box_bump.phi.l2_norm() == pytest.approx(
            hat_l2 / math.sqrt(2 * math.pi), rel=1e-10
        )

    def test_decay_contract(self, box_grid):
        bump = build_bump(box_grid)
        outer = np.abs(box_grid.x) >= box_grid.half_length / 2
        assert np.abs(bump.phi.samples[outer]).max() < DECAY_TOL
        with pytest.raises(DecayViolation):
            build_bump(box_grid, decay_tol=1e-12)

    def test_narrow_box_rejected(self):
        with pytest.raises(ResolutionExceeded):
            build_bump(Grid(1024, 8 * math.pi))

    def test_resolution_boundary(self):
        # |xi| <= 1/2 holds 33 frequencies at L = 32 pi and 31 at L = 31 pi
        build_bump(Grid(2**12, 32 * math.pi))
        with pytest.raises(ResolutionExceeded):
            build_bump(Grid(2**12, 31 * math.pi))


class TestPacketConstruction:
    def test_explicit_formulas(self, box_bump):
        g = box_bump.grid
        fam = make_packets(box_bump, 4)
        phi = box_bump.phi.samples
        assert np.abs(
            fam.bump_fast.samples - (12 / 17) * 2.0**-4 * phi
        ).max() <= 1e-15
        assert np.abs(
            fam.bump_slow.samples - (12 / 17) * 2.0**-2 * phi
        ).max() <= 1e-15
        expected_packet = 2.0**-6 * phi * np.sin(fam.carrier * g.x)
        assert np.abs(fam.packet.samples - expected_packet).max() <= 1e-12

    def test_carrier_snap(self, box_grid):
        for n in (4, 5):
            omega, err = carrier_frequency(box_grid, n)
            assert err < math.pi / box_grid.half_length / 2
            k = omega * box_grid.half_length / math.pi
            assert k == pytest.approx(round(k), abs=1e-9)
            assert omega == pytest.approx(CARRIER_RATIO * 2**n, abs=0.016)

    def test_resolution_precondition(self, box_bump):
        with pytest.raises(ResolutionExceeded):
            make_packets(box_bump, 9)

    def test_min_points_helper(self):
        pts = min_points_for(8, 32 * math.pi)
        assert pts == 49152
        g = Grid(pts, 32 * math.pi)
        assert CARRIER_RATIO * 2**8 + 0.5 <= (2 / 3) * g.xi_max

    @pytest.mark.parametrize("half_length", [32 * math.pi, 150.0])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_min_points_smallest_fast_size(self, n, half_length):
        pts = min_points_for(n, half_length)
        odd = pts // (pts & -pts)  # pts with its factors of two removed
        assert odd in (1, 3)
        top = CARRIER_RATIO * 2**n + 0.5
        assert top <= (2 / 3) * Grid(pts, half_length).xi_max
        smaller = pts * 3 // 4 if odd == 1 else pts * 2 // 3
        assert top > (2 / 3) * Grid(smaller, half_length).xi_max
        fam = make_packets(build_bump(Grid(pts, half_length)), n)
        assert fam.n == n

    def test_fourier_supports(self, box_bump, box_cutoffs):
        g = box_bump.grid
        fam = make_packets(box_bump, 5)
        for low in (fam.bump_fast, fam.bump_slow):
            F = forward_transform(low).coeffs
            outside = g.xi > 0.5
            assert np.abs(F[outside]).max() <= 1e-12 * np.abs(F).max()
        Fp = forward_transform(fam.packet).coeffs
        band = np.abs(g.xi - fam.carrier) <= 0.5 + 1e-9
        assert np.abs(Fp[~band]).max() <= 1e-12 * np.abs(Fp).max()

    def test_modulation_identity(self, box_bump):
        for n in (4, 5):
            fam = make_packets(box_bump, n)
            assert modulation_identity_residual(box_bump, fam) <= 1e-12

    def test_perturbation_choice(self, box_bump):
        fam = make_packets(box_bump, 4)
        assert fam.perturbation(Model.CH) is fam.bump_fast
        assert fam.perturbation(Model.NOVIKOV) is fam.bump_slow


class TestScalings:
    def test_sup_norm_scalings_uniform(self, box_bump):
        sup_packet, sup_slope = [], []
        for n in (3, 4, 5):
            fam = make_packets(box_bump, n)
            sup_packet.append(fam.packet.max_abs() * 2.0 ** (1.5 * n))
            sup_slope.append(derivative(fam.packet, 1).max_abs() * 2.0 ** (0.5 * n))
        for vals in (sup_packet, sup_slope):
            assert max(vals) / min(vals) < 1.5

    def test_vanishing_perturbation_exact_scaling(self, box_bump, box_cutoffs):
        fast = []
        slow = []
        for n in (3, 4, 5):
            fam = make_packets(box_bump, n)
            fast.append(besov_norm(fam.bump_fast, B321, box_cutoffs) * 2.0**n)
            slow.append(besov_norm(fam.bump_slow, B321, box_cutoffs) * 2.0 ** (n / 2))
        assert (max(fast) - min(fast)) / max(fast) <= 1e-10
        assert (max(slow) - min(slow)) / max(slow) <= 1e-10

    def test_packet_besov_rescaled_uniform(self, box_bump, box_cutoffs):
        for s in (1.5, 2.5, 3.5):
            vals = [
                besov_norm(make_packets(box_bump, n).packet, BesovIndex(s, 2, 1), box_cutoffs)
                * 2.0 ** ((1.5 - s) * n)
                for n in (3, 4, 5)
            ]
            assert max(vals) / min(vals) < 1.5


class TestProducts:
    def test_cubic_product_support_band(self, box_bump):
        g = box_bump.grid
        fam = make_packets(box_bump, 5)
        F = driving_product(fam, Model.NOVIKOV)
        inside = np.abs(g.xi - fam.carrier) <= 1.5 + 1e-9
        assert np.abs(F[~inside]).max() <= 1e-12 * np.abs(F).max()

    def test_ring_membership_single_for_n5(self, box_bump, box_cutoffs):
        fam = make_packets(box_bump, 5)
        assert ring_membership(box_cutoffs, fam.carrier, 1.5) == [5]
        assert ring_membership(box_cutoffs, fam.carrier, 1.0) == [5]

    def test_ring_membership_pair_for_n4(self, box_bump, box_cutoffs):
        fam = make_packets(box_bump, 4)
        assert ring_membership(box_cutoffs, fam.carrier, 1.5) == [3, 4]

    def test_localization_outside_membership(self, box_bump, box_cutoffs):
        for n in (4, 5):
            fam = make_packets(box_bump, n)
            prod = driving_product(fam, Model.NOVIKOV)
            members = ring_membership(box_cutoffs, fam.carrier, 1.5)
            assert localization_residual(prod, box_cutoffs, members) <= 1e-12

    def test_rescaled_product_norms_approach_limits(self, box_bump, box_cutoffs):
        lim_quad, lim_cub = product_limits(box_bump)
        gaps_q, gaps_c = [], []
        for n in (3, 4, 5):
            fam = make_packets(box_bump, n)
            q = b32inf(driving_product(fam, Model.CH), box_cutoffs)
            c = b32inf(driving_product(fam, Model.NOVIKOV), box_cutoffs)
            gaps_q.append(abs(q - lim_quad) / lim_quad)
            gaps_c.append(abs(c - lim_cub) / lim_cub)
        assert gaps_q[-1] <= 0.05 and gaps_c[-1] <= 0.05
        # convergence trend: gap shrinks along the family
        assert gaps_q[-1] <= gaps_q[0] and gaps_c[-1] <= gaps_c[0]

    def test_quadratic_product_above_half_limit(self, box_bump, box_cutoffs):
        lim_quad, _ = product_limits(box_bump)
        fam = make_packets(box_bump, 5)
        q = b32inf(driving_product(fam, Model.CH), box_cutoffs)
        assert q >= 0.5 * lim_quad


class TestScalingReport:
    def test_report_checks_pass_and_serialize(self, box_bump, box_cutoffs):
        rep = scaling_report(box_bump, 5, box_cutoffs)
        assert all(rep["checks"].values())
        # JSON round trip preserves every value
        again = json.loads(json.dumps(rep))
        assert again["n"] == 5
        assert again["ring_membership_cubic"] == [5]
        assert again["checks"]["localization_cubic"] is True

    def test_report_records_both_normalizations(self, box_bump, box_cutoffs):
        rep = scaling_report(box_bump, 4, box_cutoffs)
        assert rep["bump_center_value"] == pytest.approx(box_bump.peak)
        assert rep["bump_sup"] >= rep["bump_center_value"] - 1e-15
