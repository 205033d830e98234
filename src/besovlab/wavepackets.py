"""Band-limited bump and the modulated wave-packet family.

The family is indexed by an integer n and built from one even bump phi whose
transform is 1 on |xi| <= 1/4 and 0 beyond |xi| >= 1/2:

    packet_n    = 2^{-3n/2} phi(x) sin(omega_n x),  omega_n ~ (17/12) 2^n,
    bump_fast_n = (12/17) 2^{-n}   phi(x),
    bump_slow_n = (12/17) 2^{-n/2} phi(x).

The packet occupies one dyadic ring while the bumps stay in the lowest block,
so Besov norms of every member and of the cross products
bump_fast * packet' and bump_slow^2 * packet' reduce to single-block
quadratures with exactly computable scaling in n.  As n grows the rescaled
product norms approach limits fixed by ||phi^2|| and ||phi^3||; those limits
are what the non-uniform-dependence experiments compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import BesovIndex, CutoffPair, block_lp_profile, _besov_norm, _lp_profile
from .dynamics import DECAY_TOL, Model, check_decay
from .errors import ResolutionExceeded
from .spectral import (
    Field,
    Grid,
    _coeffs,
    _dealias,
    _derivative_multiplier,
    _ifft,
    _max_abs,
    _power,
    _to_field,
    smooth_step,
)

CARRIER_RATIO = 17.0 / 12.0
PLATEAU_EDGE = 0.25
SUPPORT_EDGE = 0.5
# Largest grid min_points_for returns: 2^27 doubles are 1 GiB per field.
MAX_GRID_POINTS = 2**27


def bump_hat(xi):
    """Transform of the bump: 1 on |xi| <= 1/4, 0 on |xi| >= 1/2, smooth."""
    return smooth_step((SUPPORT_EDGE - np.abs(xi)) / (SUPPORT_EDGE - PLATEAU_EDGE))


@dataclass(frozen=True)
class BumpProfile:
    """The bump phi on its grid; its transform is bump_hat."""

    grid: Grid
    phi: Field

    @property
    def peak(self) -> float:
        return float(self.phi.samples[self.grid.num_points // 2])


def build_bump(grid: Grid, decay_tol: float = DECAY_TOL) -> BumpProfile:
    """Tabulate the bump transform on the grid and invert it.

    Requires at least 32 frequencies pi k / L inside [-1/2, 1/2], counted as
    2 #{grid.xi <= 1/2} - 1 (i.e. L >= 32 pi), so the plateau and transition
    are resolved.  Raises DecayViolation when the periodized bump fails the
    solver's decay contract (dynamics.check_decay).
    """
    inside = 2 * int(np.sum(grid.xi <= SUPPORT_EDGE)) - 1
    if inside < 32:
        raise ResolutionExceeded(
            f"only {inside} frequency samples inside |xi| <= 1/2; need >= 32"
        )
    phi = _to_field(grid, bump_hat(grid.xi))
    check_decay(phi, decay_tol)
    return BumpProfile(grid=grid, phi=phi)


@dataclass(frozen=True)
class PacketFamily:
    """Member n of the family: the packet and the two vanishing bumps."""

    n: int
    packet: Field
    bump_fast: Field  # amplitude (12/17) 2^{-n}; perturbs the quadratic model
    bump_slow: Field  # amplitude (12/17) 2^{-n/2}; perturbs the cubic model
    carrier: float  # snapped modulation frequency
    snap_error: float

    def perturbation(self, model: Model) -> Field:
        return self.bump_fast if model is Model.CH else self.bump_slow


def carrier_frequency(grid: Grid, n: int) -> tuple[float, float]:
    """Modulation frequency (17/12) 2^n snapped to the nearest grid frequency.

    Returns (snapped value, snap error); the error is below half the grid's
    frequency spacing by construction.
    """
    target = CARRIER_RATIO * 2.0**n
    k = round(target * grid.half_length / math.pi)
    snapped = math.pi * k / grid.half_length
    return snapped, abs(snapped - target)


def min_points_for(n_max: int, half_length: float) -> int:
    """Smallest N in {2^a, 3*2^a} (N >= 16) whose xi_max = pi N / (2L)
    leaves family member n_max the 2/3 dealiasing headroom make_packets
    requires.

    Both kinds of size are fast FFT lengths, and 3*2^a sits halfway between
    two powers of two.  Raises ValueError when the box needs more than
    MAX_GRID_POINTS points.
    """
    if not half_length > 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    if not math.isfinite(half_length):
        raise ValueError(f"half_length must be finite, got {half_length}")
    top = CARRIER_RATIO * 2.0**n_max + SUPPORT_EDGE
    num = 16
    while top > (2.0 / 3.0) * (math.pi * num / (2.0 * half_length)):
        # 2^a -> 3*2^(a-1) -> 2^(a+1)
        num = num * 3 // 2 if num & (num - 1) == 0 else num * 4 // 3
        if num > MAX_GRID_POINTS:
            need = 3.0 * half_length * top / math.pi
            raise ValueError(
                f"family member n={n_max} in a box of half length L={half_length!r} "
                f"needs N >= {need:.4g} points, above the limit {MAX_GRID_POINTS}"
            )
    return num


def make_packets(bump: BumpProfile, n: int) -> PacketFamily:
    """Construct family member n on the bump's grid.

    Requires (17/12) 2^n + 1/2 <= (2/3) xi_max so cubic products of the
    members stay inside the alias-free band; raises ResolutionExceeded
    otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    grid = bump.grid
    top = CARRIER_RATIO * 2.0**n + SUPPORT_EDGE
    if top > (2.0 / 3.0) * grid.xi_max:
        raise ResolutionExceeded(
            f"family member n={n} needs frequencies up to {top:.1f}, "
            f"beyond 2/3 of xi_max={grid.xi_max:.1f}"
        )
    omega, snap = carrier_frequency(grid, n)
    phi = bump.phi.samples
    # omega*x_i = pi*k*(2i-N)/N exactly; reducing the integer phase mod 2N
    # before the sine keeps the carrier exact to one ulp even at large n*x
    # (naive np.sin(omega*x) loses ~eps*|omega x| and the spectral derivative
    # amplifies that noise above the localization tolerances).
    npts = grid.num_points
    k = round(omega * grid.half_length / math.pi)
    m = (k * (2 * np.arange(npts, dtype=np.int64) - npts)) % (2 * npts)
    carrier = np.sin((math.pi / npts) * m)
    packet = Field(grid, 2.0 ** (-1.5 * n) * phi * carrier)
    bump_fast = Field(grid, (12.0 / 17.0) * 2.0 ** (-float(n)) * phi)
    bump_slow = Field(grid, (12.0 / 17.0) * 2.0 ** (-0.5 * n) * phi)
    return PacketFamily(
        n=n,
        packet=packet,
        bump_fast=bump_fast,
        bump_slow=bump_slow,
        carrier=omega,
        snap_error=snap,
    )


def _driving_product(grid: Grid, model: Model, packet_hat, pert_hat) -> np.ndarray:
    """Coefficients of the dealiased term driving the model's gap, from the
    packet's and the model's perturbation's coefficients: bump_fast * packet'
    for the quadratic model, bump_slow^2 * packet' for the cubic one."""
    slope = _derivative_multiplier(grid, 1) * packet_hat
    if model is Model.CH:
        return _dealias(grid, 2, pert_hat, slope)
    return _dealias(grid, 3, pert_hat, pert_hat, slope)


def product_limits(bump: BumpProfile) -> tuple[float, float]:
    """Large-n limits of the rescaled cross-product norms, by quadrature.

    The quadratic product tends to 2^{-1/2} ||phi^2||_{L^2} in B^{3/2}_{2,inf}
    and the cubic one to (12/17) 2^{-1/2} ||phi^3||_{L^2}; both follow from
    averaging the squared carrier over the envelope.
    """
    phi = bump.phi
    dx = bump.grid.dx
    norm_sq = math.sqrt(dx * float(np.sum(phi.samples**4)))
    norm_cu = math.sqrt(dx * float(np.sum(phi.samples**6)))
    return norm_sq / math.sqrt(2.0), (12.0 / 17.0) * norm_cu / math.sqrt(2.0)


def ring_membership(cutoffs: CutoffPair, center: float, width: float):
    """Block indices whose ring support intersects [center-width, center+width].

    The ring of block j is supported in [2^j, (8/3) 2^j]; block -1 covers
    |xi| <= 4/3.  Everything outside the returned set annihilates a field
    whose spectrum sits in the given band.
    """
    lo, hi = center - width, center + width
    members = []
    if lo <= 4.0 / 3.0:
        members.append(-1)
    for j in range(0, cutoffs.j_max + 1):
        if 2.0**j <= hi and (8.0 / 3.0) * 2.0**j >= lo:
            members.append(j)
    return members


def localization_residual(coeffs: np.ndarray, cutoffs: CutoffPair, members) -> float:
    """Largest block norm outside the expected membership set, relative to
    the L^2 norm (by Parseval) of the field with half-spectrum coeffs."""
    profile = _lp_profile(coeffs, cutoffs)
    total = math.sqrt(float(np.sum(_power(coeffs))) / (2.0 * cutoffs.grid.half_length))
    if total == 0.0:
        return 0.0
    worst = 0.0
    for j in range(-1, cutoffs.j_max + 1):
        if j not in members:
            worst = max(worst, profile[j + 1] / total)
    return worst


def scaling_report(bump: BumpProfile, n: int, cutoffs: CutoffPair) -> dict:
    """Measure every contract of family member n; returns a JSON-ready dict.

    Contents: rescaled sup norms of the packet and bumps, the exact low-block
    Besov norm of bump_fast, rescaled packet Besov norms for s in
    {3/2, 5/2, 7/2}, cross-product norms in B^{3/2}_{2,inf} with their
    large-n limits, ring membership and localization residuals, and the
    carrier snap error.  Both the bump's center value and its sup norm are
    recorded; only powers of two enter assertions.
    """
    fam = make_packets(bump, n)
    grid = bump.grid
    two = 2.0
    packet, fast, slow = (_coeffs(f) for f in (fam.packet, fam.bump_fast, fam.bump_slow))
    ixi = _derivative_multiplier(grid, 1)

    def sup_slope(coeffs):
        return float(_max_abs(_ifft(grid, ixi * coeffs)))

    def norm(coeffs, idx):
        return float(_besov_norm(_lp_profile(coeffs, cutoffs), idx))

    quad = _driving_product(grid, Model.CH, packet, fast)
    cub = _driving_product(grid, Model.NOVIKOV, packet, slow)
    lim_quad, lim_cub = product_limits(bump)
    b32inf = BesovIndex(1.5, 2, math.inf)
    b321 = BesovIndex(1.5, 2, 1)

    members_quad = ring_membership(cutoffs, fam.carrier, 1.0)
    members_cub = ring_membership(cutoffs, fam.carrier, 1.5)
    members_packet = ring_membership(cutoffs, fam.carrier, 0.5)

    phi_l2 = bump.phi.l2_norm()
    low_block_l2 = block_lp_profile(bump.phi, cutoffs)[0]

    report = {
        "n": n,
        "carrier": fam.carrier,
        "snap_error": fam.snap_error,
        "snap_budget": math.pi / grid.half_length / 2.0,
        "bump_center_value": bump.peak,
        "bump_sup": bump.phi.max_abs(),
        "sup_packet_scaled": fam.packet.max_abs() * two ** (1.5 * n),
        "sup_packet_slope_scaled": sup_slope(packet) * two ** (0.5 * n),
        "sup_bump_fast_scaled": fam.bump_fast.max_abs() * two**n,
        "sup_bump_fast_slope_scaled": sup_slope(fast) * two**n,
        "sup_bump_slow_scaled": fam.bump_slow.max_abs() * two ** (0.5 * n),
        "sup_bump_slow_slope_scaled": sup_slope(slow) * two ** (0.5 * n),
        "bump_fast_b32_norm": norm(fast, b321),
        "bump_fast_b32_exact": (12.0 / 17.0) * two ** (-(n + 1.5)) * low_block_l2,
        "bump_slow_b32_norm": norm(slow, b321),
        "bump_slow_b32_exact": (12.0 / 17.0) * two ** (-(0.5 * n + 1.5)) * low_block_l2,
        "phi_l2": phi_l2,
        "packet_besov_scaled": {
            str(s): norm(packet, BesovIndex(s, 2, 1)) * two ** ((1.5 - s) * n)
            for s in (1.5, 2.5, 3.5)
        },
        "quad_product_b32inf": norm(quad, b32inf),
        "quad_product_b321": norm(quad, b321),
        "quad_product_limit": lim_quad,
        "cubic_product_b32inf": norm(cub, b32inf),
        "cubic_product_b321": norm(cub, b321),
        "cubic_product_limit": lim_cub,
        "ring_membership_packet": members_packet,
        "ring_membership_quad": members_quad,
        "ring_membership_cubic": members_cub,
        "localization_residual_packet": localization_residual(packet, cutoffs, members_packet),
        "localization_residual_quad": localization_residual(quad, cutoffs, members_quad),
        "localization_residual_cubic": localization_residual(cub, cutoffs, members_cub),
    }
    report["checks"] = {
        "snap_within_budget": bool(report["snap_error"] < report["snap_budget"]),
        "bump_fast_b32_matches": _close(
            report["bump_fast_b32_norm"], report["bump_fast_b32_exact"], 1e-10
        ),
        "bump_slow_b32_matches": _close(
            report["bump_slow_b32_norm"], report["bump_slow_b32_exact"], 1e-10
        ),
        "localization_quad": bool(report["localization_residual_quad"] < 1e-12),
        "localization_cubic": bool(report["localization_residual_cubic"] < 1e-12),
        "localization_packet": bool(report["localization_residual_packet"] < 1e-12),
    }
    return report


def _close(a: float, b: float, rtol: float) -> bool:
    scale = max(abs(a), abs(b))
    return bool(scale == 0.0 or abs(a - b) <= rtol * scale)


def modulation_identity_residual(bump: BumpProfile, family: PacketFamily) -> float:
    """Coefficientwise check that the packet's spectrum is the bump transform
    shifted to +-carrier with the sine phase: (hat(xi-w) - hat(xi+w)) / 2i
    times the amplitude.  Returns the max absolute mismatch relative to the
    packet's largest coefficient."""
    xi = bump.grid.xi
    F = _coeffs(family.packet)
    amp = 2.0 ** (-1.5 * family.n)
    expected = amp * (bump_hat(xi - family.carrier) - bump_hat(xi + family.carrier)) / 2j
    scale = float(np.abs(F).max())
    return float(np.abs(F - expected).max() / scale)
