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
import numbers
from dataclasses import dataclass

import numpy as np

from .besov import (
    B32INF,
    B321,
    BesovIndex,
    CutoffPair,
    block_lp_profile,
    _block_reach,
    _coeff_norm,
    _lp_profile,
)
from .dynamics import Model, check_decay
from .errors import ResolutionExceeded
from .spectral import (
    Field,
    Grid,
    _coeff_sup,
    _dealias,
    _derivative_multiplier,
    _fft,
    _ifft,
    _power,
    _slope_sup,
    _to_field,
    _xi_max,
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


def build_bump(grid: Grid) -> Field:
    """The bump phi on the grid: its transform bump_hat, tabulated and inverted.

    Requires at least 32 frequencies pi k / L inside [-1/2, 1/2], counted as
    2 #{grid.xi <= 1/2} - 1 (i.e. L >= 32 pi), so the plateau and transition
    are resolved.  Raises DecayViolation when the periodized bump fails the
    solver's decay contract (dynamics.check_decay); every family member's
    data are bounded by |phi|, so this is the family's only decay check.
    """
    inside = 2 * int(np.sum(grid.xi <= SUPPORT_EDGE)) - 1
    if inside < 32:
        raise ResolutionExceeded(
            f"only {inside} frequency samples inside |xi| <= 1/2; need >= 32"
        )
    phi = _to_field(grid, bump_hat(grid.xi))
    check_decay(phi)
    return phi


@dataclass(frozen=True)
class PacketFamily:
    """Member n of the family: the packet's and the two vanishing bumps'
    exact read-only half-spectra on grid, and Field views built on demand."""

    n: int
    grid: Grid
    packet_hat: np.ndarray
    fast_hat: np.ndarray  # (12/17) 2^{-n} bump_hat; perturbs CH (k = 1)
    slow_hat: np.ndarray  # (12/17) 2^{-n/2} bump_hat; perturbs Novikov (k = 2)
    carrier: float  # snapped modulation frequency
    snap_error: float

    @property
    def packet(self) -> Field:
        return _to_field(self.grid, self.packet_hat)

    @property
    def bump_fast(self) -> Field:
        return _to_field(self.grid, self.fast_hat)

    def perturbation_hat(self, model: Model) -> np.ndarray:
        """(12/17) 2^{-n/k} bump_hat, k = model.degree: fast_hat for CH,
        slow_hat for Novikov."""
        return (self.fast_hat, self.slow_hat)[model.degree - 1]


def carrier_frequency(grid: Grid, n: int) -> tuple[float, float]:
    """Modulation frequency (17/12) 2^n snapped to the nearest grid frequency.

    Returns (snapped value, snap error); the error is below half the grid's
    frequency spacing by construction.
    """
    target = CARRIER_RATIO * 2.0**n
    k = round(target * grid.half_length / math.pi)
    snapped = math.pi * k / grid.half_length
    return snapped, abs(snapped - target)


def _band_top(n: int) -> float:
    """(17/12) 2^n + 1/2, the highest frequency of family member n."""
    return CARRIER_RATIO * 2.0**n + SUPPORT_EDGE


def _resolves(n: int, xi_max: float) -> bool:
    """The resolution rule (17/12) 2^n + 1/2 <= (2/3) xi_max: cubic products
    of family member n stay inside the alias-free band."""
    return _band_top(n) <= (2.0 / 3.0) * xi_max


def min_points_for(n_max: int, half_length: float) -> int:
    """Smallest N in {2^a, 3*2^a} (N >= 16) whose Grid(N, half_length)
    resolves family member n_max (_resolves).

    Both kinds of size are fast FFT lengths, and 3*2^a sits halfway between
    two powers of two.  Raises ValueError when the box needs more than
    MAX_GRID_POINTS points.
    """
    if not half_length > 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    if not math.isfinite(half_length):
        raise ValueError(f"half_length must be finite, got {half_length}")
    num = 16
    while not _resolves(n_max, _xi_max(num, half_length)):
        # 2^a -> 3*2^(a-1) -> 2^(a+1)
        num = num * 3 // 2 if num & (num - 1) == 0 else num * 4 // 3
        if num > MAX_GRID_POINTS:
            need = 3.0 * half_length * _band_top(n_max) / math.pi
            raise ValueError(
                f"family member n={n_max} in a box of half length L={half_length!r} "
                f"needs N >= {need:.4g} points, above the limit {MAX_GRID_POINTS}"
            )
    return num


def make_packets(bump: Field, n: int) -> PacketFamily:
    """Construct family member n on the bump's grid from its exact spectra,
    without a transform.

    Requires the grid to resolve member n (_resolves), so cubic products of
    the members stay inside the alias-free band; raises ResolutionExceeded
    otherwise.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    grid = bump.grid
    if not _resolves(n, grid.xi_max):
        raise ResolutionExceeded(
            f"family member n={n} needs frequencies up to {_band_top(n):.1f}, "
            f"beyond 2/3 of xi_max={grid.xi_max:.1f}"
        )
    omega, snap = carrier_frequency(grid, n)
    # phi(x) sin(omega x) transforms to (bump_hat(xi - omega) - bump_hat(xi + omega)) / 2i
    xi = grid.xi
    packet_hat = 2.0 ** (-1.5 * n) * (bump_hat(xi - omega) - bump_hat(xi + omega)) / 2j
    hat = bump_hat(xi)
    fast_hat, slow_hat = ((12.0 / 17.0) * 2.0 ** (-n / k) * hat for k in (1, 2))
    for arr in (packet_hat, fast_hat, slow_hat):
        arr.flags.writeable = False
    return PacketFamily(
        n=n,
        grid=grid,
        packet_hat=packet_hat,
        fast_hat=fast_hat,
        slow_hat=slow_hat,
        carrier=omega,
        snap_error=snap,
    )


def _driving_product(grid: Grid, model: Model, packet_hat, pert_hat) -> np.ndarray:
    """Coefficients of the dealiased term g^k packet', k = model.degree,
    driving the model's gap, from the packet's and its perturbation g's
    coefficients: bump_fast * packet' for CH, bump_slow^2 * packet' for Novikov."""
    k = model.degree
    return _dealias(grid, k + 1, *(pert_hat,) * k, _derivative_multiplier(grid, 1) * packet_hat)


def product_limits(bump: Field) -> tuple[float, float]:
    """Large-n limits of the rescaled cross-product norms, by quadrature, at
    k = 1 (CH) and 2 (Novikov).

    The product of degree k tends to (12/17)^{k-1} 2^{-1/2} ||phi^{k+1}||_{L^2}
    in B^{3/2}_{2,inf}, by averaging the squared carrier over the envelope.
    """

    def limit(k):
        norm = math.sqrt(bump.grid.dx * float(np.sum(bump.samples ** (2 * k + 2))))
        return (12.0 / 17.0) ** (k - 1) * norm / math.sqrt(2.0)

    return limit(1), limit(2)


def ring_membership(cutoffs: CutoffPair, center: float, width: float):
    """Blocks whose reach (besov._block_reach) meets [center-width,
    center+width].  Everything outside the returned set annihilates a field
    whose spectrum sits in the given band.
    """
    lo, hi = center - width, center + width
    members = []
    for j in range(-1, cutoffs.j_max + 1):
        reach_lo, reach_hi = _block_reach(j)
        if reach_lo <= hi and reach_hi >= lo:
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


def scaling_report(bump: Field, n: int, cutoffs: CutoffPair) -> dict:
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
    packet = fam.packet_hat

    def norm(coeffs, idx=B321):
        return float(_coeff_norm(coeffs, cutoffs, idx))

    members_packet = ring_membership(cutoffs, fam.carrier, 0.5)

    phi_l2 = bump.l2_norm()
    low_block_l2 = block_lp_profile(bump, cutoffs)[0]

    report = {
        "n": n,
        "carrier": fam.carrier,
        "snap_error": fam.snap_error,
        "snap_budget": math.pi / grid.half_length / 2.0,
        "bump_center_value": float(bump.samples[grid.num_points // 2]),
        "bump_sup": bump.max_abs(),
        "sup_packet_scaled": float(_coeff_sup(grid, packet)) * two ** (1.5 * n),
        "sup_packet_slope_scaled": float(_slope_sup(grid, packet)) * two ** (0.5 * n),
        "phi_l2": phi_l2,
        "packet_besov_scaled": {
            str(s): norm(packet, BesovIndex(s, 2, 1)) * two ** ((1.5 - s) * n)
            for s in (1.5, 2.5, 3.5)
        },
        "ring_membership_packet": members_packet,
        "localization_residual_packet": localization_residual(packet, cutoffs, members_packet),
    }
    checks = {
        "snap_within_budget": bool(report["snap_error"] < report["snap_budget"]),
        "localization_packet": bool(report["localization_residual_packet"] < 1e-12),
    }
    limits = product_limits(bump)
    labels = {Model.CH: ("fast", "quad"), Model.NOVIKOV: ("slow", "cubic")}
    for model, (bump_label, label) in labels.items():
        # the perturbation g = (12/17) 2^{-n/k} phi of degree k, and its product
        k, g = model.degree, fam.perturbation_hat(model)
        b32, exact = norm(g), (12.0 / 17.0) * two ** (-(n / k + 1.5)) * low_block_l2
        report[f"sup_bump_{bump_label}_scaled"] = float(_coeff_sup(grid, g)) * two ** (n / k)
        report[f"sup_bump_{bump_label}_slope_scaled"] = float(_slope_sup(grid, g)) * two ** (n / k)
        report[f"bump_{bump_label}_b32_norm"] = b32
        report[f"bump_{bump_label}_b32_exact"] = exact
        checks[f"bump_{bump_label}_b32_matches"] = _close(b32, exact, 1e-10)
        product = _driving_product(grid, model, packet, g)
        # g^k packet' spreads the carrier's band by (k + 1)/2
        members = ring_membership(cutoffs, fam.carrier, 0.5 * (k + 1))
        residual = localization_residual(product, cutoffs, members)
        report[f"{label}_product_b32inf"] = norm(product, B32INF)
        report[f"{label}_product_b321"] = norm(product)
        report[f"{label}_product_limit"] = limits[k - 1]
        report[f"ring_membership_{label}"] = members
        report[f"localization_residual_{label}"] = residual
        checks[f"localization_{label}"] = bool(residual < 1e-12)
    report["checks"] = checks
    return report


def _close(a: float, b: float, rtol: float) -> bool:
    scale = max(abs(a), abs(b))
    return bool(scale == 0.0 or abs(a - b) <= rtol * scale)


def modulation_identity_residual(family: PacketFamily) -> float:
    """Coefficientwise check that packet_hat is the transform of the packet's
    real-space formula 2^{-3n/2} phi(x) sin(omega x), phi's samples being
    build_bump's; returns the max mismatch relative to packet_hat's largest
    entry.  The carrier omega = pi k / L is taken on the integer lattice,
    sin(omega x_m) = (-1)^k sin(2 pi (k m mod N) / N) at x_m = -L + m dx:
    np.sin(omega * x) would round the phase (1e-11 at n = 10)."""
    grid, N = family.grid, family.grid.num_points
    k = round(family.carrier * grid.half_length / math.pi)
    carrier = (-1.0) ** k * np.sin((2.0 * math.pi / N) * ((k * np.arange(N)) % N))
    packet = 2.0 ** (-1.5 * family.n) * _ifft(grid, bump_hat(grid.xi)) * carrier
    mismatch = np.abs(_fft(grid, packet) - family.packet_hat).max()
    return float(mismatch / np.abs(family.packet_hat).max())
