"""Littlewood-Paley dyadic blocks and nonhomogeneous Besov norms.

A pair of smooth cutoffs (chi, phi_ring) with

    supp chi      in {|xi| <= 4/3},
    supp phi_ring in {3/4 <= |xi| <= 8/3},
    chi(xi) + sum_{j>=0} phi_ring(2^{-j} xi) = 1,

defines the blocks: block(-1) = chi(D) f, block(j) = phi_ring(2^{-j} D) f.
The Besov norm B^s_{2,r} is the l^r norm over j of 2^{js} ||block_j f||_{L^2};
only p = 2 is implemented, and the L^2 block norms are read off the spectrum
by Parseval.  On a grid with top frequency xi_max only finitely many blocks
are nonzero; the sum runs over j = -1 .. j_max(grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, Grid, derivative, smooth_step, _apply, _coeffs, _power

INF = math.inf


def transition_chi(xi):
    """Low-frequency cutoff: 1 for |xi| <= 1, 0 for |xi| >= 4/3."""
    return smooth_step((4.0 / 3.0 - np.abs(xi)) * 3.0)


def transition_ring(xi):
    """Ring cutoff chi(xi/2) - chi(xi); supported in {1 <= |xi| <= 8/3}."""
    return transition_chi(np.asarray(xi) / 2.0) - transition_chi(xi)


def _cutoff_rows(xi, j_max: int, ring_scale: float):
    """chi(xi), then ring_scale * ring(xi / 2^j) for j = 0 .. j_max, one row
    at a time.

    Each level chi(xi / 2^j) is evaluated once and shared by the two rings
    next to it; xi / 2^j / 2 == xi / 2^(j+1) exactly, so every row equals
    ring_scale * transition_ring(xi / 2^j) to the bit.
    """
    low = transition_chi(xi)
    yield low
    for j in range(j_max + 1):
        high = transition_chi(xi / 2.0 ** (j + 1))
        yield ring_scale * (high - low)
        low = high


def grid_j_max(grid: Grid) -> int:
    """Largest block index kept in sums on this grid; rings beyond it are
    entirely above xi_max and vanish identically."""
    return int(math.ceil(math.log2(grid.xi_max * 4.0 / 3.0))) + 1


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability/summation triple (s, p, r); p must be 2."""

    s: float
    p: float = 2.0
    r: float = 1.0

    def __post_init__(self):
        if self.p != 2.0:
            raise ValueError(f"only p = 2 is supported, got {self.p}")
        if not (self.r >= 1.0):
            raise ValueError(f"r must lie in [1, inf], got {self.r}")


@dataclass(frozen=True)
class CutoffPair:
    """Tabulated Littlewood-Paley multipliers bound to one grid.

    chi and phi_ring are evaluable at arbitrary frequencies; table[j+1] holds
    the multiplier of block j on the grid's half-spectrum k = 0 .. N/2 (row 0
    is the j = -1 cutoff).  ring_scale multiplies every ring; any value other
    than 1.0 breaks the partition of unity on purpose (1.0 multiplies
    exactly) and exists solely for fault injection in the validation suite.
    """

    grid: Grid
    ring_scale: float
    j_max: int
    table: np.ndarray = field(repr=False)

    chi = staticmethod(transition_chi)

    def phi_ring(self, xi):
        return self.ring_scale * transition_ring(xi)

    def block_multiplier(self, j: int) -> np.ndarray:
        if j < -1 or j > self.j_max:
            raise IndexError(f"block index {j} outside -1..{self.j_max}")
        return self.table[j + 1]


def build_cutoffs(grid: Grid, ring_scale: float = 1.0) -> CutoffPair:
    """Construct the cutoff pair on a grid (see CutoffPair for ring_scale)."""
    jm = grid_j_max(grid)
    table = np.array(list(_cutoff_rows(grid.xi, jm, float(ring_scale))))
    table.flags.writeable = False
    return CutoffPair(grid=grid, ring_scale=float(ring_scale), j_max=jm, table=table)


def dyadic_block(f: Field, j: int, cutoffs: CutoffPair) -> Field:
    """Frequency block of f: chi(D) f for j = -1, ring(2^{-j} D) f for j >= 0,
    zero for j <= -2 or beyond the grid's j_max."""
    if j <= -2 or j > cutoffs.j_max:
        return Field.zero(f.grid)
    return Field(f.grid, _apply(f.grid, cutoffs.block_multiplier(j), f.samples))


def _lp_profile(coeffs: np.ndarray, cutoffs: CutoffPair) -> np.ndarray:
    """||block_j||_{L^2}, j = -1 .. j_max, of each coefficient row on
    cutoffs.grid (last axis j); the temporary holds rows x (j_max + 2) x
    (N/2 + 1) doubles."""
    power = _power(coeffs)[..., None, :]
    return np.sqrt(np.sum(cutoffs.table**2 * power, axis=-1) / (2.0 * cutoffs.grid.half_length))


def _besov_norm(profile: np.ndarray, idx: BesovIndex) -> np.ndarray:
    """l^r norm over j of 2^{js} profile_j, for each profile row."""
    j = np.arange(-1, profile.shape[-1] - 1)
    weighted = 2.0 ** (j * idx.s) * profile
    if idx.r == 1.0:
        return weighted.sum(axis=-1)
    if idx.r == INF:
        return weighted.max(axis=-1)
    return np.sum(weighted**idx.r, axis=-1) ** (1.0 / idx.r)


def block_lp_profile(f: Field, cutoffs: CutoffPair) -> np.ndarray:
    """Array of ||block_j f||_{L^2} for j = -1 .. j_max, read off in spectral
    space via Parseval."""
    return _lp_profile(_coeffs(f), cutoffs)


def besov_norm(f: Field, idx: BesovIndex, cutoffs: CutoffPair) -> float:
    """Nonhomogeneous Besov norm ||(2^{js} ||block_j f||_{L^2})_j||_{l^r}."""
    return float(_besov_norm(_lp_profile(_coeffs(f), cutoffs), idx))


def lipschitz_norm(f: Field) -> float:
    """C^{0,1} norm: ||f||_inf + ||f'||_inf with a spectral derivative."""
    return f.max_abs() + derivative(f, 1).max_abs()
