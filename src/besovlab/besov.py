"""Littlewood-Paley dyadic blocks and nonhomogeneous Besov norms.

Smooth cutoffs chi = transition_chi and phi_ring = transition_ring with

    supp chi      in {|xi| <= 4/3},
    supp phi_ring in {1 <= |xi| <= 8/3},
    chi(xi) + sum_{j>=0} phi_ring(2^{-j} xi) = 1,

define the blocks: block(-1) = chi(D) f, block(j) = phi_ring(2^{-j} D) f.
_cutoff_row evaluates block j's multiplier and _block_reach states where it
lives.  The Besov norm B^s_{2,r} is the l^r norm over j of 2^{js}
||block_j f||_{L^2}; only p = 2 is implemented, and the L^2 block norms are
read off the spectrum by Parseval.  On a grid with top frequency xi_max
only finitely many blocks are nonzero; the sum runs over j = -1 .. j_max(grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, Grid, smooth_step, _apply, _coeffs, _power, _same_grid, _slope_sup

INF = math.inf


def transition_chi(xi):
    """Low-frequency cutoff: 1 for |xi| <= 1, 0 for |xi| >= 4/3."""
    return smooth_step((4.0 / 3.0 - np.abs(xi)) * 3.0)


def transition_ring(xi):
    """Ring cutoff chi(xi/2) - chi(xi); supported in {1 <= |xi| <= 8/3}."""
    return transition_chi(np.asarray(xi) / 2.0) - transition_chi(xi)


def _j_max(xi_max: float) -> int:
    """Largest block index kept in sums over frequencies |xi| <= xi_max;
    rings beyond it are entirely above xi_max and vanish identically."""
    return int(math.ceil(math.log2(xi_max * 4.0 / 3.0))) + 1


@dataclass(frozen=True)
class BesovIndex:
    """Regularity/integrability/summation triple (s, p, r); s must be finite
    and p must be 2."""

    s: float
    p: float = 2.0
    r: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if self.p != 2.0:
            raise ValueError(f"only p = 2 is supported, got {self.p}")
        if not (self.r >= 1.0):
            raise ValueError(f"r must lie in [1, inf], got {self.r}")


B321 = BesovIndex(1.5, 2, 1)  # the critical space of the paper's ill-posedness claim
B32INF = BesovIndex(1.5, 2, INF)  # where the driving products are measured


@dataclass(frozen=True)
class CutoffPair:
    """Littlewood-Paley multipliers bound to one grid, each block stored on
    its support.

    Block j = -1 .. j_max sits at position j + 1 of each tuple: starts
    holds the first half-spectrum index of its support, values its
    multiplier from there up to its last nonzero entry (zero elsewhere),
    and squares those values squared, the weights of the L^2 block norms,
    each summed over its support alone.
    Every frequency lies in at most two blocks (chi meets ring 0 only on
    [1, 4/3], and ring j never meets ring j + 2), so values and squares hold
    at most 2(N/2 + 1) numbers each.  ring_scale multiplies every ring; any
    value other than 1.0 breaks the partition of unity on purpose (1.0
    multiplies exactly) and exists solely for fault injection in the
    validation suite.
    """

    grid: Grid
    ring_scale: float
    j_max: int
    starts: tuple = field(repr=False)
    values: tuple = field(repr=False)
    squares: tuple = field(repr=False)

    def block_multiplier(self, j: int) -> np.ndarray:
        """Multiplier of block j on the whole half-spectrum k = 0 .. N/2."""
        if j < -1 or j > self.j_max:
            raise IndexError(f"block index {j} outside -1..{self.j_max}")
        row = np.zeros(self.grid.xi.shape)
        start, values = self.starts[j + 1], self.values[j + 1]
        row[start : start + values.size] = values
        return row


def _cutoff_row(xi, j: int, ring_scale: float):
    """Multiplier of block j at the frequencies xi: chi for j = -1,
    ring_scale * ring(xi / 2^j) for j >= 0."""
    return transition_chi(xi) if j == -1 else ring_scale * transition_ring(xi / 2.0**j)


def _block_reach(j: int) -> tuple:
    """(lo, hi) with block j vanishing at every |xi| outside [lo, hi]:
    [0, 4/3] for chi, [2^j, 2^{j+1} 4/3] for ring j (scaling by 2^j is
    exact)."""
    return (0.0, 4.0 / 3.0) if j == -1 else (2.0**j, 2.0 ** (j + 1) * (4.0 / 3.0))


def build_cutoffs(grid: Grid, ring_scale: float = 1.0) -> CutoffPair:
    """Construct the cutoff pair on a grid (see CutoffPair for ring_scale).

    Block j is evaluated by _cutoff_row only on the frequencies of its
    reach (_block_reach), and trimmed to its nonzero values.
    """
    jm = _j_max(grid.xi_max)
    ring_scale = float(ring_scale)
    starts, values, squares = [], [], []
    for j in range(-1, jm + 1):
        lo, hi = _block_reach(j)
        first = max(int(np.searchsorted(grid.xi, lo, side="right")) - 1, 0)
        last = int(np.searchsorted(grid.xi, hi))
        row = _cutoff_row(grid.xi[first : last + 1], j, ring_scale)
        nonzero = np.flatnonzero(row)
        lead, end = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        row = row[lead:end].copy()
        first += lead
        row_sq = row**2
        for arr in (row, row_sq):
            arr.flags.writeable = False
        starts.append(first)
        values.append(row)
        squares.append(row_sq)
    return CutoffPair(
        grid=grid,
        ring_scale=ring_scale,
        j_max=jm,
        starts=tuple(starts),
        values=tuple(values),
        squares=tuple(squares),
    )


def _check_grid(grid: Grid, cutoffs: CutoffPair) -> None:
    if not _same_grid(grid, cutoffs.grid):
        raise ValueError(f"field on {grid!r}, but cutoffs built for {cutoffs.grid!r}")


def dyadic_block(f: Field, j: int, cutoffs: CutoffPair) -> Field:
    """Frequency block of f: chi(D) f for j = -1, ring(2^{-j} D) f for j >= 0,
    zero for j <= -2 or beyond the grid's j_max."""
    _check_grid(f.grid, cutoffs)
    if j <= -2 or j > cutoffs.j_max:
        return Field.zero(f.grid)
    return Field(f.grid, _apply(f.grid, cutoffs.block_multiplier(j), f.samples))


def _lp_profile(coeffs: np.ndarray, cutoffs: CutoffPair) -> np.ndarray:
    """||block_j||_{L^2}, j = -1 .. j_max, of each coefficient row on
    cutoffs.grid (last axis j).  Each block's weighted power is formed on
    its support in one work buffer and summed there, so the work and the
    temporaries are O(N) per row; row r of a batch equals the one-row call
    to the bit."""
    power = _power(coeffs)
    profile = np.empty(power.shape[:-1] + (cutoffs.j_max + 2,))
    terms = np.empty_like(power)
    for b, (start, square) in enumerate(zip(cutoffs.starts, cutoffs.squares)):
        size = square.size
        np.multiply(square, power[..., start : start + size], out=terms[..., :size])
        profile[..., b] = terms[..., :size].sum(axis=-1)
    profile /= 2.0 * cutoffs.grid.half_length
    return np.sqrt(profile, out=profile)


def _besov_norm(profile: np.ndarray, idx: BesovIndex) -> np.ndarray:
    """l^r norm over j of 2^{js} profile_j, for each profile row."""
    j = np.arange(-1, profile.shape[-1] - 1)
    weighted = 2.0 ** (j * idx.s) * profile
    if idx.r == 1.0:
        return weighted.sum(axis=-1)
    if idx.r == INF:
        return weighted.max(axis=-1)
    return np.sum(weighted**idx.r, axis=-1) ** (1.0 / idx.r)


def _coeff_norm(coeffs: np.ndarray, cutoffs: CutoffPair, idx: BesovIndex = B321) -> np.ndarray:
    """Besov norm, B^{3/2}_{2,1} unless idx says otherwise, of each
    coefficient row on cutoffs.grid."""
    return _besov_norm(_lp_profile(coeffs, cutoffs), idx)


def block_lp_profile(f: Field, cutoffs: CutoffPair) -> np.ndarray:
    """Array of ||block_j f||_{L^2} for j = -1 .. j_max, read off in spectral
    space via Parseval."""
    _check_grid(f.grid, cutoffs)
    return _lp_profile(_coeffs(f), cutoffs)


def besov_norm(f: Field, idx: BesovIndex, cutoffs: CutoffPair) -> float:
    """Nonhomogeneous Besov norm ||(2^{js} ||block_j f||_{L^2})_j||_{l^r}."""
    _check_grid(f.grid, cutoffs)
    return float(_coeff_norm(_coeffs(f), cutoffs, idx))


def lipschitz_norm(f: Field) -> float:
    """C^{0,1} norm: ||f||_inf + ||f'||_inf, both read off the samples, f'
    the spectral derivative (spectral._slope_sup)."""
    return f.max_abs() + float(_slope_sup(f.grid, _coeffs(f)))
