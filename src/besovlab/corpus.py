"""Deterministic random band-limited fields for property suites."""

from __future__ import annotations

import numpy as np

from .spectral import Field, Grid, _ifft


def _random_samples(
    grid: Grid,
    rng: np.random.Generator,
    rows: int,
    band_fraction: float = 0.5,
) -> np.ndarray:
    """(rows, N) samples of random_field's fields, drawn from rng in row order:
    row r is the field the r-th of rows consecutive random_field calls draws."""
    n, h = grid.num_points, grid.nyquist_index
    # one (re, im) pair of n normals per row, the order random_field draws them
    draws = rng.standard_normal((rows, 2, n))
    re, im = draws[:, 0], draws[:, 1]
    # draw c_k at every xi_k and keep the Hermitian part (c_k + conj c_{-k})/2
    # on the half-spectrum; it is real at k = 0 and at the Nyquist mode
    mirror = -np.arange(h + 1)  # FFT-order index of -k
    weight = (1.0 + grid.xi) ** -1.5
    weight[grid.xi > band_fraction * grid.xi_max] = 0.0
    coeffs = (0.5 * weight) * (
        (re[:, : h + 1] + re[:, mirror]) + 1j * (im[:, : h + 1] - im[:, mirror])
    )
    return _ifft(grid, coeffs)


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    band_fraction: float = 0.5,
) -> Field:
    """Real field with Hermitian random spectrum decaying like (1+|xi|)^-1.5.

    band_fraction limits support to |xi| <= band_fraction * xi_max so that
    derivative and product identities remain exact on the grid.
    """
    return Field(grid, _random_samples(grid, rng, 1, band_fraction)[0])
