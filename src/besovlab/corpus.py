"""Deterministic random band-limited fields for property suites."""

from __future__ import annotations

import numpy as np

from .spectral import Field, Grid, SpectralField, inverse_transform


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    decay: float = 1.5,
    band_fraction: float = 0.5,
) -> Field:
    """Real field with Hermitian random spectrum decaying like (1+|xi|)^-decay.

    band_fraction limits support to |xi| <= band_fraction * xi_max so that
    derivative and product identities remain exact on the grid.
    """
    n = grid.num_points
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    coeffs = (re + 1j * im) * (1.0 + np.abs(grid.xi)) ** (-decay)
    coeffs[np.abs(grid.xi) > band_fraction * grid.xi_max] = 0.0
    mirrored = np.conj(np.roll(coeffs[::-1], 1))
    coeffs = 0.5 * (coeffs + mirrored)
    coeffs[grid.nyquist_index] = coeffs[grid.nyquist_index].real
    return inverse_transform(SpectralField(grid, coeffs))

