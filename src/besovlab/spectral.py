"""Periodic grid, Fourier transforms, derivatives and dealiased products.

The domain is the torus [-L, L) sampled at N equispaced points, used as a
numerical stand-in for the real line (all admissible data decay well inside
the box).  Transforms follow the physical convention

    F f(xi)  = integral e^{-i x xi} f(x) dx,
    f(x)     = (1/2pi) integral e^{+i x xi} F f(xi) dxi,

discretised with dx-weighted sums on the frequencies xi_k = pi k / L.  Fields
are real, so c_{-k} = conj(c_k) and only the half-spectrum k = 0 .. N/2 is
stored (numpy's rfft layout): each interior entry stands for the pair +-k,
the zero and Nyquist entries for themselves.  The discrete Parseval identity

    dx * sum |f_i|^2 = (1/2L) * sum_{k=0}^{N/2} w_k |Ff_k|^2,
    w = 1, 2, ..., 2, 1,

holds exactly, and band-limited statements about continuous transforms carry
over verbatim to the arrays.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidField, NonRealSpectrum

HERMITIAN_RTOL = 1e-12


def smooth_step(r):
    """C-infinity ramp: 0 for r <= 0, 1 for r >= 1, strictly monotone between.

    Built from exp(-1/r); satisfies smooth_step(r) + smooth_step(1-r) == 1
    exactly, which makes telescoping cutoff sums exact in floating point.
    """
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    out[r >= 1.0] = 1.0
    mid = (r > 0.0) & (r < 1.0)
    if np.any(mid):
        rm = r[mid]
        with np.errstate(over="ignore", under="ignore"):
            a = np.exp(-1.0 / rm)
            b = np.exp(-1.0 / (1.0 - rm))
        out[mid] = a / (a + b)
    return out


class Grid:
    """Uniform periodic grid on [-L, L) with its discrete frequency set.

    Attributes
    ----------
    num_points : int
        Number of samples N (even, >= 16).
    half_length : float
        L; the domain is [-L, L).
    dx : float
        Spacing 2L/N.
    x : ndarray
        Sample locations -L + i*dx.
    xi : ndarray
        Half-spectrum frequencies pi*k/L, k = 0..N/2, rising from 0 to xi_max.
    xi_max : float
        The Nyquist frequency, pi*N/(2L).
    nyquist_index : int
        N/2, the position of the Nyquist entry.
    """

    def __init__(self, num_points: int, half_length: float):
        if isinstance(num_points, bool) or not isinstance(num_points, numbers.Integral):
            raise ValueError(f"num_points must be an integer, got {num_points!r}")
        if num_points < 16 or num_points % 2 != 0:
            raise ValueError(f"num_points must be even and >= 16, got {num_points}")
        if isinstance(half_length, bool):
            raise ValueError(f"half_length must be a number, got {half_length}")
        if not half_length > 0:
            raise ValueError(f"half_length must be positive, got {half_length}")
        if not np.isfinite(half_length):
            raise ValueError(f"half_length must be finite, got {half_length}")
        self.num_points = int(num_points)
        self.half_length = float(half_length)
        self.dx = 2.0 * self.half_length / self.num_points
        n = self.num_points
        k = np.arange(n // 2 + 1)
        self.xi = (np.pi / self.half_length) * k
        self.xi_max = np.pi * n / (2.0 * self.half_length)
        self.nyquist_index = n // 2
        # e^{-i x_m xi_k} = (-1)^k e^{-2pi i mk/N}: the (-1)^k phase maps
        # numpy's 0-based FFT onto the grid whose first sample sits at -L.
        self.alt_phase = np.where(k % 2 == 0, 1.0, -1.0)
        # _fft's scale dx * alt_phase, stored so no transform rebuilds it
        self.dx_phase = self.dx * self.alt_phase
        for arr in (self.xi, self.alt_phase, self.dx_phase):
            arr.flags.writeable = False
        self._cache: dict = {}

    @functools.cached_property
    def x(self) -> np.ndarray:
        """Sample locations, built on first use: the solver's padded grids
        never read them."""
        x = -self.half_length + self.dx * np.arange(self.num_points)
        x.flags.writeable = False
        return x

    def __repr__(self):
        return f"Grid(num_points={self.num_points}, half_length={self.half_length!r})"

    def padded(self, factor_num: int, factor_den: int = 1) -> "Grid":
        """Finer grid with the same half_length and N*factor points (cached)."""
        m = self.num_points * factor_num // factor_den
        if m % 2:
            m += 1
        key = ("pad", m)
        if key not in self._cache:
            # setdefault: threads that race here all get the first grid stored
            self._cache.setdefault(key, Grid(m, self.half_length))
        return self._cache[key]

    def multiplier(self, key, builder) -> np.ndarray:
        """Memoised read-only multiplier builder(xi) on the half-spectrum.

        The Nyquist entry keeps only its real part, so real fields stay real;
        odd symbols such as i*xi vanish there.
        """
        if key not in self._cache:
            arr = np.array(builder(self.xi))
            arr[self.nyquist_index] = arr[self.nyquist_index].real
            arr.flags.writeable = False
            self._cache.setdefault(key, arr)
        return self._cache[key]


def _same_grid(a: Grid, b: Grid) -> bool:
    """Whether a and b are one grid: the same object, or equal sizes and boxes."""
    return a is b or (a.num_points == b.num_points and a.half_length == b.half_length)


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on a grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != (self.grid.num_points,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid size {self.grid.num_points}"
            )
        if not np.all(np.isfinite(samples)):
            raise InvalidField("field contains non-finite samples")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.num_points))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.num_points, float(value)))

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.samples + other.samples)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.samples - other.samples)

    def __mul__(self, scalar) -> "Field":
        return Field(self.grid, float(scalar) * self.samples)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field"):
        if not _same_grid(self.grid, other.grid):
            raise ValueError("fields live on different grids")

    def max_abs(self) -> float:
        return float(_max_abs(self.samples))

    def l2_norm(self) -> float:
        return float(_l2_norm(self.grid, self.samples))


def _max_abs(samples: np.ndarray) -> np.ndarray:
    return np.abs(samples).max(axis=-1)


def _l2_norm(grid: Grid, samples: np.ndarray) -> np.ndarray:
    return np.sqrt(grid.dx * np.sum(samples**2, axis=-1))


def _inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return grid.dx * np.sum(a * b, axis=-1)


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum coefficients of a real field; coeffs[k] sits at grid.xi[k]."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != self.grid.xi.shape:
            raise ValueError("coefficient count does not match grid")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)


# Arrays of our own are scaled in place: freed temporaries make glibc re-fault the heap.
# The private helpers below act on the last axis, so a (rows, N) block of
# samples or a (rows, N/2+1) block of coefficients goes through them as one
# call; row r of the result equals the one-field call on row r, to the bit.
# Where a helper takes work arrays (out, work, ...), it writes into those
# instead of allocating; the solver's RK4 stages pass them (dynamics._Workspace).


def _fft(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients of samples taken on grid."""
    coeffs = np.fft.rfft(samples)
    coeffs *= grid.dx_phase
    return coeffs


def _ifft(grid: Grid, coeffs: np.ndarray, out=None, work=None) -> np.ndarray:
    """Real samples on grid of half-spectrum coefficients; the imaginary part
    of the zero and Nyquist entries is discarded.  The samples go to out and
    the phased coefficients to work (coeffs' shape; may be coeffs itself)."""
    phased = np.multiply(grid.alt_phase, coeffs, out=work)
    samples = np.fft.irfft(phased, grid.num_points, out=out)
    samples /= grid.dx
    return samples


def _coeffs(f: Field) -> np.ndarray:
    return _fft(f.grid, f.samples)


def _power(coeffs: np.ndarray) -> np.ndarray:
    """|c_k|^2 weighted 1, 2, ..., 2, 1: each interior entry stands for +-k."""
    power = np.abs(coeffs) ** 2
    power[..., 1:-1] *= 2.0
    return power


def _to_field(grid: Grid, coeffs: np.ndarray) -> Field:
    return Field(grid, _ifft(grid, coeffs))


def _apply(grid: Grid, multiplier: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Samples of the Fourier multiplier applied to each sample row."""
    return _ifft(grid, multiplier * _fft(grid, samples))


def forward_transform(f: Field) -> SpectralField:
    """Forward transform under the e^{-i x xi} convention with dx weighting."""
    return SpectralField(f.grid, _coeffs(f))


def _real_ifft(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """_ifft of each coefficient row; raises NonRealSpectrum when a row's
    k = 0 or Nyquist entry, each its own conjugate partner, has an imaginary
    part above HERMITIAN_RTOL max |c| of the row (irfft would drop it)."""
    worst = np.maximum(np.abs(coeffs[..., 0].imag), np.abs(coeffs[..., -1].imag))
    scale = np.abs(coeffs).max(axis=-1)
    bad = worst > HERMITIAN_RTOL * scale
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        ratio = worst.flat[i] / scale.flat[i]
        raise NonRealSpectrum(f"imaginary k = 0 or Nyquist entry: {ratio:.3e} of max |c|")
    return _ifft(grid, coeffs)


def inverse_transform(F: SpectralField) -> Field:
    """Inverse transform; raises NonRealSpectrum when the k = 0 or Nyquist
    coefficient, each its own conjugate partner, has an imaginary part above
    HERMITIAN_RTOL max |c| (irfft would drop it)."""
    return Field(F.grid, _real_ifft(F.grid, F.coeffs))


def _derivative_multiplier(grid: Grid, order: int) -> np.ndarray:
    return grid.multiplier(("deriv", order), lambda xi: (1j * xi) ** order)


def _helmholtz_multiplier(grid: Grid) -> np.ndarray:
    return grid.multiplier("helmholtz", lambda xi: 1.0 / (1.0 + xi**2))


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative of order 1 or 2.

    Exact for band-limited inputs; the Nyquist mode of the first derivative
    is zeroed to preserve realness.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return Field(f.grid, _apply(f.grid, _derivative_multiplier(f.grid, order), f.samples))


def helmholtz_inverse(f: Field) -> Field:
    """Apply (1 - d^2/dx^2)^{-1}, the multiplier 1/(1 + xi^2).

    Equals convolution with the kernel 0.5*e^{-|x|} up to the periodic
    wrap-around, which is negligible for well-decaying data.
    """
    return Field(f.grid, _apply(f.grid, _helmholtz_multiplier(f.grid), f.samples))


# --- dealiasing core: every padded product goes through these helpers -------


def _padded_grid(grid: Grid, total_degree: int) -> Grid:
    # 3/2-rule padding for quadratic terms, factor 2 for cubic terms; both
    # keep the retained band |xi| < xi_max alias-free even at full bandwidth.
    if total_degree == 2:
        return grid.padded(3, 2)
    return grid.padded(2, 1)


def _to_padded(grid: Grid, coeffs: np.ndarray, fine: Grid, spec=None, out=None) -> np.ndarray:
    """Samples on the finer grid of the zero-padded spectrum; the coarse
    Nyquist entry stands for both +-N/2 and is split evenly between them.
    The padded spectrum is built in spec (fine's half-spectrum shape) and
    the samples go to out."""
    h = grid.nyquist_index
    if spec is None:
        spec = np.empty(coeffs.shape[:-1] + (fine.nyquist_index + 1,), dtype=complex)
    spec[..., :h] = coeffs[..., :h]
    spec[..., h] = 0.5 * coeffs[..., h].real
    spec[..., h + 1 :] = 0.0
    return _ifft(fine, spec, out=out, work=spec)


def _from_padded(
    grid: Grid, fine: Grid, *factors: np.ndarray, product=None, spec=None, out=None
) -> np.ndarray:
    """Coefficients of the product of finer-grid samples, truncated to the
    band of grid; the coarse Nyquist mode is zeroed.  The product is formed
    in product (fine samples), its transform in spec (fine half-spectrum)
    and the coefficients go to out."""
    h = grid.nyquist_index
    if len(factors) > 1:
        product = np.multiply(factors[0], factors[1], out=product)
    else:
        product = factors[0]
    for f in factors[2:]:
        product *= f
    spec = np.fft.rfft(product, out=spec)
    if out is None:
        out = np.empty(factors[0].shape[:-1] + (h + 1,), dtype=complex)
    # _fft's scaling, applied only to the band kept
    np.multiply(spec[..., :h], fine.dx_phase[:h], out=out[..., :h])
    out[..., h] = 0.0
    return out


def _dealias(grid: Grid, total_degree: int, *factors: np.ndarray) -> np.ndarray:
    """Coefficients of the dealiased product of the fields whose coefficient
    rows on grid are factors."""
    fine = _padded_grid(grid, total_degree)
    return _from_padded(grid, fine, *(_to_padded(grid, F, fine) for F in factors))


def _dealias_fields(total_degree: int, *factors: Field) -> Field:
    grid = factors[0].grid
    for other in factors[1:]:
        factors[0]._check_same_grid(other)
    return _to_field(grid, _dealias(grid, total_degree, *(_coeffs(f) for f in factors)))


def dealias_product(f: Field, g: Field, total_degree: int = 2) -> Field:
    """Pointwise product evaluated on a zero-padded grid, then truncated.

    total_degree declares the total polynomial degree of the nonlinearity the
    product participates in (2 for quadratic, 3 for cubic) and selects the
    padding.  Exact to rounding for inputs whose combined bandwidth fits the
    original grid.
    """
    if total_degree not in (2, 3):
        raise ValueError(f"total_degree must be 2 or 3, got {total_degree}")
    return _dealias_fields(total_degree, f, g)


def dealias_triple(f: Field, g: Field, h: Field) -> Field:
    """Dealiased triple product on the cubic (factor-2) padded grid."""
    return _dealias_fields(3, f, g, h)


def _parseval_residual(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Relative Parseval defect of each sample row; absolute for a zero row."""
    lhs = grid.dx * np.sum(samples**2, axis=-1)
    rhs = np.sum(_power(_fft(grid, samples)), axis=-1) / (2.0 * grid.half_length)
    return np.abs(lhs - rhs) / np.where(lhs == 0.0, 1.0, lhs)
