"""Model right-hand sides and the RK4 time integrator.

Two nonlocal transport equations are implemented on the periodic grid:

  quadratic model (CH):   u_t + u u_x     = P(u),
      P(u) = -d/dx (1 - d2/dx2)^{-1} (u^2 + 0.5 u_x^2)

  cubic model (Novikov):  u_t + u^2 u_x   = Q(u),
      Q(u) = -(1 - d2/dx2)^{-1} (0.5 u_x^3 + d/dx (1.5 u u_x^2 + u^3))

Both right-hand sides vanish on constants, so constants are equilibria, and
both models conserve the H^1 energy dx * sum(u^2 + u_x^2) exactly in the
continuum; the integrator monitors the discrete version.  Evolution uses
classical RK4 with one step-size rule: RK4's stability bound on the transport
term, capped at dt_max and cut short at each sample time (see SolverConfig).
It aborts with BlowUp when the slope ||u_x||_inf passes BLOWUP_SLOPE = 1e6.

One spectral right-hand side per model, _rhs_hat(F, work), maps coefficients
to the transport and nonlocal parts' coefficients on the grid and for the
model its workspace was built for; evolve integrates their sum, the
harness reads the parts, and the Field-level operators (rhs, ch_rhs,
novikov_rhs) wrap it, so the tested operators are the ones the solver runs.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, DecayViolation, InvalidField
from .spectral import (
    Field,
    Grid,
    _coeffs,
    _derivative_multiplier,
    _from_padded,
    _helmholtz_multiplier,
    _padded_grid,
    _power,
    _to_field,
    _to_padded,
)

# Initial data must fall below this at |x| >= L/2 so that the periodic wrap
# cannot contaminate the run; band-limited bumps bottom out near 1e-4 of
# their peak at practical box sizes, hence the default.
DECAY_TOL = 1e-3

# Classical RK4 is stable on the imaginary axis up to |dt*lambda| = 2*sqrt(2)
# (Hairer-Norsett-Wanner, Solving ODEs I); a transport term's spectrum lies
# there, so a step at the full limit 2.8 / rate stays just inside it.
RK4_IMAGINARY_LIMIT = 2.8

# Fraction of RK4_IMAGINARY_LIMIT a step may use (see SolverConfig).
CFL = 0.3

# evolve raises BlowUp once ||u_x||_inf passes this slope; a breaking wave's
# slope grows without bound in finite time
BLOWUP_SLOPE = 1e6


class Model(enum.Enum):
    CH = "ch"
    NOVIKOV = "novikov"


def _times(values, name: str) -> tuple:
    """values as a tuple of floats; ValueError naming name unless values is a
    list, tuple, range or array of real numbers (a string such as "15" would
    otherwise be read digit by digit as the times 1 and 5), all finite."""
    if not isinstance(values, (list, tuple, range, np.ndarray)) or not all(
        isinstance(t, numbers.Real) and not isinstance(t, bool) for t in values
    ):
        raise ValueError(f"{name} must be a sequence of numbers, got {values!r}")
    times = tuple(float(t) for t in values)
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"sample times must be finite, got {t} in {name}")
    return times


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    sample_times are the times a run records; the last one is where it ends,
    and a run without a positive sample time takes no step.  dt is
    recomputed every step as

        min(dt_max, CFL * 2.8 / (speed * xi_max + ||u_x||_inf), time to the next sample)

    so steps land exactly on each sample time.  The denominator bounds the
    transport term's rate: speed is ||u||_inf (CH) or ||u||_inf^2 (Novikov),
    xi_max the grid's Nyquist frequency, and ||u_x||_inf the linearisation's
    growth rate.  Both sups are read on the padded grid of the RHS
    (3/2 N points for CH, 2N for Novikov), whose samples the first RK4
    stage forms anyway; they interpolate the state between its grid
    points.  2.8 sits just inside RK4's imaginary-axis stability limit
    2*sqrt(2), and CFL = 0.3 is the fixed fraction of that limit a step may
    use.
    dt_max = 0.05 is the longest step: RK4's error grows like dt^4, and a
    single step over (0, 0.1] would move a gap D_n by 1e-10 relative.  A
    sample interval no longer than both bounds is one step, and the zero
    datum (rate zero) steps at dt_max.  A smaller dt_max serves to measure
    the time error by step refinement.  Negative, non-finite, repeated or
    unsorted times raise ValueError, and so does a value that is not a
    sequence of numbers, such as a string.
    """

    sample_times: tuple
    dt_max: float = 0.05

    def __post_init__(self):
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        times = _times(self.sample_times, "sample_times")
        for t in times:
            if t < 0:
                raise ValueError(f"sample times must be nonnegative, got {t}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"sample_times must be strictly increasing, got {times}")
        object.__setattr__(self, "sample_times", times)


@dataclass
class Trajectory:
    """Sampled solution of one run and the solver's step counters: steps
    taken, the smallest and largest step (None before the first) and the
    largest CFL number dt * rate, where rate is the transport bound of
    SolverConfig."""

    grid: Grid
    samples: list  # [(time, F)] (see evolve); empty when evolve passed them to on_sample
    steps_taken: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    cfl_max: float = 0.0

    def final(self) -> Field:
        return _to_field(self.grid, self._held()[-1][1])

    def h1_drift(self) -> float:
        """Largest change of the H^1 energy over the samples, relative to its
        initial value (absolute if that is zero)."""
        energies = [_h1_energy(self.grid, F) for _, F in self._held()]
        e0 = energies[0]
        if e0 == 0.0:
            return max(abs(e) for e in energies)
        return max(abs(e - e0) for e in energies) / abs(e0)

    def counters(self) -> dict:
        """What the solver did, for reports."""
        return {
            "steps": self.steps_taken,
            "dt_min": self.dt_min,
            "dt_max": self.dt_max,
            "cfl_max": self.cfl_max,
        }

    def _held(self) -> list:
        if not self.samples:
            raise ValueError("the trajectory holds no samples (passed to on_sample, or cleared)")
        return self.samples

    def _count_step(self, dt: float, cfl: float) -> None:
        self.steps_taken += 1
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)
        self.cfl_max = max(self.cfl_max, cfl)


def _h1_energy(grid: Grid, F: np.ndarray) -> float:
    """H^1 energy, the integral of u^2 + u_x^2, of half-spectrum F by Parseval."""
    weight = grid.multiplier("h1", lambda xi: 1.0 + xi**2)
    return float(np.sum(weight * _power(F)) / (2.0 * grid.half_length))


class _Workspace:
    """The grid, the model and the work arrays of _rhs_hat and the RK4 stages.

    A step writes every array of the grid's size into one of these instead
    of allocating it: glibc hands freed arrays of that size back to the OS
    and faults them in again on the next allocation.  A worker thread's
    arena keeps numpy's FFT scratch (harness._map_items) but not those
    arrays: with an allocating RHS and RK4 a nonuniform-ch benchmark pass
    took 49k-53k minor faults instead of 3.2k-5.1k (2-core host).
    Each evolve call builds its own set, and so does every other _rhs_hat
    call site; threads share grids, so a set never lives in the grid's
    cache.

    Both models hold one coarse spectrum per product of the RHS (the last
    also phases u's and u_x's coefficients until its product is
    transformed), the products' fine spectrum fine_spec, and the fine
    samples u and ux.  CH squares u and ux in place, as each is read once,
    so only Novikov, whose first two products each need both factors later,
    holds a third fine array, product; for CH it is None.
    """

    def __init__(self, grid: Grid, model: Model):
        self.grid, self.model = grid, model
        self.fine = fine = _padded_grid(grid, 2 if model is Model.CH else 3)
        coarse = grid.xi.shape
        count = 2 if model is Model.CH else 3
        self.products = [np.empty(coarse, dtype=complex) for _ in range(count)]
        # each product's spectrum on the fine grid
        self.fine_spec = np.empty(fine.xi.shape, dtype=complex)
        self.u = np.empty(fine.num_points)
        self.ux = np.empty(fine.num_points)
        self.product = None if model is Model.CH else np.empty(fine.num_points)

    def transform_product(self, out: np.ndarray, *factors) -> np.ndarray:
        return _from_padded(
            self.grid, self.fine, *factors, product=self.product, spec=self.fine_spec, out=out
        )


def _rhs_hat(F: np.ndarray, work: _Workspace) -> tuple:
    """(transport, nonlocal) parts of work.model's right-hand side at the
    half-spectrum coefficients F on work.grid, as half-spectrum
    coefficients.  Both are arrays of work, overwritten by its next use."""
    _pad_factors(F, work)
    return _padded_rhs(work)


def _pad_factors(F: np.ndarray, work: _Workspace) -> None:
    """The first half of _rhs_hat: the samples of u and u_x, F being u's
    coefficients, on work.fine, into work.u and work.ux."""
    grid, fine = work.grid, work.fine
    # the last product's spectrum is free until that product is formed
    scratch = work.products[-1]
    _to_padded(grid, F, fine, scratch, work.u)
    # u_x's coefficients, phased in place
    np.multiply(_derivative_multiplier(grid, 1), F, out=scratch)
    _to_padded(grid, scratch, fine, scratch, work.ux)


def _padded_rhs(work: _Workspace) -> tuple:
    """The second half of _rhs_hat: the right-hand side's parts from the
    padded factors work.u and work.ux, which it overwrites.

    The formulas are evaluated in place, each operation in the order of the
    expression in its comment, so the result does not depend on the buffers.
    """
    grid, a, b = work.grid, work.u, work.ux
    ixi = _derivative_multiplier(grid, 1)
    if work.model is Model.CH:
        p_mult = grid.multiplier("p_op", lambda xi: -1j * xi / (1.0 + xi**2))
        # transport -u u_x written as -(u^2)'/2
        transport_mult = grid.multiplier("ch_transport", lambda _: -0.5 * ixi)
        # u and u_x are each read once: square them in place
        u2 = work.transform_product(work.products[0], np.multiply(a, a, out=a))
        ux2 = work.transform_product(work.products[1], np.multiply(b, b, out=b))
        # nonlocal: p_mult * (u2 + 0.5 * ux2)
        ux2 *= 0.5
        ux2 += u2
        ux2 *= p_mult
        # transport: (-0.5 * ixi) * u2
        u2 *= transport_mult
        return u2, ux2
    neg_helm = grid.multiplier("neg_helmholtz", lambda _: -_helmholtz_multiplier(grid))
    # transport -u^2 u_x written as -(u^3)'/3
    transport_mult = grid.multiplier("novikov_transport", lambda _: -(1.0 / 3.0) * ixi)
    u3 = work.transform_product(work.products[0], a, a, a)
    uux2 = work.transform_product(work.products[1], a, b, b)
    ux3 = work.transform_product(work.products[2], b, b, b)
    # nonlocal: -helm * (0.5 * ux3 + ixi * (1.5 * uux2 + u3))
    uux2 *= 1.5
    uux2 += u3
    uux2 *= ixi
    ux3 *= 0.5
    ux3 += uux2
    ux3 *= neg_helm
    # transport: (-(1/3) * ixi) * u3
    u3 *= transport_mult
    return u3, ux3


def _field_rhs(u: Field, model: Model) -> tuple:
    """_rhs_hat at a Field, with a workspace of its own."""
    return _rhs_hat(_coeffs(u), _Workspace(u.grid, model))


def rhs(u: Field, model: Model) -> Field:
    """Full right-hand side: transport part plus nonlocal part."""
    return _to_field(u.grid, np.add(*_field_rhs(u, model)))


def ch_rhs(u: Field) -> Field:
    """-u u_x + P(u)."""
    return rhs(u, Model.CH)


def novikov_rhs(u: Field) -> Field:
    """-u^2 u_x + Q(u)."""
    return rhs(u, Model.NOVIKOV)


def _sup(samples: np.ndarray) -> float:
    """max |samples|, read off the extremes without an |samples| array; not
    finite when a sample is not (max and min propagate NaN)."""
    return float(max(samples.max(), -samples.min()))


def check_decay(u0: Field, tol: float | None = DECAY_TOL):
    """Line-truncation contract: |u0| < tol on the outer half of the box.

    tol=None skips the check; that is the documented escape hatch for data
    that are periodic-exact rather than line-truncated (constants, plane
    waves), for which the contract is vacuous.
    """
    if tol is None:
        return
    g = u0.grid
    outer = np.abs(g.x) >= g.half_length / 2.0
    worst = float(np.abs(u0.samples[outer]).max())
    if worst >= tol:
        raise DecayViolation(
            f"initial datum reaches {worst:.3e} at |x| >= L/2 (tolerance {tol:.1e})"
        )


def evolve(
    u0: Field,
    model: Model,
    config: SolverConfig,
    decay_tol: float | None = DECAY_TOL,
    on_sample=None,
) -> Trajectory:
    """Integrate one initial datum with classical RK4.

    Samples (t, F), F the read-only half-spectrum of the state, are recorded
    at t = 0 and at every positive sample time (landed on exactly); the run
    ends at the last sample time, and Trajectory.final() builds the last
    sample's Field.  Raises BlowUp when ||u_x||_inf exceeds BLOWUP_SLOPE and
    InvalidField if the state goes non-finite.

    on_sample, when given, is called as on_sample(t, F) with each sample as
    it lands, (0.0, F0) first, and the returned trajectory keeps only the
    step counters (its samples list stays empty); a caller that reduces each
    sample to a few numbers then holds one at a time instead of the whole
    run.  The samples are the ones a call without it records, to the bit.
    """
    check_decay(u0, decay_tol)
    grid = u0.grid
    work = _Workspace(grid, model)
    F0 = _coeffs(u0)
    F0.flags.writeable = False
    # the state, the argument of the next stage and the RK4 sum, each
    # updated in place
    F = F0.copy()
    stage = np.empty_like(F)
    acc = np.empty_like(F)

    def summed(parts):
        transport, nonlocal_part = parts
        transport += nonlocal_part
        return transport

    def stage_from(h, k):
        # F + h * k
        np.multiply(k, h, out=stage)
        return np.add(stage, F, out=stage)

    targets = [t for t in config.sample_times if t > 0.0]

    traj = Trajectory(grid=grid, samples=[])
    record = on_sample if on_sample is not None else lambda t, F_t: traj.samples.append((t, F_t))
    record(0.0, F0)
    t = 0.0
    for target in targets:
        while t < target - 1e-13:
            # the step check reads u and u_x on the padded grid, where the
            # first stage puts them, before that stage's products overwrite them
            _pad_factors(F, work)
            speed = _sup(work.u)
            if not math.isfinite(speed):
                raise InvalidField(f"solution became non-finite at t={t:.6f}")
            slope = _sup(work.ux)
            if slope > BLOWUP_SLOPE:
                raise BlowUp(t, slope)
            if model is Model.NOVIKOV:
                speed *= speed
            rate = speed * grid.xi_max + slope
            dt = min(config.dt_max, target - t)
            if rate > 0.0:
                dt = min(dt, CFL * RK4_IMAGINARY_LIMIT / rate)
            # k1 + 2 k2 + 2 k3 + k4 summed left to right as the stages come;
            # a stage k is doubled in place only after F + c dt k is built
            k = summed(_padded_rhs(work))
            np.copyto(acc, k)
            k = summed(_rhs_hat(stage_from(0.5 * dt, k), work))
            stage_from(0.5 * dt, k)
            acc += np.multiply(k, 2.0, out=k)
            k = summed(_rhs_hat(stage, work))
            stage_from(dt, k)
            acc += np.multiply(k, 2.0, out=k)
            k = summed(_rhs_hat(stage, work))
            acc += k
            acc *= dt / 6.0
            F += acc
            t += dt
            traj._count_step(dt, dt * rate)
            if abs(t - target) < 1e-13:
                t = target
        sample = F.copy()
        sample.flags.writeable = False
        record(target, sample)
    return traj
