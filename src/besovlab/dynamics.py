"""Model right-hand sides and the RK4 time integrator.

Two nonlocal transport equations are implemented on the periodic grid:

  quadratic model (CH):   u_t + u u_x     = P(u),
      P(u) = p_operator(u) = -d/dx (1 - d2/dx2)^{-1} (u^2 + 0.5 u_x^2)

  cubic model (Novikov):  u_t + u^2 u_x   = Q(u),
      Q(u) = -(1 - d2/dx2)^{-1} (0.5 u_x^3 + d/dx (1.5 u u_x^2 + u^3))

Both right-hand sides vanish on constants, so constants are equilibria, and
both models conserve the H^1 energy dx * sum(u^2 + u_x^2) exactly in the
continuum; the integrator monitors the discrete version.  Evolution uses
classical RK4 with one step-size rule: RK4's stability bound on the transport
term, capped at dt_max and cut short at each sample time (see SolverConfig).
It aborts with BlowUp when the slope ||u_x||_inf passes BLOWUP_SLOPE = 1e6.

One spectral right-hand side per model, _rhs_hat, returns the transport and
nonlocal parts separately; evolve integrates their sum, and the Field-level
operators (rhs, ch_rhs, novikov_rhs, p_operator, q_operator) wrap the same
function, so the tested operators are the ones the solver runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .besov import BesovIndex, CutoffPair, _besov_norm, block_lp_profile, lipschitz_norm
from .errors import BlowUp, DecayViolation, InvalidField
from .spectral import (
    Field,
    Grid,
    _coeffs,
    _derivative_multiplier,
    _from_padded,
    _helmholtz_multiplier,
    _ifft,
    _padded_grid,
    _to_field,
    _to_padded,
    derivative,
)

# Initial data must fall below this at |x| >= L/2 so that the periodic wrap
# cannot contaminate the run; band-limited bumps bottom out near 1e-4 of
# their peak at practical box sizes, hence the default.
DECAY_TOL = 1e-3

# Classical RK4 is stable on the imaginary axis up to |dt*lambda| = 2*sqrt(2)
# (Hairer-Norsett-Wanner, Solving ODEs I); a transport term's spectrum lies
# there, so cfl = 1 steps just inside that limit.
RK4_IMAGINARY_LIMIT = 2.8

# evolve raises BlowUp once ||u_x||_inf passes this slope; a breaking wave's
# slope grows without bound in finite time
BLOWUP_SLOPE = 1e6


class Model(enum.Enum):
    CH = "ch"
    NOVIKOV = "novikov"


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    sample_times are the times a run records; the last one is where it ends,
    and a run without a positive sample time takes no step.  dt is
    recomputed every step as

        min(dt_max, cfl * 2.8 / (speed * xi_max + ||u_x||_inf), time to the next sample)

    so steps land exactly on each sample time.  The denominator bounds the
    transport term's rate: speed is ||u||_inf (CH) or ||u||_inf^2 (Novikov),
    xi_max the grid's Nyquist frequency, and ||u_x||_inf the linearisation's
    growth rate.  2.8 sits just inside RK4's imaginary-axis stability limit
    2*sqrt(2), so cfl in (0, 1] is the fraction of that limit a step may use.
    dt_max = 0.05 is the longest step: RK4's error grows like dt^4, and a
    single step over (0, 0.1] would move a gap D_n by 1e-10 relative.  A
    sample interval no longer than both bounds is one step, and the zero
    datum (rate zero) steps at dt_max.  A smaller dt_max serves to measure
    the time error by step refinement.  Negative, non-finite, repeated or
    unsorted times raise ValueError.
    """

    sample_times: tuple
    cfl: float = 0.3
    dt_max: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        times = tuple(float(t) for t in self.sample_times)
        for t in times:
            if not math.isfinite(t):
                raise ValueError(f"sample times must be finite, got {t}")
            if t < 0:
                raise ValueError(f"sample times must be nonnegative, got {t}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"sample_times must be strictly increasing, got {times}")
        object.__setattr__(self, "sample_times", times)


@dataclass
class Trajectory:
    """Sampled solution of one run, with the H^1 energy of each sample and
    the solver's step counters: steps taken, the smallest and largest step
    (None before the first) and the largest CFL number dt * rate, where rate
    is the transport bound of SolverConfig."""

    model: Model
    samples: list  # [(time, Field)]
    h1_energy: list
    steps_taken: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    cfl_max: float = 0.0

    def final(self) -> Field:
        return self.samples[-1][1]

    def h1_drift(self) -> float:
        e0 = self.h1_energy[0]
        if e0 == 0.0:
            return max(abs(e) for e in self.h1_energy)
        return max(abs(e - e0) for e in self.h1_energy) / abs(e0)

    def counters(self) -> dict:
        """What the solver did, for reports."""
        return {
            "steps": self.steps_taken,
            "dt_min": self.dt_min,
            "dt_max": self.dt_max,
            "cfl_max": self.cfl_max,
        }

    def _count_step(self, dt: float, cfl: float) -> None:
        self.steps_taken += 1
        self.dt_min = dt if self.dt_min is None else min(self.dt_min, dt)
        self.dt_max = dt if self.dt_max is None else max(self.dt_max, dt)
        self.cfl_max = max(self.cfl_max, cfl)


def h1_energy(u: Field) -> float:
    """Discrete H^1 energy dx * sum(u^2 + u_x^2)."""
    ux = derivative(u, 1)
    return float(u.grid.dx * np.sum(u.samples**2 + ux.samples**2))


def _rhs_hat(grid: Grid, F: np.ndarray, model: Model) -> tuple:
    """(transport, nonlocal) parts of the model's right-hand side at the
    half-spectrum coefficients F, as half-spectrum coefficients."""
    ixi = _derivative_multiplier(grid, 1)
    fine = _padded_grid(grid, 2 if model is Model.CH else 3)
    Fx = ixi * F
    a = _to_padded(grid, F, fine)
    b = _to_padded(grid, Fx, fine)
    if model is Model.CH:
        p_mult = grid.multiplier("p_op", lambda xi: -1j * xi / (1.0 + xi**2))
        u2 = _from_padded(grid, fine, a, a)
        ux2 = _from_padded(grid, fine, b, b)
        # transport -u u_x written as -(u^2)'/2
        return -0.5 * ixi * u2, p_mult * (u2 + 0.5 * ux2)
    helm = _helmholtz_multiplier(grid)
    u3 = _from_padded(grid, fine, a, a, a)
    uux2 = _from_padded(grid, fine, a, b, b)
    ux3 = _from_padded(grid, fine, b, b, b)
    # transport -u^2 u_x written as -(u^3)'/3
    return -(1.0 / 3.0) * ixi * u3, -helm * (0.5 * ux3 + ixi * (1.5 * uux2 + u3))


def p_operator(u: Field) -> Field:
    """Nonlocal term P(u) of the quadratic model."""
    return _to_field(u.grid, _rhs_hat(u.grid, _coeffs(u), Model.CH)[1])


def q_operator(u: Field) -> Field:
    """Nonlocal term Q(u) of the cubic model."""
    return _to_field(u.grid, _rhs_hat(u.grid, _coeffs(u), Model.NOVIKOV)[1])


def rhs(u: Field, model: Model) -> Field:
    """Full right-hand side: transport part plus nonlocal part."""
    transport, nonlocal_part = _rhs_hat(u.grid, _coeffs(u), model)
    return _to_field(u.grid, transport + nonlocal_part)


def ch_rhs(u: Field) -> Field:
    """-u u_x + P(u)."""
    return rhs(u, Model.CH)


def novikov_rhs(u: Field) -> Field:
    """-u^2 u_x + Q(u)."""
    return rhs(u, Model.NOVIKOV)


def _datum_norms(u0: Field, cutoffs: CutoffPair) -> dict:
    """The norms of a Taylor datum: "lip" (C^{0,1}), "sup", and "b32", "b52",
    "b72" (B^s_{2,1}, s = 3/2, 5/2, 7/2, from one block profile)."""
    profile = block_lp_profile(u0, cutoffs)
    return {
        "lip": lipschitz_norm(u0),
        "sup": u0.max_abs(),
        "b32": float(_besov_norm(profile, BesovIndex(1.5, 2, 1))),
        "b52": float(_besov_norm(profile, BesovIndex(2.5, 2, 1))),
        "b72": float(_besov_norm(profile, BesovIndex(3.5, 2, 1))),
    }


def _remainder_bound(model: Model, norms: dict) -> float:
    lip, sup, b52, b72 = norms["lip"], norms["sup"], norms["b52"], norms["b72"]
    if model is Model.CH:
        return 1.0 + lip**2 * b52 + sup * (b52 + (sup + lip**2) * b72)
    return 1.0 + lip**2 * b52 + lip**4 * b72


def remainder_bound(u0: Field, model: Model, cutoffs: CutoffPair) -> float:
    """Norm functional bounding the second-order Taylor remainder.

    Quadratic model:
        1 + ||u||_C01^2 ||u||_{B^{5/2}} +
        ||u||_inf (||u||_{B^{5/2}} + (||u||_inf + ||u||_C01^2) ||u||_{B^{7/2}})
    Cubic model:
        1 + ||u||_C01^2 ||u||_{B^{5/2}} + ||u||_C01^4 ||u||_{B^{7/2}}
    """
    return _remainder_bound(model, _datum_norms(u0, cutoffs))


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
) -> Trajectory:
    """Integrate one initial datum with classical RK4.

    Samples are recorded at t = 0 and at every positive sample time (landed
    on exactly), each with its H^1 energy; the run ends at the last sample
    time.  Raises BlowUp when ||u_x||_inf exceeds BLOWUP_SLOPE and
    InvalidField if the state goes non-finite.
    """
    check_decay(u0, decay_tol)
    grid = u0.grid
    ixi = _derivative_multiplier(grid, 1)

    def step_rhs(F):
        transport, nonlocal_part = _rhs_hat(grid, F, model)
        # summed in place: a fresh array here, just after _rhs_hat freed its
        # padded arrays, makes glibc trim and re-fault the heap every stage
        transport += nonlocal_part
        return transport

    targets = [t for t in config.sample_times if t > 0.0]

    traj = Trajectory(model=model, samples=[], h1_energy=[])

    def record(t: float, u: Field):
        traj.samples.append((t, u))
        traj.h1_energy.append(h1_energy(u))

    record(0.0, u0)
    F0 = F = _coeffs(u0)
    t = 0.0
    for target in targets:
        while t < target - 1e-13:
            u = _ifft(grid, F)
            if not np.all(np.isfinite(u)):
                raise InvalidField(f"solution became non-finite at t={t:.6f}")
            slope = float(np.abs(_ifft(grid, ixi * F)).max())
            if slope > BLOWUP_SLOPE:
                raise BlowUp(t, slope)
            speed = float(np.abs(u).max())
            if model is Model.NOVIKOV:
                speed *= speed
            rate = speed * grid.xi_max + slope
            dt = min(config.dt_max, target - t)
            if rate > 0.0:
                dt = min(dt, config.cfl * RK4_IMAGINARY_LIMIT / rate)
            k1 = step_rhs(F)
            k2 = step_rhs(F + 0.5 * dt * k1)
            k3 = step_rhs(F + 0.5 * dt * k2)
            k4 = step_rhs(F + dt * k3)
            F = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            traj._count_step(dt, dt * rate)
            if abs(t - target) < 1e-13:
                t = target
        # u0 plus the change: transforming F back whole would add rounding
        # noise of u0's size at every frequency, the floor of small-t remainders
        record(target, Field(grid, u0.samples + _ifft(grid, F - F0)))
    return traj
