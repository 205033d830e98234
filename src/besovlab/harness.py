"""Experiment drivers: non-uniform dependence runs, Taylor remainder checks,
the cross-module validation suite, and report/file emission.

Every runner returns an ExperimentReport whose verdicts carry the measured
value next to the threshold it was judged against, each threshold written
from the bound that decides the verdict, so the JSON output is a complete
record of what was computed and why it passed or failed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .besov import (
    B32INF,
    B321,
    BesovIndex,
    CutoffPair,
    build_cutoffs,
    lipschitz_norm,
    transition_chi,
    transition_ring,
    _besov_norm,
    _coeff_norm,
    _cutoff_row,
    _j_max,
    _lp_profile,
)
from .corpus import _random_samples
from .dynamics import CFL, Model, SolverConfig, _Workspace, _evolve, _rhs_hat, _times, evolve
from .errors import BesovLabError, ResolutionExceeded
from .spectral import (
    Field,
    Grid,
    _apply,
    _coeff_sup,
    _dealias,
    _derivative_multiplier,
    _fft,
    _helmholtz_multiplier,
    _ifft,
    _inner,
    _l2_norm,
    _max_abs,
    _parseval_residual,
    _power,
    _real_ifft,
    _slope_sup,
    _xi_max,
)
from .wavepackets import (
    build_bump,
    bump_hat,
    make_packets,
    min_points_for,
    modulation_identity_residual,
    product_limits,
    scaling_report,
    _driving_product,
)

DEFAULT_HALF_LENGTH = 32.0 * math.pi

# Verdict thresholds.
LOWER_BOUND_FRACTION = 0.1
BAND_LO, BAND_HI = 0.5, 2.0
DECAY_RATIO_RTOL = 1e-10
DOMINANCE_FACTOR = 4.0
DOMINANCE_MIN_N = 6
H1_DRIFT_TOL = 1e-6
SLOPE_TARGET, SLOPE_TOL = 2.0, 0.1

# Frequencies at which validate checks the partition of unity, evenly
# spaced on [-512, 512]; its seeded checks skip as many uniform draws
# (run_validation_suite).
PARTITION_DRAWS = 1_000_000

# Samples in one (rows, N) block of validate's random-field checks; the pair
# checks (linearity, derivative/Helmholtz, product_estimate) draw two fields a
# row, about 2^16 samples.  Rows equal one-field calls to the bit, so the size
# moves no value, only memory: a seeded check traces 2.0-3.6 MiB (8.0-12.6 with
# 2^17); smaller blocks save under 2 MB a pass and take 10-33% longer (BENCH_29.json).
ROW_BLOCK_SAMPLES = 2**15

# Fewest points of run_taylor_check's default grid, which the packet pair
# evolves on and both data's norms are taken on.  The remainder bound reads
# sup and Lipschitz norms off the samples, so it moves with the sample
# points (8e-8 relative for the Novikov packet pair n = 6 between 2^15 and
# 12288 points), and perfbench's taylor-novikov workload, which leaves
# grid_points unset, compares it at 1e-10 with a reference taken on 2^15.
TAYLOR_MIN_POINTS = 2**15

# Calibrated constants, frozen after one-off measurement on the seed-0
# corpus; regression-style bounds, not analytic ones.
EMBED_CONSTANT = 0.65  # ||f||_inf <= K ||f||_{B^{1/2}_{2,1}}; observed max 0.238
PRODUCT_CSTAR = 0.34  # max observed ||uv||_B/(||u||_B ||v||_inf + sym.) was 0.3332
SMALL_TIME_CONSTANT = 2.0  # ||S_t(u0)-u0||_inf / (t ||u0||_C01^2); observed max 0.27
FIRST_ORDER_CONSTANT = 2.0  # ||S_t(u0)-u0||_B / (t * first-order size); observed max 0.56


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one experiment batch."""

    model: Model = Model.CH
    n_values: tuple = (5, 6, 7, 8)
    t_values: tuple = (0.02, 0.05, 0.1)
    grid_points: int | None = None  # None: smallest adequate 2^a or 3*2^a
    half_length: float = DEFAULT_HALF_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        object.__setattr__(self, "n_values", _family_members(self.n_values))
        ts = tuple(sorted(_times(self.t_values, "t_values")))
        if not ts or ts[0] < 0 or len(set(ts)) < len(ts):
            raise ValueError(
                f"t_values must be nonnegative, at least one and none repeated, got {self.t_values!r}"
            )
        object.__setattr__(self, "t_values", ts)

    def make_grid(self) -> Grid:
        return _grid(self.grid_points, max(self.n_values), self.half_length)

    def to_dict(self) -> dict:
        return {
            "model": self.model.value,
            "n_values": list(self.n_values),
            "t_values": list(self.t_values),
            "grid_points": self.grid_points,
            "half_length": self.half_length,
            "cfl": CFL,
        }


def _family_members(n_values) -> tuple:
    """n_values as a tuple; ValueError unless they are positive integers, at
    least one and none repeated (a repeat would evolve and report a member
    twice)."""
    ns = tuple(n_values) if isinstance(n_values, (list, tuple, range)) else ()
    if (
        not ns
        or len(set(ns)) < len(ns)
        or any(isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1 for n in ns)
    ):
        raise ValueError(
            f"n_values must be positive integers, at least one and none repeated, got {n_values!r}"
        )
    return tuple(int(n) for n in ns)


def _grid(grid_points: int | None, n_max: int, half_length: float) -> Grid:
    """The requested grid, or the smallest one resolving family member n_max."""
    if grid_points is None:
        grid_points = min_points_for(n_max, half_length)
    return Grid(grid_points, half_length)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_items(fn, items) -> list:
    """[fn(item) for item in items] on one worker thread per usable CPU, at
    most one per item, while the calling thread waits; it runs no item, as
    its FFTs would re-fault their scratch after every call (glibc's main
    arena trims it; README).

    Items are evaluated independently and come back in input order, so the
    results do not depend on the thread count; numpy's FFTs release the
    interpreter lock, so trajectories overlap.  If an item raises, or the
    caller is interrupted, no further item starts; once the workers have
    finished, the first item's exception in input order is raised.
    """
    items = list(items)
    results: list = [None] * len(items)
    errors: list = [None] * len(items)
    lock = threading.Lock()
    next_index = 0
    stop = False

    def work():
        nonlocal next_index, stop
        while True:
            with lock:
                if stop or next_index == len(items):
                    return
                i = next_index
                next_index += 1
            try:
                results[i] = fn(items[i])
            except BaseException as err:  # re-raised below
                errors[i] = err
                stop = True
                return

    workers = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), len(items)))]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        stop = True
        for worker in workers:
            if worker.is_alive():
                worker.join()
    for err in errors:
        if err is not None:
            raise err
    return results


@dataclass
class ExperimentReport:
    """Structured results of one runner invocation.  A verdict that is one
    bound on its value goes through add_bound, which writes the threshold
    from the bound it applies; add_check records the others as given."""

    kind: str
    config: dict
    grid: dict
    rows: list = field(default_factory=list)
    per_n: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def passed(self) -> bool:
        ok = all(entry["passed"] for entry in self.checks.values())
        return ok and all(row.get("verdict", "pass") == "pass" for row in self.rows)

    def add_check(self, name: str, passed: bool, value, threshold) -> None:
        self.checks[name] = {
            "passed": bool(passed),
            "value": value,
            "threshold": threshold,
        }

    def add_bound(self, name: str, value, *, at_most=None, at_least=None) -> bool:
        """Check at_least <= value <= at_most, a side left None being open and
        a NaN failing, under the threshold "<= b", ">= a" or "in [a, b]"
        written from the same numbers; returns the verdict."""
        passed = (at_least is None or value >= at_least) and (at_most is None or value <= at_most)
        if at_least is None:
            threshold = f"<= {at_most}"
        elif at_most is None:
            threshold = f">= {at_least}"
        else:
            threshold = f"in [{at_least}, {at_most}]"
        self.add_check(name, passed, value, threshold)
        return bool(passed)

    def to_dict(self) -> dict:
        """The fields and the verdict; the values are the report's own, not
        copies."""
        return {**vars(self), "passed": self.passed}


def _grid_dict(grid: Grid) -> dict:
    return {
        "num_points": grid.num_points,
        "half_length": grid.half_length,
        "xi_max": grid.xi_max,
    }


def run_nonuniform(config: ExperimentConfig) -> ExperimentReport:
    """Evolve each packet with and without its vanishing perturbation and
    measure the solution-map gap D_n(t) = ||S_t(packet+pert) - S_t(packet)||
    in B^{3/2}_{2,1}, together with the decomposition pieces that explain it.

    Per-n failures (any BesovLabError: blow-up, resolution, non-finite
    state) are recorded without aborting the remaining members.  Members
    reach the solver as their spectra (make_packets), never as samples, and
    run concurrently on worker threads, one per usable CPU
    (_nonuniform_members); the report does not depend on how many there
    are.  A member's samples are dropped as soon as its gaps are taken, so
    the run holds only the trajectories of members in flight.
    """
    grid = config.make_grid()
    cutoffs = build_cutoffs(grid)
    bump = build_bump(grid)
    limit = product_limits(bump)[config.model.degree - 1]
    floor = LOWER_BOUND_FRACTION * limit  # of every D_n(t) / t, t > 0
    solver = SolverConfig(sample_times=config.t_values)
    report = ExperimentReport(
        kind="nonuniform",
        config=config.to_dict(),
        grid=_grid_dict(grid),
        extras={"product_limit": limit, "model": config.model.value},
    )

    members = _nonuniform_members(config, bump, cutoffs, solver)
    gaps: dict = {}
    pert_norms: dict = {}
    for n, member in zip(config.n_values, members):
        if isinstance(member, BesovLabError):
            report.per_n[str(n)] = {"error": f"{type(member).__name__}: {member}"}
            report.add_check(f"completed_n{n}", False, str(member), "run completes")
            continue
        entry, member_gaps = member
        report.per_n[str(n)] = entry
        if "dominance_factor" in entry:
            factor = entry["dominance_factor"]
            report.add_bound(f"dominance_n{n}", factor, at_least=DOMINANCE_FACTOR)
        pert_norm = pert_norms[n] = entry["perturbation_norm"]
        drift = entry["h1_drift"]
        for t, gap in member_gaps:
            gaps[(n, t)] = gap
            row = {
                "model": config.model.value,
                "n": n,
                "t": t,
                "D_n": gap,
                "ratio": gap / t if t > 0 else None,
                "g_norm": pert_norm,
                "h1_drift": drift,
            }
            if t > 0:
                band = gap / (t * entry["product_b321"])
                row["band_ratio"] = band
                band_ok = report.add_bound(
                    f"band_n{n}_t{t}", band, at_least=BAND_LO, at_most=BAND_HI
                )
                lower_ok = gap / t >= floor
                cell_ok = band_ok and lower_ok and drift < H1_DRIFT_TOL
            else:
                cell_ok = abs(gap - pert_norm) <= 1e-12 * pert_norm
            row["verdict"] = "pass" if cell_ok else "fail"
            report.rows.append(row)

    _aggregate_nonuniform_checks(report, config, gaps, pert_norms, floor)
    return report


def _catching(job):
    """job(), or the BesovLabError it raised, without its traceback (which
    would keep the member's trajectories alive)."""
    try:
        return job()
    except BesovLabError as err:
        return err.with_traceback(None)


def _nonuniform_members(config, bump, cutoffs, solver) -> list:
    """For each family member n of run_nonuniform, its report entry and its
    gaps [(t, D_n(t))] at the reported sample times, or the BesovLabError it
    raised.

    The work items are trajectories, not members, so three members keep two
    workers busy: every member's perturbed and base run (_evolve from the
    spectra packet_hat + perturbation_hat(model) and packet_hat), then each
    member's decomposition pieces and perturbation norm, which fill the
    workers' last gaps.  The item that lands a member's second trajectory
    takes that member's gaps and H^1 drift, then empties both trajectories'
    samples (their counters stay), so only the trajectories of members still
    in flight hold samples.  A member's error is the first of its items in the
    order perturbed, base, pieces, gaps: the one it raises when run alone.
    """
    model = config.model
    members = {n: _catching(functools.partial(make_packets, bump, n)) for n in config.n_values}
    live = {n: fam for n, fam in members.items() if not isinstance(fam, BesovLabError)}
    runs = {n: [None, None] for n in live}  # perturbed, base: Trajectory or error
    finals: dict = {}
    lock = threading.Lock()

    def trajectory(n: int, i: int, F0: np.ndarray) -> None:
        result = _catching(functools.partial(_evolve, bump.grid, F0, model, solver))
        with lock:
            runs[n][i] = result
            second = all(run is not None for run in runs[n])
        if not second:
            return
        trajs = [run for run in runs[n] if not isinstance(run, BesovLabError)]
        if len(trajs) == 2:
            finals[n] = _catching(functools.partial(_member_gaps, config.t_values, cutoffs, *trajs))
        for traj in trajs:
            traj.samples.clear()

    jobs = [
        functools.partial(trajectory, n, i, F0)
        for n, fam in live.items()
        for i, F0 in enumerate((fam.packet_hat + fam.perturbation_hat(model), fam.packet_hat))
    ]
    jobs += [functools.partial(_member_pieces, model, fam, cutoffs) for fam in live.values()]
    pieces = _map_items(_catching, jobs)[2 * len(live) :]
    for n, member_pieces in zip(live, pieces):
        outcomes = (*runs[n], member_pieces, finals.get(n))
        error = next((r for r in outcomes if isinstance(r, BesovLabError)), None)
        if error is not None:
            members[n] = error
            continue
        drift, gaps = finals[n]
        members[n] = _member_entry(n, live[n], *runs[n], member_pieces, drift), gaps
    return [members[n] for n in config.n_values]


def _member_pieces(model: Model, fam, cutoffs: CutoffPair) -> tuple:
    """A member's decomposition pieces, the norms of the first-order
    decomposition of its solution-map gap (the driving product g^k packet',
    g the perturbation and k = model.degree, and the corrections, which sum
    to correction_total), and its perturbation's B^{3/2}_{2,1} norm, from the
    family's spectra.  Each piece is formed on coefficients and reduced to
    its norm before the next is built; the RHS workspace comes last."""
    grid, packet, g = fam.grid, fam.packet_hat, fam.perturbation_hat(model)
    u = packet + g
    ixi = _derivative_multiplier(grid, 1)
    profile = _lp_profile(_driving_product(grid, model, packet, g), cutoffs)
    pieces = {
        "product_b321": float(_besov_norm(profile, B321)),
        "product_b32inf": float(_besov_norm(profile, B32INF)),
    }
    k = model.degree
    corrections = {}
    for j in range(1, k):  # the binomial middle terms of (packet + g)^k packet'
        mixed = _dealias(grid, k + 1, *(packet,) * (k - j), *(g,) * j, ixi * packet)
        term = math.comb(k, j) * float(_coeff_norm(mixed, cutoffs))
        corrections["mixed_cross"] = corrections.get("mixed_cross", 0.0) + term
    cross = _dealias(grid, k + 1, *(u,) * k, ixi * g)
    corrections["transport_cross"] = float(_coeff_norm(cross, cutoffs))
    work = _Workspace(grid, model)
    # the nonlocal parts at u0 and at the packet: P(u0) - P(packet) or Q(...)
    nonlocal_diff = _rhs_hat(u, work)[1].copy()
    nonlocal_diff -= _rhs_hat(packet, work)[1]
    corrections["nonlocal_diff"] = float(_coeff_norm(nonlocal_diff, cutoffs))
    pieces.update(corrections)
    pieces["correction_total"] = sum(corrections.values())
    return pieces, float(_coeff_norm(g, cutoffs))


def _member_gaps(t_values, cutoffs: CutoffPair, traj_pert, traj_base) -> tuple:
    """A member's H^1 drift and its gaps [(t, D_n(t))] at the reported times."""
    drift = max(traj_pert.h1_drift(), traj_base.h1_drift())
    gaps = [
        (t, float(_coeff_norm(F_pert - F_base, cutoffs)))
        for (t, F_pert), (_, F_base) in zip(traj_pert.samples, traj_base.samples)
        if t > 0.0 or 0.0 in t_values
    ]
    return drift, gaps


def _member_entry(n: int, fam, traj_pert, traj_base, pieces_and_norm, drift: float) -> dict:
    """A member's per_n entry in the report; only the trajectories' counters
    are read."""
    pieces, pert_norm = pieces_and_norm
    entry = {
        "perturbation_norm": pert_norm,
        "snap_error": fam.snap_error,
        "h1_drift": drift,
        **pieces,
        "solver": {"perturbed": traj_pert.counters(), "base": traj_base.counters()},
    }
    if n >= DOMINANCE_MIN_N:
        correction = pieces["correction_total"]
        product = pieces["product_b321"]
        entry["dominance_factor"] = product / correction if correction > 0 else math.inf
    return entry


def _aggregate_nonuniform_checks(report, config, gaps, pert_norms, floor):
    ns = sorted(pert_norms)
    expected = 2.0 ** (-1.0 / config.model.degree)
    if len(ns) >= 2:
        worst = 0.0
        for a, b in zip(ns, ns[1:]):
            step = pert_norms[b] / pert_norms[a]
            target = expected ** (b - a)
            worst = max(worst, abs(step - target) / target)
        report.add_bound("perturbation_decay_geometric", worst, at_most=DECAY_RATIO_RTOL)
    for t in config.t_values:
        if t == 0.0:
            continue
        values = [gaps[(n, t)] / t for n in ns if (n, t) in gaps]
        if values:
            report.add_bound(f"lower_bound_t{t}", min(values), at_least=floor)


# Width w of smooth_profile's Gaussian, which also sets the grid the Taylor
# check evolves it on (_smooth_grid).
SMOOTH_WIDTH = 2.0


def smooth_profile(grid: Grid) -> Field:
    """Gaussian reference datum 0.25 * exp(-x^2 / (2 w^2)), w = SMOOTH_WIDTH,
    for solver-validity and Taylor checks."""
    return Field(grid, 0.25 * np.exp(-(grid.x**2) / (2.0 * SMOOTH_WIDTH**2)))


def run_taylor_check(
    config: ExperimentConfig,
    t_min: float = 1e-3,
    t_max: float = 1e-1,
    points: int = 8,
    packet_n: int = 6,
) -> ExperimentReport:
    """Fit the time power of ||S_t(u0) - u0 - t * rhs(u0)|| in B^{3/2}_{2,1}.

    Runs a smooth Gaussian datum and the packet-plus-bump compound; a clean
    second-order Taylor remainder gives slope 2.  Also records the first-order
    gap ||S_t(u0) - u0|| against its expected t-linear size.

    The ladder is points geometric times from t_min to t_max; one evolve per
    datum samples it under the solver's one step-size rule, so a rung shorter
    than the stability bound and dt_max is a single RK4 step: the default
    ladder takes one step per rung for both data.  That moves every
    remainder by less than 5e-13 of the datum's norm from a run at
    dt_max = t_min/8 (packet_n = 6, both models: the packet pair at most
    6.4e-14 on the default 2^15 points, 3.0e-14 on 12288; the smooth datum
    4.4e-13 for CH, below 1e-16 for Novikov).  Without config.grid_points
    the grid is the smallest that resolves packet_n, but no smaller than
    TAYLOR_MIN_POINTS; the packet pair evolves on it, and both data's norms,
    which set the remainder bounds, are taken on it.  The smooth datum
    evolves on _smooth_grid(grid) (1024 points at L = 32 pi) from grid's
    first coefficients; each per_n entry records its run's "grid_points".
    The two data are evolved on worker threads as in run_nonuniform.
    Raises ValueError naming the setting unless points and packet_n are
    integers, t_min and t_max real numbers (bool counts as neither),
    0 < t_min < t_max < inf and points >= 2.
    """
    integer, real = (numbers.Integral, "an integer"), (numbers.Real, "a real number")
    for name, value, (kind, what) in (
        ("points", points, integer),
        ("packet_n", packet_n, integer),
        ("t_min", t_min, real),
        ("t_max", t_max, real),
    ):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
    t_min, t_max, points, packet_n = float(t_min), float(t_max), int(points), int(packet_n)
    if not t_min > 0.0:
        raise ValueError(f"t_min must be positive, got {t_min}")
    if not t_max > t_min:
        raise ValueError(f"t_max={t_max} must exceed t_min={t_min}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if points < 2:
        raise ValueError(f"points must be at least 2 to fit a slope, got {points}")
    ladder = np.geomspace(t_min, t_max, points)
    solver = SolverConfig(sample_times=tuple(float(t) for t in ladder))
    num_points = config.grid_points
    if num_points is None:
        num_points = max(TAYLOR_MIN_POINTS, min_points_for(packet_n, config.half_length))
    grid = Grid(num_points, config.half_length)
    cutoffs = build_cutoffs(grid)
    bump = build_bump(grid)
    fam = make_packets(bump, packet_n)
    report = ExperimentReport(
        kind="taylor",
        config={
            "model": config.model.value,
            "grid_points": grid.num_points,
            "half_length": grid.half_length,
            "cfl": CFL,
            "t_min": t_min,
            "t_max": t_max,
            "points": points,
            "packet_n": packet_n,
        },
        grid=_grid_dict(grid),
        extras={"model": config.model.value, "ladder": [float(t) for t in ladder]},
    )

    data = [
        ("smooth", _fft(grid, smooth_profile(grid).samples), _smooth_grid(grid)),
        (f"packet_pair_n{packet_n}", fam.packet_hat + fam.fast_hat, grid),
    ]
    results = _map_items(
        lambda datum: _taylor_datum(config.model, grid, datum[1], datum[2], solver, cutoffs, ladder),
        data,
    )
    for (label, _, _), (remainders, entry) in zip(data, results):
        for t, r in zip(ladder, remainders):
            report.rows.append(
                {
                    "model": config.model.value,
                    "datum": label,
                    "t": float(t),
                    "remainder": r,
                    "verdict": "pass",
                }
            )
        report.per_n[label] = entry
        report.add_check(
            f"slope_{label}",
            abs(entry["slope"] - SLOPE_TARGET) <= SLOPE_TOL,
            entry["slope"],
            f"{SLOPE_TARGET} +- {SLOPE_TOL}",
        )
        ratio = entry["first_order_ratio"]
        report.add_bound(f"first_order_{label}", ratio, at_most=FIRST_ORDER_CONSTANT)
    return report


def _smooth_grid(grid: Grid) -> Grid:
    """The grid the smooth datum evolves on: the coarsest power of two of
    grid's box whose xi_max is at least twice the frequency where the
    spectrum of smooth_profile's cube, ~ e^{-w^2 xi^2 / 6}, falls to rounding
    (14.7 at w = 2: 1024 points at L = 32 pi), or grid itself when that is
    no coarser.  A finer grid adds only rounding noise to the high blocks,
    which the 2^{3j/2} weight lifts about like N^3 (README)."""
    xi_need = 2.0 * math.sqrt(6.0 * math.log(1.0 / np.finfo(float).eps)) / SMOOTH_WIDTH
    num = 16
    while num < grid.num_points and _xi_max(num, grid.half_length) < xi_need:
        num *= 2
    return Grid(num, grid.half_length) if num < grid.num_points else grid


def _taylor_datum(
    model: Model, grid: Grid, F0, run_grid: Grid, solver: SolverConfig, cutoffs: CutoffPair, ladder
):
    """One datum of run_taylor_check, given by its half-spectrum F0 on grid:
    its remainder (F - F0) - t R at every rung of ladder (the solver's sample
    times), R the RHS spectrum at F0, and its report entry.  The datum's
    norms, which set its remainder bound, are taken on grid; the run and its
    remainders on run_grid, a grid of the same box no finer than grid, whose
    coefficients are the first ones of F0.  R's workspace is freed before
    the run starts, and F0 is the run's t = 0 sample.  Each rung's norms are
    taken as its sample F lands, so the datum holds one sample at a time."""
    norms = _datum_norms(grid, F0, cutoffs)
    bound = _remainder_bound(model, norms)
    if run_grid is not grid:
        F0 = F0[: run_grid.nyquist_index + 1]
        cutoffs = build_cutoffs(run_grid)
    R = np.add(*_rhs_hat(F0, _Workspace(run_grid, model)))
    remainders = []
    first_order = []

    def take_norms(t, F):
        if t == 0.0:
            return
        change = F - F0
        first_order.append(float(_coeff_norm(change, cutoffs)) / t)
        change -= t * R
        remainders.append(float(_coeff_norm(change, cutoffs)))

    traj = _evolve(run_grid, F0, model, solver, on_sample=take_norms)
    slope = float(np.polyfit(np.log(ladder), np.log(remainders), 1)[0])
    implied = max(r / (t**2 * bound) for r, t in zip(remainders, ladder))
    first_size = _first_order_size(model, norms)
    first_ratio = max(first_order) / first_size if first_size > 0 else 0.0
    return remainders, {
        "slope": slope,
        "remainder_bound": bound,
        "implied_constant": implied,
        "first_order_ratio": first_ratio,
        "grid_points": run_grid.num_points,
        "solver": traj.counters(),
    }


def _datum_norms(grid: Grid, F0: np.ndarray, cutoffs: CutoffPair) -> dict:
    """The norms of a Taylor datum with half-spectrum F0 on grid: "lip"
    (C^{0,1}, as lipschitz_norm), "sup" (of its samples), and "b32", "b52",
    "b72" (B^s_{2,1}, s = 3/2, 5/2, 7/2, from one block profile)."""
    profile = _lp_profile(F0, cutoffs)
    sup = float(_coeff_sup(grid, F0))
    return {
        "lip": sup + float(_slope_sup(grid, F0)),
        "sup": sup,
        "b32": float(_besov_norm(profile, B321)),
        "b52": float(_besov_norm(profile, BesovIndex(2.5, 2, 1))),
        "b72": float(_besov_norm(profile, BesovIndex(3.5, 2, 1))),
    }


def _remainder_bound(model: Model, norms: dict) -> float:
    """Norm functional bounding the second-order Taylor remainder, from the
    datum's norms (_datum_norms), keyed by model.degree: the paper's
    estimate for each equation, not one formula in k.

    k = 1 (CH):
        1 + ||u||_C01^2 ||u||_{B^{5/2}} +
        ||u||_inf (||u||_{B^{5/2}} + (||u||_inf + ||u||_C01^2) ||u||_{B^{7/2}})
    k = 2 (Novikov):
        1 + ||u||_C01^2 ||u||_{B^{5/2}} + ||u||_C01^4 ||u||_{B^{7/2}}
    """
    lip, sup, b52, b72 = norms["lip"], norms["sup"], norms["b52"], norms["b72"]
    return {
        1: lambda: 1.0 + lip**2 * b52 + sup * (b52 + (sup + lip**2) * b72),
        2: lambda: 1.0 + lip**2 * b52 + lip**4 * b72,
    }[model.degree]()


def _first_order_size(model: Model, norms: dict) -> float:
    """t-linear bound on ||S_t(u0) - u0|| in B^{3/2}_{2,1} from the datum's
    norms (shape only; the frozen FIRST_ORDER_CONSTANT absorbs the implied
    constant), keyed by model.degree like _remainder_bound."""
    b32, b52, lip, sup = norms["b32"], norms["b52"], norms["lip"], norms["sup"]
    return {
        1: lambda: b32**2 + (sup + lip**2) * b52,
        2: lambda: b32**3 + lip**2 * b52,
    }[model.degree]()


# --- validation suite -------------------------------------------------------


def run_validation_suite(
    seed: int = 0,
    grid_points: int = 2**10,
    half_length: float = 16.0 * math.pi,
    cutoff_scale: float = 1.0,
) -> ExperimentReport:
    """Aggregate every module's invariants into one deterministic pass/fail
    run.  cutoff_scale != 1 deliberately corrupts the ring cutoff so fault
    injection can be demonstrated.

    grid_points and half_length set the grid of the transform, cutoff and
    Besov checks only; the packet checks always run on Grid(2^14, 32 pi) and
    the solver smoke checks on Grid(2^12, 32 pi).  The random-field checks
    draw their fields in row blocks of about ROW_BLOCK_SAMPLES samples, twice
    that in the pair checks (linearity, derivative/Helmholtz, product_estimate),
    and evaluate each block with the same private core the one-field functions
    wrap, so every value equals the one-field-at-a-time result to the bit,
    whatever the block size.

    The checks run as two _map_items items: the seeded checks (transforms,
    the other cutoff checks, Besov, packets), then the partition-of-unity and
    solver smoke checks, which draw no random numbers.  numpy's large calls
    release the interpreter lock, so the two overlap.  The checks are merged
    in suite order, so the report does not depend on which item finishes
    first, and the seeded item's error is raised before the other's.
    """
    rng = np.random.default_rng(seed)
    grid = Grid(grid_points, half_length)
    cutoffs = build_cutoffs(grid, ring_scale=cutoff_scale)
    report = ExperimentReport(
        kind="validation",
        config={
            "seed": seed,
            "grid_points": grid_points,
            "half_length": half_length,
            "cutoff_scale": cutoff_scale,
        },
        grid=_grid_dict(grid),
    )

    partition, rest, smoke = (ExperimentReport(kind="validation", config={}, grid={})
                              for _ in range(3))

    def seeded_phases():
        _check_transforms(report, grid, rng)
        # only to keep every later draw, and with them embedding_constant,
        # product_estimate and perfbench's seed-0 reference, at their
        # recorded values (ROADMAP item 5's re-record may drop this)
        rng.bit_generator.advance(PARTITION_DRAWS)
        _check_cutoffs(rest, grid, cutoffs, rng)
        _check_besov_properties(rest, grid, cutoffs, rng)
        _check_packets(rest)

    def unseeded_phases():
        _check_partition(partition, cutoffs.ring_scale)
        _check_dynamics_smoke(smoke)

    _map_items(lambda phases: phases(), [seeded_phases, unseeded_phases])
    for part in (partition, rest, smoke):
        report.checks.update(part.checks)
    return report


def _chunks(total: int, size: int):
    """Sizes of consecutive chunks of at most size covering total items."""
    for start in range(0, total, size):
        yield min(size, total - start)


def _row_blocks(total: int, grid: Grid):
    """Row-block sizes for total fields on grid: about ROW_BLOCK_SAMPLES
    samples a block, and at least one row."""
    return _chunks(total, max(1, ROW_BLOCK_SAMPLES // grid.num_points))


def _worse(worst: float, *blocks: np.ndarray) -> float:
    """The largest of worst and every entry of blocks.  A NaN anywhere is the
    result, so a non-finite value fails its check (Python's max would drop a
    NaN that comes after a number)."""
    for block in blocks:
        worst = float(np.max(block, initial=worst))
    return worst


def _check_transforms(report, grid, rng):
    worst_rt = 0.0
    worst_pars = 0.0
    for rows in _row_blocks(1000, grid):
        f = _random_samples(grid, rng, rows)
        back = _real_ifft(grid, _fft(grid, f))
        rt = _max_abs(back - f) / np.maximum(_max_abs(f), 1e-300)
        worst_rt = _worse(worst_rt, rt)
        worst_pars = _worse(worst_pars, _parseval_residual(grid, f))
    report.add_bound("round_trip_1000", worst_rt, at_most=1e-12)
    report.add_bound("parseval", worst_pars, at_most=1e-10)

    worst_lin = 0.0
    for rows in _row_blocks(100, grid):
        # f, g, then (a, b) per row: the draw order of one field pair at a time
        pairs, ab = [], []
        for _ in range(rows):
            pairs.append(_random_samples(grid, rng, 2))
            ab.append(rng.uniform(-3, 3, size=2))
        pairs, ab = np.array(pairs), np.array(ab)
        f, g = pairs[:, 0], pairs[:, 1]
        a, b = ab[:, :1], ab[:, 1:]
        lhs = _fft(grid, a * f + b * g)
        rhs_ = a * _fft(grid, f) + b * _fft(grid, g)
        scale = np.maximum(_max_abs(rhs_), 1e-300)
        worst_lin = _worse(worst_lin, _max_abs(lhs - rhs_) / scale)
    report.add_bound("linearity", worst_lin, at_most=1e-12)

    worst_d = 0.0
    worst_sa = 0.0
    d1, d2 = _derivative_multiplier(grid, 1), _derivative_multiplier(grid, 2)
    helmholtz = _helmholtz_multiplier(grid)
    for rows in _row_blocks(100, grid):
        pairs = _random_samples(grid, rng, 2 * rows).reshape(rows, 2, -1)
        f, g = pairs[:, 0], pairs[:, 1]
        d11 = _apply(grid, d1, _apply(grid, d1, f))
        d2f = _apply(grid, d2, f)
        scale = np.maximum(_max_abs(d2f), 1e-300)
        worst_d = _worse(worst_d, _max_abs(d11 - d2f) / scale)
        a = _inner(grid, _apply(grid, helmholtz, f), g)
        b = _inner(grid, f, _apply(grid, helmholtz, g))
        worst_sa = _worse(worst_sa, np.abs(a - b) / np.maximum(np.abs(a), 1e-300))
    report.add_bound("derivative_composition", worst_d, at_most=1e-10)
    report.add_bound("helmholtz_self_adjoint", worst_sa, at_most=1e-10)


def _check_partition(report, ring_scale):
    xi_band = 512.0
    jm = _j_max(xi_band)
    worst = 0.0
    # 2^14 frequencies at a time: a validate pass peaks at 44.4 MB (2^15:
    # 44.2-44.6 MB), but with 2^16 the worker's arena keeps more (58.4 MB)
    for start in range(0, PARTITION_DRAWS, 2**14):
        xis = np.arange(start, min(start + 2**14, PARTITION_DRAWS), dtype=float)
        xis *= 2.0 * xi_band / (PARTITION_DRAWS - 1)
        xis -= xi_band
        total = sum(_cutoff_row(xis, j, ring_scale) for j in range(-1, jm + 1))
        worst = _worse(worst, np.abs(total - 1.0))
    report.add_bound("partition_of_unity_1e6", worst, at_most=1e-12)


def _check_cutoffs(report, grid, cutoffs, rng):
    probe = np.array([0.0, 0.74, 0.76, 1.0, 4.0 / 3.0 + 1e-9, 2.0, 8.0 / 3.0 + 1e-9, 5.0])
    chi_ok = (
        transition_chi(np.array([0.0]))[0] == 1.0
        and float(np.abs(transition_chi(probe[probe >= 4.0 / 3.0])).max()) == 0.0
    )
    ring_vals = transition_ring(np.array([0.5, 0.74, 2.7, 3.0]))
    ring_ok = float(np.abs(ring_vals).max()) == 0.0
    report.add_check("cutoff_supports", chi_ok and ring_ok, None, "support bounds")

    worst_rec = 0.0
    for rows in _row_blocks(1000, grid):
        f = _random_samples(grid, rng, rows)
        coeffs = _fft(grid, f)
        total_field = np.zeros_like(f)
        for j in range(-1, cutoffs.j_max + 1):
            if cutoffs.values[j + 1].size:  # an empty block adds exact zeros
                total_field += _ifft(grid, cutoffs.block_multiplier(j) * coeffs)
        rec = _max_abs(total_field - f) / np.maximum(_max_abs(f), 1e-300)
        worst_rec = _worse(worst_rec, rec)
    report.add_bound("reconstruction_1000", worst_rec, at_most=1e-10)

    worst_orth = 0.0
    for rows in _row_blocks(50, grid):
        f = _random_samples(grid, rng, rows)
        norm = np.maximum(_l2_norm(grid, f), 1e-300)
        for j in (0, 2, 5):
            ks = range(j + 2, min(j + 3, cutoffs.j_max) + 1)
            if not ks:
                continue
            once = _apply(grid, cutoffs.block_multiplier(j), f)
            for k in ks:
                twice = _apply(grid, cutoffs.block_multiplier(k), once)
                ratio = _l2_norm(grid, twice) / norm
                worst_orth = _worse(worst_orth, ratio)
    report.add_bound("block_almost_orthogonality", worst_orth, at_most=1e-12)


def _check_besov_properties(report, grid, cutoffs, rng):
    worst_mono = 0.0
    worst_embed = 0.0
    for rows in _row_blocks(200, grid):
        f = _random_samples(grid, rng, rows)
        profile = _lp_profile(_fft(grid, f), cutoffs)
        n1 = _besov_norm(profile, BesovIndex(0.5, 2, 1))
        n2 = _besov_norm(profile, BesovIndex(0.5, 2, 2))
        ninf = _besov_norm(profile, BesovIndex(0.5, 2, math.inf))
        worst_mono = _worse(worst_mono, n2 - n1, ninf - n2)
        worst_embed = _worse(worst_embed, _max_abs(f) / n1)
    report.add_bound("r_monotonicity", worst_mono, at_most=1e-12)
    report.add_check(
        "embedding_constant",
        worst_embed <= EMBED_CONSTANT and EMBED_CONSTANT < 2.0,
        worst_embed,
        f"<= {EMBED_CONSTANT} (< 2)",
    )

    worst_prod = 0.0
    for rows in _row_blocks(1000, grid):
        pairs = _random_samples(grid, rng, 2 * rows).reshape(rows, 2, -1)
        u, v = pairs[:, 0], pairs[:, 1]
        U, V = _fft(grid, u), _fft(grid, v)
        num = _coeff_norm(_dealias(grid, 2, U, V), cutoffs)
        den = _coeff_norm(U, cutoffs) * _max_abs(v)
        den += _coeff_norm(V, cutoffs) * _max_abs(u)
        worst_prod = _worse(worst_prod, num / den)
    report.add_bound("product_estimate", worst_prod, at_most=2.0 * PRODUCT_CSTAR)


def _check_packets(report):
    grid = Grid(2**14, DEFAULT_HALF_LENGTH)
    cutoffs = build_cutoffs(grid)
    bump = build_bump(grid)
    reps = {n: scaling_report(bump, n, cutoffs) for n in (4, 5, 6)}

    plateau_ok = bump_hat(np.array([0.2]))[0] == 1.0 and bump_hat(np.array([0.6]))[0] == 0.0
    even_res = float(np.abs(bump.samples[1:] - bump.samples[1:][::-1]).max())
    hat_l2 = math.sqrt(float(np.sum(_power(bump_hat(grid.xi)))) * math.pi / grid.half_length)
    pars = abs(bump.l2_norm() - hat_l2 / math.sqrt(2.0 * math.pi)) / bump.l2_norm()
    report.add_check(
        "bump_invariants",
        plateau_ok and reps[4]["bump_center_value"] > 0 and even_res <= 1e-12 and pars <= 1e-10,
        {"evenness": even_res, "parseval": pars},
        "plateau/evenness/parseval",
    )

    fast = [rep["bump_fast_b32_norm"] * 2.0**n for n, rep in reps.items()]
    slow = [rep["bump_slow_b32_norm"] * 2.0 ** (n / 2.0) for n, rep in reps.items()]
    spread = _worse(0.0, *((np.max(v) - np.min(v)) / np.max(v) for v in (fast, slow)))
    report.add_bound("perturbation_scaling_exact", spread, at_most=1e-10)

    residuals = (modulation_identity_residual(make_packets(bump, n)) for n in reps)
    worst_mod = _worse(0.0, *residuals)
    report.add_bound("modulation_identity", worst_mod, at_most=1e-12)

    loc_ok = all(all(rep["checks"].values()) for rep in reps.values())
    worst_loc = _worse(0.0, *(rep["localization_residual_cubic"] for rep in reps.values()))
    report.add_check("packet_scaling_reports", loc_ok, worst_loc, "all member checks")

    lim_quad = reps[4]["quad_product_limit"]
    low = float(np.min([reps[n]["quad_product_b32inf"] for n in (5, 6)]))
    report.add_bound("product_lower_bound", low, at_least=0.5 * lim_quad)


def _check_dynamics_smoke(report):
    grid = Grid(2**12, DEFAULT_HALF_LENGTH)
    u0 = smooth_profile(grid)
    # steps of at most 1e-2: the suite's check values are pinned to them
    cfg = SolverConfig(sample_times=(0.1, 0.25), dt_max=1e-2)

    worst_eq = 0.0
    for model in Model:
        const = Field.constant(grid, 0.7)
        traj = evolve(const, model, cfg, decay_tol=None)
        worst_eq = _worse(worst_eq, np.abs(traj.final().samples - 0.7))
    report.add_bound("constant_equilibrium", worst_eq, at_most=1e-12)

    t1 = evolve(u0, Model.CH, cfg)
    t2 = evolve(u0, Model.CH, cfg)
    identical = all(np.array_equal(a[1], b[1]) for a, b in zip(t1.samples, t2.samples))
    report.add_check("evolve_deterministic", identical, identical, "bit-identical")
    drift = t1.h1_drift()
    report.add_bound("h1_drift_smoke", drift, at_most=1e-10)

    lip = lipschitz_norm(u0)
    (_, F0), *later = t1.samples
    worst_small = _worse(0.0, *(_coeff_sup(grid, F - F0) / (t * lip**2) for t, F in later))
    report.add_bound("small_time_consistency", worst_small, at_most=SMALL_TIME_CONSTANT)


# --- output emission --------------------------------------------------------

CSV_HEADER = "model,n,t,D_n,ratio,g_norm,h1_drift,verdict"
# Plot-ready series per report kind: rows grouped by key, (t, value) per line.
DAT_SERIES = {
    "nonuniform": ("n", "D_n", "Dn_vs_t_n{}.dat"),
    "taylor": ("datum", "remainder", "remainder_vs_t_{}.dat"),
}


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit_outputs(report: ExperimentReport, out_dir: str) -> list:
    """Write report.json, the per-experiment CSV and plot-ready .dat files.

    Returns the list of paths written.  All writes go through a temp file and
    os.replace so partially written outputs never appear.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    json_path = os.path.join(out_dir, "report.json")
    _atomic_write(json_path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    written.append(json_path)

    if report.kind == "nonuniform":
        lines = [CSV_HEADER]
        for row in sorted(report.rows, key=lambda r: (r["n"], r["t"])):
            if row["t"] > 0.0:
                # str is repr for the numbers and leaves model/verdict unquoted
                lines.append(",".join(str(row[col]) for col in CSV_HEADER.split(",")))
        csv_path = os.path.join(out_dir, "nonuniform.csv")
        _atomic_write(csv_path, "\n".join(lines) + "\n")
        written.append(csv_path)

    if report.kind in DAT_SERIES:
        key, value, name = DAT_SERIES[report.kind]
        series: dict = {}
        for row in report.rows:
            if row["t"] > 0.0:
                series.setdefault(row[key], []).append((row["t"], row[value]))
        for label, pairs in sorted(series.items()):
            dat_path = os.path.join(out_dir, name.format(label))
            body = "\n".join(f"{repr(t)} {repr(v)}" for t, v in sorted(pairs))
            _atomic_write(dat_path, body + "\n")
            written.append(dat_path)

    return written


def run_scaling_batch(
    n_values,
    grid_points: int | None = None,
    half_length: float = DEFAULT_HALF_LENGTH,
) -> ExperimentReport:
    """Scaling reports for a range of family members plus cross-n variation
    checks (each rescaled quantity must stay within a factor 1.5 over the
    range, and the rescaled product norms must approach their limits).
    Raises ValueError unless n_values are positive integers, none repeated."""
    n_values = _family_members(n_values)
    grid = _grid(grid_points, max(n_values), half_length)
    cutoffs = build_cutoffs(grid)
    bump = build_bump(grid)
    report = ExperimentReport(
        kind="scalings",
        config={"n_values": list(n_values), "grid_points": grid.num_points, "half_length": half_length},
        grid=_grid_dict(grid),
    )
    reps = {}
    for n in n_values:
        try:
            reps[n] = scaling_report(bump, n, cutoffs)
            report.per_n[str(n)] = reps[n]
        except ResolutionExceeded as err:
            report.per_n[str(n)] = {"error": str(err)}
            report.add_check(f"completed_n{n}", False, str(err), "member constructible")
    if not reps:
        return report

    def variation(values):
        return max(values) / min(values)

    quantities = {
        "sup_packet_scaled": [r["sup_packet_scaled"] for r in reps.values()],
        "sup_packet_slope_scaled": [r["sup_packet_slope_scaled"] for r in reps.values()],
        "bump_fast_b32_scaled": [
            r["bump_fast_b32_norm"] * 2.0 ** (n + 1.5) for n, r in reps.items()
        ],
    }
    for s in ("1.5", "2.5", "3.5"):
        quantities[f"packet_besov_scaled_{s}"] = [
            r["packet_besov_scaled"][s] for r in reps.values()
        ]
    for name, values in quantities.items():
        v = variation(values)
        report.add_check(f"variation_{name}", v < 1.5, v, "< 1.5")

    member_ok = all(all(r["checks"].values()) for r in reps.values())
    report.add_check("member_checks", member_ok, member_ok, "all pass")

    n_top = max(reps)
    top = reps[n_top]
    for key, limit_key in (
        ("quad_product_b32inf", "quad_product_limit"),
        ("cubic_product_b32inf", "cubic_product_limit"),
    ):
        rel = abs(top[key] - top[limit_key]) / top[limit_key]
        report.add_bound(f"limit_match_{key}_n{n_top}", rel, at_most=0.05)
    return report
