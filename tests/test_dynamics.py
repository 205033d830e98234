import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from besovlab import (
    BesovIndex,
    BlowUp,
    DecayViolation,
    Field,
    Grid,
    Model,
    SolverConfig,
    besov_norm,
    build_bump,
    build_cutoffs,
    ch_rhs,
    derivative,
    evolve,
    make_packets,
    novikov_rhs,
    rhs,
)
from besovlab import harness
from besovlab.harness import B321, SMALL_TIME_CONSTANT, smooth_profile
from besovlab.besov import _besov_norm, _lp_profile, lipschitz_norm
from besovlab.dynamics import RK4_IMAGINARY_LIMIT, _field_rhs, _h1_energy
from besovlab.spectral import _coeffs, _from_padded, _ifft, _to_field, _to_padded


def b321_hat(coeffs, cutoffs):
    """B^{3/2}_{2,1} norm of the field with half-spectrum coeffs."""
    return float(_besov_norm(_lp_profile(coeffs, cutoffs), B321))


def nonlocal_part(u, model):
    """P(u) (CH) or Q(u) (Novikov): the nonlocal part of the model's RHS."""
    return _to_field(u.grid, _field_rhs(u, model)[1])


def kernel_quadrature(xs, w_fn, signed, refine_grid):
    """Trapezoid of the exponential kernel against an analytic source.

    signed=False: 0.5 e^{-|x-y|} (Helmholtz kernel); signed=True: the kernel
    of -d/dx (1-d2/dx2)^{-1}, i.e. 0.5 sign(x-y) e^{-|x-y|}.
    """
    dxf = refine_grid[1] - refine_grid[0]
    wy = w_fn(refine_grid)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        diff = x - refine_grid
        ker = 0.5 * np.exp(-np.abs(diff))
        if signed:
            ker = ker * np.sign(diff)
        out[i] = dxf * np.sum(ker * wy)
    return out


class TestPOperator:
    def test_constant_maps_to_zero(self, trig_grid):
        out = nonlocal_part(Field.constant(trig_grid, 3.0), Model.CH)
        assert out.max_abs() <= 1e-13

    def test_sine_closed_form(self, trig_grid):
        g = trig_grid
        out = nonlocal_part(Field(g, np.sin(g.x)), Model.CH)
        assert np.abs(out.samples + np.sin(2 * g.x) / 10).max() <= 1e-12

    def test_odd_parity_preserved(self, trig_grid):
        g = trig_grid
        u = Field(g, np.sin(g.x) + 0.3 * np.sin(2 * g.x))
        out = nonlocal_part(u, Model.CH).samples
        n = g.num_points
        # odd: value at -x equals -value at x (index 0 is x=-L, self-paired)
        flipped = -np.concatenate([out[:1], out[1:][::-1]])
        assert np.abs(out - flipped).max() <= 1e-12

    def test_gaussian_matches_kernel_quadrature(self):
        g = Grid(2**12, 32.0)
        u = Field(g, np.exp(-(g.x**2) / 2))
        out = nonlocal_part(u, Model.CH).samples
        fine = np.linspace(-32.0, 32.0, g.num_points * 64, endpoint=False)
        idx = np.arange(0, g.num_points, 256)
        oracle = kernel_quadrature(
            g.x[idx], lambda y: (1 + y**2 / 2) * np.exp(-(y**2)), signed=True,
            refine_grid=fine,
        )
        assert np.abs(out[idx] - oracle).max() <= 1e-8


class TestModelRhs:
    def test_ch_constant_equilibrium(self, trig_grid):
        assert ch_rhs(Field.constant(trig_grid, -1.7)).max_abs() <= 1e-13

    def test_ch_sine_closed_form(self, trig_grid):
        g = trig_grid
        out = ch_rhs(Field(g, np.sin(g.x)))
        assert np.abs(out.samples + 0.6 * np.sin(2 * g.x)).max() <= 1e-12

    def test_ch_packet_pair_matches_fine_grid(self, box_bump):
        # same right-hand side evaluated on a 4x finer grid and truncated back
        g = box_bump.grid
        fam = make_packets(box_bump, 5)
        u = fam.packet + fam.bump_fast
        coarse = ch_rhs(u)

        fine = Grid(4 * g.num_points, g.half_length)
        uf = Field(fine, _to_padded(g, _coeffs(u), fine))
        rhs_fine = ch_rhs(uf)
        ref = _to_field(g, _from_padded(g, fine, rhs_fine.samples))
        scale = ref.max_abs()
        assert np.abs(coarse.samples - ref.samples).max() <= 1e-9 * scale

    def test_novikov_constant_equilibrium(self, trig_grid):
        assert novikov_rhs(Field.constant(trig_grid, 0.9)).max_abs() <= 1e-13

    def test_novikov_sine_closed_form(self, trig_grid):
        # trig reduction of the cubic terms for u = sin x gives
        # Q(u) = -(3/4) cos x - (1/20) cos 3x and rhs = -cos x + (1/5) cos 3x
        g = trig_grid
        u = Field(g, np.sin(g.x))
        q = nonlocal_part(u, Model.NOVIKOV)
        assert np.abs(q.samples + 0.75 * np.cos(g.x) + np.cos(3 * g.x) / 20).max() <= 1e-12
        out = novikov_rhs(u)
        assert np.abs(out.samples + np.cos(g.x) - np.cos(3 * g.x) / 5).max() <= 1e-12

    def test_novikov_gaussian_matches_kernel_quadrature(self):
        # for u = exp(-x^2/2) the cubic source reduces to -5 x^3 exp(-3x^2/2)
        g = Grid(2**12, 32.0)
        u = Field(g, np.exp(-(g.x**2) / 2))
        out = nonlocal_part(u, Model.NOVIKOV).samples
        fine = np.linspace(-32.0, 32.0, g.num_points * 64, endpoint=False)
        idx = np.arange(0, g.num_points, 256)
        oracle = kernel_quadrature(
            g.x[idx], lambda y: 5 * y**3 * np.exp(-1.5 * y**2), signed=False,
            refine_grid=fine,
        )
        assert np.abs(out[idx] - oracle).max() <= 1e-8

    def test_rhs_dispatches_to_model(self, trig_grid):
        u = Field(trig_grid, np.sin(trig_grid.x))
        assert np.array_equal(rhs(u, Model.CH).samples, ch_rhs(u).samples)
        assert np.array_equal(rhs(u, Model.NOVIKOV).samples, novikov_rhs(u).samples)


def remainder_bound(u, model, cutoffs):
    return harness._remainder_bound(model, harness._datum_norms(u, _coeffs(u), cutoffs))


class TestRemainderBound:
    def test_zero_field_gives_one(self, box_grid, box_cutoffs):
        z = Field.zero(box_grid)
        assert remainder_bound(z, Model.CH, box_cutoffs) == 1.0
        assert remainder_bound(z, Model.NOVIKOV, box_cutoffs) == 1.0

    def test_independent_reassembly(self, box_grid, box_cutoffs):
        f = smooth_profile(box_grid)
        lip = lipschitz_norm(f)
        sup = f.max_abs()
        b52 = besov_norm(f, BesovIndex(2.5, 2, 1), box_cutoffs)
        b72 = besov_norm(f, BesovIndex(3.5, 2, 1), box_cutoffs)
        expected_ch = 1 + lip**2 * b52 + sup * (b52 + (sup + lip**2) * b72)
        expected_nov = 1 + lip**2 * b52 + lip**4 * b72
        assert remainder_bound(f, Model.CH, box_cutoffs) == pytest.approx(expected_ch)
        assert remainder_bound(f, Model.NOVIKOV, box_cutoffs) == pytest.approx(
            expected_nov
        )

    def test_uniformly_bounded_along_family(self, box_bump, box_cutoffs):
        values = []
        for n in (4, 5):
            fam = make_packets(box_bump, n)
            values.append(
                remainder_bound(fam.packet + fam.bump_fast, Model.CH, box_cutoffs)
            )
            values.append(remainder_bound(fam.packet, Model.CH, box_cutoffs))
        assert max(values) < 3.0


class TestEvolve:
    def test_zero_horizon_returns_initial_sample(self, coarse_grid):
        u0 = smooth_profile(coarse_grid)
        traj = evolve(u0, Model.CH, SolverConfig(sample_times=(0.0,)))
        assert len(traj.samples) == 1
        t0, F0 = traj.samples[0]
        assert t0 == 0.0
        assert np.array_equal(F0, _coeffs(u0))

    @pytest.mark.parametrize("model", list(Model))
    def test_constant_is_equilibrium(self, coarse_grid, model):
        u0 = Field.constant(coarse_grid, 0.4)
        traj = evolve(u0, model, SolverConfig(sample_times=(0.5,)), decay_tol=None)
        assert np.abs(traj.final().samples - 0.4).max() <= 1e-12

    def test_decay_precondition_enforced(self, coarse_grid):
        u0 = Field(coarse_grid, 0.5 * np.cos(coarse_grid.x / 16))
        with pytest.raises(DecayViolation):
            evolve(u0, Model.CH, SolverConfig(sample_times=(0.1,)))

    def test_lands_exactly_on_sample_times(self, coarse_grid):
        times = (0.013, 0.05, 0.77 * 0.1, 0.1)
        traj = evolve(smooth_profile(coarse_grid), Model.CH, SolverConfig(sample_times=times))
        assert [t for t, _ in traj.samples] == [0.0] + list(times)

    def test_temporal_order_four(self, coarse_grid):
        # Richardson: error against a dt/16 reference run contracts ~2^4
        # per halving of dt_max (the stability bound does not bind here)
        u0 = smooth_profile(coarse_grid)
        final = 0.5

        def run(dt):
            cfg = SolverConfig(sample_times=(final,), dt_max=dt)
            return evolve(u0, Model.CH, cfg).final().samples

        ref = run(0.02 / 16)
        errs = [np.abs(run(dt) - ref).max() for dt in (0.02, 0.01)]
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize("model", list(Model))
    def test_h1_energy_drift_small(self, coarse_grid, model):
        u0 = smooth_profile(coarse_grid)
        traj = evolve(u0, model, SolverConfig(sample_times=(0.25, 0.5)))
        assert traj.h1_drift() < 1e-6

    def test_padded_grid_builds_no_sample_locations(self):
        # the solver reads only a padded grid's spectral arrays; its x is
        # built on first access, read-only like the grid's other arrays
        grid = Grid(2**12, 32 * math.pi)
        evolve(smooth_profile(grid), Model.NOVIKOV, SolverConfig(sample_times=(0.01,)))
        fine = grid.padded(2, 1)
        assert "x" not in vars(fine)
        assert np.array_equal(fine.x, -fine.half_length + fine.dx * np.arange(fine.num_points))
        assert not fine.x.flags.writeable

    def test_deterministic(self, coarse_grid):
        u0 = smooth_profile(coarse_grid)
        cfg = SolverConfig(sample_times=(0.1, 0.2))
        a = evolve(u0, Model.CH, cfg)
        b = evolve(u0, Model.CH, cfg)
        for (ta, fa), (tb, fb) in zip(a.samples, b.samples):
            assert ta == tb
            assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("model", list(Model))
    def test_concurrent_runs_on_one_grid_match_serial_runs(self, coarse_grid, model):
        # each evolve owns its work arrays: four runs on one grid (sharing its
        # cached padded grid and multipliers) from four threads, switched
        # every microsecond, must each give their serial trajectory to the bit
        base = smooth_profile(coarse_grid)
        data = [scale * base for scale in (1.0, 1.5, 2.0, 2.5)]
        cfg = SolverConfig(sample_times=(0.05, 0.1), dt_max=0.005)
        serial = [evolve(u0, model, cfg) for u0 in data]
        threaded = [None] * len(data)
        start = threading.Barrier(len(data))

        def run(i):
            start.wait()
            threaded[i] = evolve(data[i], model, cfg)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(data))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert b is not None
            assert [t for t, _ in a.samples] == [t for t, _ in b.samples]
            for (_, fa), (_, fb) in zip(a.samples, b.samples):
                assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("model", list(Model))
    def test_on_sample_receives_the_recorded_samples(self, coarse_grid, model):
        u0 = smooth_profile(coarse_grid)
        cfg = SolverConfig(sample_times=(0.0, 0.05, 0.1), dt_max=0.02)
        plain = evolve(u0, model, cfg)
        seen = []
        streamed = evolve(u0, model, cfg, on_sample=lambda t, F: seen.append((t, F)))
        assert streamed.samples == []
        assert streamed.counters() == plain.counters()
        assert [t for t, _ in seen] == [t for t, _ in plain.samples] == [0.0, 0.05, 0.1]
        for (_, a), (_, b) in zip(seen, plain.samples):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("model, doubles", [(Model.CH, 14.5), (Model.NOVIKOV, 19.0)])
    def test_work_array_footprint(self, model, doubles):
        # one evolve holds its state, stage, RK4 sum, initial spectrum, the
        # RHS's work arrays and the samples it keeps; peak in N doubles
        grid = Grid(2**14, 32 * math.pi)
        u0 = smooth_profile(grid)
        cfg = SolverConfig(sample_times=(0.01, 0.02, 0.03))
        evolve(u0, model, cfg, decay_tol=None)  # fills the grid's caches
        tracemalloc.start()
        try:
            evolve(u0, model, cfg, decay_tol=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= doubles * grid.num_points * 8

    def test_blowup_detected(self, coarse_grid, monkeypatch):
        # steep front: the slope of exp(-2x^2) grows from 1.21 past 2.5
        # well before t=1.5 under the quadratic model
        monkeypatch.setattr("besovlab.dynamics.BLOWUP_SLOPE", 2.5)
        u0 = Field(coarse_grid, np.exp(-2 * coarse_grid.x**2))
        with pytest.raises(BlowUp) as err:
            evolve(u0, Model.CH, SolverConfig(sample_times=(1.5,)))
        assert 0.0 < err.value.time < 1.5
        assert err.value.slope > 2.5

    def test_small_time_consistency(self, coarse_grid):
        u0 = smooth_profile(coarse_grid)
        lip = lipschitz_norm(u0)
        traj = evolve(
            u0, Model.CH, SolverConfig(sample_times=(0.025, 0.05, 0.1))
        )
        (_, F0), *later = traj.samples
        for t, F in later:
            gap = np.abs(_ifft(coarse_grid, F - F0)).max()
            assert gap <= SMALL_TIME_CONSTANT * t * lip**2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(sample_times=(0.5, 0.2))
        with pytest.raises(ValueError, match="nonnegative, got -0.1"):
            SolverConfig(sample_times=(-0.1, 0.2))
        with pytest.raises(ValueError, match="sample times must be finite, got inf"):
            SolverConfig(sample_times=(0.5, math.inf))
        with pytest.raises(ValueError, match="finite, got nan"):
            SolverConfig(sample_times=(0.5, math.nan))
        with pytest.raises(ValueError, match=r"increasing, got \(0.5, 0.5\)"):
            SolverConfig(sample_times=(0.5, 0.5))
        # a string is not a list of times ("15" used to mean t = 1 and 5)
        for times in ("15", "0.1", 0.1):
            with pytest.raises(ValueError, match="sample_times must be a sequence of numbers"):
                SolverConfig(sample_times=times)


class TestStepSize:
    def test_zero_datum_steps_at_dt_max(self):
        # the transport rate vanishes on the zero datum: dt falls back to dt_max
        u0 = Field.zero(Grid(2**10, 32 * math.pi))
        traj = evolve(u0, Model.CH, SolverConfig(sample_times=(0.1,)), decay_tol=None)
        assert traj.steps_taken == 2
        assert traj.dt_min == traj.dt_max == SolverConfig.dt_max == 0.05
        assert not np.any(traj.final().samples)

    @pytest.mark.parametrize("model", list(Model))
    def test_stability_bound_binds_and_is_stable(self, model, monkeypatch):
        # amplitude 2 on 2^14 points at the full RK4 limit: the transport
        # bound, not dt_max, sets dt
        monkeypatch.setattr("besovlab.dynamics.CFL", 1.0)
        u0 = 8.0 * smooth_profile(Grid(2**14, 32 * math.pi))
        traj = evolve(u0, model, SolverConfig(sample_times=(0.2,)))
        assert traj.steps_taken > 20  # dt_max alone gives 4; the bound keeps dt < 1e-2
        assert traj.cfl_max <= RK4_IMAGINARY_LIMIT + 1e-12  # rounding of dt * rate
        assert traj.h1_drift() < 1e-6

    def test_time_error_of_gap_below_reference_tolerance(self, box_bump, box_cutoffs):
        # D_n(0.1) for CH n = 5 on the smallest grid resolving it, in the two
        # default-length steps of a lone interval (0, 0.1]: capping the step at
        # dt_max = 5e-3 moves it by far less than the 1e-10 relative reference
        # tolerance
        fam = make_packets(box_bump, 5)
        u0 = fam.packet + fam.perturbation(Model.CH)

        def gap(config):
            pert = evolve(u0, Model.CH, config).final()
            base = evolve(fam.packet, Model.CH, config).final()
            return besov_norm(pert - base, BesovIndex(1.5, 2, 1), box_cutoffs)

        default = gap(SolverConfig(sample_times=(0.1,)))
        capped = gap(SolverConfig(sample_times=(0.1,), dt_max=5e-3))
        assert abs(default - capped) <= 1e-10 * capped

    @pytest.mark.parametrize("model", list(Model))
    def test_ladder_time_error(self, model, coarse_grid):
        # Taylor remainders on the geometric ladder, one step per rung under
        # the default rule: a run capped at dt_max = t_min/8 moves them by far
        # less than the reference tolerance
        cutoffs = build_cutoffs(coarse_grid)
        fam = make_packets(build_bump(coarse_grid), 4)
        u0 = fam.packet + fam.bump_fast
        R = np.add(*_field_rhs(u0, model))
        ladder = tuple(float(t) for t in np.geomspace(1e-3, 1e-1, 8))

        def run(**cap):
            config = SolverConfig(sample_times=ladder, **cap)
            traj = evolve(u0, model, config)
            (_, F0), *later = traj.samples
            remainders = [b321_hat((F - F0) - t * R, cutoffs) for t, F in later]
            return traj, np.array(remainders)

        default, r_default = run()
        _, r_capped = run(dt_max=ladder[0] / 8)
        assert default.steps_taken == len(ladder)
        scale = besov_norm(u0, B321, cutoffs)
        assert np.abs(r_default - r_capped).max() <= 1e-10 * scale


def test_small_time_remainder_above_rounding_floor():
    # Novikov packet pair n = 7 on its 2^15 grid, the benchmark's hardest Taylor
    # datum: its remainder u(t) - u0 - t rhs(u0) at t = 1e-3 is about 1.2e-15 in
    # B^{3/2}_{2,1}.  Taken on coefficients as (F - F0) - t R, it carries no
    # transform rounding of u0's own size, so from t = 1e-3 to 2e-3 it scales
    # like t^2 to within 0.01 in the exponent (real-space remainders
    # u0 + ifft(F - F0) - u0 - t rhs(u0) gave a two-point slope of 1.92).
    grid = Grid(2**15, 32 * math.pi)
    fam = make_packets(build_bump(grid), 7)
    cutoffs = build_cutoffs(grid)
    u0 = fam.packet + fam.bump_fast
    R = np.add(*_field_rhs(u0, Model.NOVIKOV))
    config = SolverConfig(sample_times=(1e-3, 2e-3))
    (_, F0), *later = evolve(u0, Model.NOVIKOV, config).samples
    r1, r2 = (b321_hat((F - F0) - t * R, cutoffs) for t, F in later)
    assert abs(math.log2(r2 / r1) - 2.0) <= 0.01


class TestGapPinned:
    # D_n(t) = ||S_t(packet + g) - S_t(packet)|| in B^{3/2}_{2,1} for n = 5 on
    # the box grid, as the nonuniform experiment's solver settings give it,
    # recorded with the full-spectrum complex-FFT solver.  The half-spectrum
    # solver must reproduce it to the 1e-10 relative reference tolerance.
    RECORDED = {
        Model.CH: {0.02: 0.003081808059731547, 0.1: 0.0049862883823306265},
        Model.NOVIKOV: {0.02: 0.014794436467894113, 0.1: 0.014950630104191575},
    }

    @pytest.mark.parametrize("model", list(Model))
    def test_gap_matches_recorded_values(self, model, box_bump, box_cutoffs):
        fam = make_packets(box_bump, 5)
        config = SolverConfig(sample_times=(0.02, 0.1))
        pert = evolve(fam.packet + fam.perturbation(model), model, config)
        base = evolve(fam.packet, model, config)
        for (t, F), (_, G) in zip(pert.samples[1:], base.samples[1:]):
            gap = b321_hat(F - G, box_cutoffs)
            assert gap == pytest.approx(self.RECORDED[model][t], rel=1e-10, abs=0.0)


def test_h1_energy_formula(trig_grid):
    # Parseval's form of the real-space energy dx * sum(u^2 + u_x^2)
    g = trig_grid
    u = Field(g, np.sin(3 * g.x))
    ux = derivative(u, 1)
    expected = g.dx * float(np.sum(u.samples**2 + ux.samples**2))
    energy = _h1_energy(g, _coeffs(u))
    assert energy == pytest.approx(expected)
    # sin(3x): integral of sin^2 + 9 cos^2 over [-pi, pi) is 10 pi
    assert energy == pytest.approx(10 * math.pi, rel=1e-12)
