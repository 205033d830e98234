import json
import math
import os
import pathlib
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from besovlab import Grid, Model, harness
from besovlab.besov import B321, _coeff_norm, _cutoff_row, _j_max, besov_norm, build_cutoffs
from besovlab.cli import main as cli_main
from besovlab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    emit_outputs,
    run_nonuniform,
    run_scaling_batch,
    run_taylor_check,
    run_validation_suite,
    _map_items,
)
from besovlab.wavepackets import _band_top

# small but honest experiment: n = 4, 5 on the 2^13 grid finish in seconds
SMALL = dict(n_values=(4, 5), grid_points=2**13)


@pytest.fixture(scope="module")
def small_ch_report():
    cfg = ExperimentConfig(model=Model.CH, t_values=(0.05, 0.1), **SMALL)
    return run_nonuniform(cfg)


# Every check of run_validation_suite(0) as (value, passed), recorded from the
# one-field-at-a-time suite before its loops were evaluated on row blocks; the
# row blocks must reproduce each value to the bit, and the injected fault must
# trip the same checks.  h1_drift_smoke and small_time_consistency are
# recorded from the half-spectrum samples (Parseval and ifft(F - F0)), and
# product_estimate, product_lower_bound and packet_scaling_reports from
# products formed on coefficients; packet_scaling_reports from packets built
# from their spectrum, modulation_identity from the packets' real-space
# formula on the integer carrier lattice (3.186396821454072e-16 when it
# round-tripped packet_hat through irfft and rfft), and
# perturbation_scaling_exact and packet_scaling_reports from the bumps' exact
# spectra (from their samples they read 1.3783171134284327e-13 and
# 7.073174023440374e-16).
PINNED_VALIDATION = {
    1.0: {
        "block_almost_orthogonality": (6.778714192092638e-17, True),
        "bump_invariants": ({"evenness": 4.163336342344337e-17, "parseval": 1.659747183762238e-16}, True),
        "constant_equilibrium": (0.0, True),
        "cutoff_supports": (None, True),
        "derivative_composition": (2.046396302654623e-15, True),
        "embedding_constant": (0.23777085026217504, True),
        "evolve_deterministic": (True, True),
        "h1_drift_smoke": (6.681346836356238e-16, True),
        "helmholtz_self_adjoint": (3.7444245414340004e-14, True),
        "linearity": (4.698642932788333e-16, True),
        "modulation_identity": (3.6513615591266287e-16, True),
        "packet_scaling_reports": (1.5813355481154556e-16, True),
        "parseval": (5.642081172801245e-16, True),
        "partition_of_unity_1e6": (0.0, True),
        "perturbation_scaling_exact": (1.6626261923158665e-16, True),
        "product_estimate": (0.3332181643699283, True),
        "product_lower_bound": (0.023611064951836975, True),
        "r_monotonicity": (0.0, True),
        "reconstruction_1000": (6.298546132293788e-16, True),
        "round_trip_1000": (6.074394916184871e-16, True),
        "small_time_consistency": (0.2684812816240212, True),
    },
    1.01: {
        "block_almost_orthogonality": (7.517136945499054e-17, True),
        "bump_invariants": ({"evenness": 4.163336342344337e-17, "parseval": 1.659747183762238e-16}, True),
        "constant_equilibrium": (0.0, True),
        "cutoff_supports": (None, True),
        "derivative_composition": (2.046396302654623e-15, True),
        "embedding_constant": (0.23626758925454144, True),
        "evolve_deterministic": (True, True),
        "h1_drift_smoke": (6.681346836356238e-16, True),
        "helmholtz_self_adjoint": (3.7444245414340004e-14, True),
        "linearity": (4.698642932788333e-16, True),
        "modulation_identity": (3.6513615591266287e-16, True),
        "packet_scaling_reports": (1.5813355481154556e-16, True),
        "parseval": (5.642081172801245e-16, True),
        "partition_of_unity_1e6": (0.010000000000000231, False),
        "perturbation_scaling_exact": (1.6626261923158665e-16, True),
        "product_estimate": (0.3333534700424087, True),
        "product_lower_bound": (0.023611064951836975, True),
        "r_monotonicity": (0.0, True),
        "reconstruction_1000": (0.008257748295723408, False),
        "round_trip_1000": (6.074394916184871e-16, True),
        "small_time_consistency": (0.2684812816240212, True),
    },
}


class TestRunNonuniform:
    def test_gap_at_time_zero_equals_perturbation_norm(self):
        cfg = ExperimentConfig(model=Model.CH, n_values=(4,), t_values=(0.0, 0.05),
                               grid_points=2**13)
        report = run_nonuniform(cfg)
        row0 = [r for r in report.rows if r["t"] == 0.0][0]
        assert row0["D_n"] == pytest.approx(row0["g_norm"], rel=1e-12)
        assert row0["verdict"] == "pass"

    def test_rows_and_pieces_present(self, small_ch_report):
        assert {r["n"] for r in small_ch_report.rows} == {4, 5}
        for entry in small_ch_report.per_n.values():
            assert entry["product_b321"] > 0
            assert entry["correction_total"] < entry["product_b321"]

    def test_solver_counters_reported(self, small_ch_report):
        for entry in small_ch_report.per_n.values():
            for run in ("perturbed", "base"):
                counters = entry["solver"][run]
                assert counters["steps"] >= 2  # at least one per sample interval
                assert 0 < counters["dt_min"] <= counters["dt_max"] <= 0.05
                assert 0 < counters["cfl_max"] <= 0.3 * 2.8

    def test_lower_bound_checks_pass(self, small_ch_report):
        lower = [v for k, v in small_ch_report.checks.items() if k.startswith("lower_bound")]
        assert lower and all(entry["passed"] for entry in lower)

    def test_geometric_decay_check_passes(self, small_ch_report):
        assert small_ch_report.checks["perturbation_decay_geometric"]["passed"]

    def test_resolution_failure_isolated_per_member(self):
        cfg = ExperimentConfig(model=Model.CH, n_values=(4, 11), t_values=(0.05,),
                               grid_points=2**13)
        report = run_nonuniform(cfg)
        assert "error" in report.per_n["11"]
        assert {r["n"] for r in report.rows} == {4}
        assert not report.passed

    @pytest.mark.parametrize(
        "failing, reported",
        [(("perturbed",), "perturbed"), (("base",), "base"), (("perturbed", "base"), "perturbed")],
        ids=["perturbed", "base", "both"],
    )
    def test_invalid_field_isolated_per_member(self, monkeypatch, failing, reported):
        # with both data failing, the member reports the error it raises when
        # run alone (perturbed before base), whichever thread raised first
        from besovlab import InvalidField, build_bump, make_packets

        real_evolve = harness._evolve
        cfg = ExperimentConfig(model=Model.CH, n_values=(4, 5), t_values=(0.05,),
                               grid_points=2**13)
        fam = make_packets(build_bump(cfg.make_grid()), 5)
        # the n = 5 member's data; trajectories may run on any thread, in any
        # order, so the fake recognises the datum, not the call count
        data = {"perturbed": fam.packet_hat + fam.perturbation_hat(Model.CH),
                "base": fam.packet_hat}

        def evolve_failing_second_member(grid, F0, model, config):
            for name in failing:
                if np.array_equal(F0, data[name]):
                    raise InvalidField(f"injected into {name}")
            return real_evolve(grid, F0, model, config)

        monkeypatch.setattr(harness, "_evolve", evolve_failing_second_member)
        report = run_nonuniform(cfg)
        assert report.per_n["5"] == {"error": f"InvalidField: injected into {reported}"}
        assert not report.checks["completed_n5"]["passed"]
        assert {r["n"] for r in report.rows} == {4}

    @pytest.mark.parametrize(
        "failing, reported", [(("pieces", "gaps"), "pieces"), (("gaps",), "gaps")]
    )
    def test_pieces_error_before_gaps_error(self, monkeypatch, failing, reported):
        from besovlab import InvalidField

        def failing_in(name, real):
            def wrapped(*args):
                if name in failing:
                    raise InvalidField(f"injected into {name}")
                return real(*args)

            return wrapped

        monkeypatch.setattr(harness, "_member_pieces", failing_in("pieces", harness._member_pieces))
        monkeypatch.setattr(harness, "_member_gaps", failing_in("gaps", harness._member_gaps))
        cfg = ExperimentConfig(model=Model.CH, n_values=(4,), t_values=(0.05,),
                               grid_points=2**13)
        report = run_nonuniform(cfg)
        assert report.per_n["4"] == {"error": f"InvalidField: injected into {reported}"}

    def test_trajectories_released_once_gaps_taken(self, monkeypatch):
        # on one thread a member's gaps are taken as soon as its base
        # trajectory lands, so at most its own two still hold samples
        real_evolve, real_gaps = harness._evolve, harness._member_gaps
        trajectories, holding = [], []

        def tracked_evolve(grid, F0, model, config):
            trajectories.append(real_evolve(grid, F0, model, config))
            return trajectories[-1]

        def counted_gaps(*args):
            holding.append(sum(1 for traj in trajectories if traj.samples))
            return real_gaps(*args)

        _forced_cpus(monkeypatch, 1)
        monkeypatch.setattr(harness, "_evolve", tracked_evolve)
        monkeypatch.setattr(harness, "_member_gaps", counted_gaps)
        cfg = ExperimentConfig(model=Model.CH, n_values=(1, 2, 3, 4, 5), t_values=(0.05,),
                               grid_points=2**13)
        report = run_nonuniform(cfg)
        assert len(trajectories) == 10 and len(holding) == 5
        assert max(holding) <= 2
        assert not any(traj.samples for traj in trajectories)
        for entry in report.per_n.values():
            assert entry["solver"]["perturbed"]["steps"] >= 1

    @pytest.mark.parametrize("n_values", [(4.7,), (4, 4), (), (0, 5), (True,), 4])
    def test_bad_n_values_rejected(self, n_values):
        # a fractional n used to be truncated and a repeated one run twice
        with pytest.raises(ValueError, match="n_values must be positive integers"):
            ExperimentConfig(n_values=n_values)
        with pytest.raises(ValueError, match="n_values must be positive integers"):
            run_scaling_batch(n_values, grid_points=2**13)

    @pytest.mark.parametrize("t_values, message", [
        ("15", "t_values must be a sequence of numbers"),
        ("0.1", "t_values must be a sequence of numbers"),
        (0.1, "t_values must be a sequence of numbers"),
        ([0.1, "0.2"], "t_values must be a sequence of numbers"),
        # both used to pass here and fail in run_nonuniform, naming sample_times
        ((math.nan, 0.1), "sample times must be finite, got nan in t_values"),
        ((0.05, 0.05), "t_values must be nonnegative, at least one and none repeated"),
    ], ids=["digits", "decimal-string", "number", "mixed-list", "non-finite", "repeated"])
    def test_bad_t_values_rejected(self, t_values, message):
        # a string of digits used to run at one time per digit ("15": t = 1, 5)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(t_values=t_values)

    def test_nothing_downstream_of_evolve_transforms(self, monkeypatch):
        # trajectory samples are half-spectra: the H^1 drift and the gaps are
        # read off them with no FFT
        from besovlab import SolverConfig, build_bump, build_cutoffs, evolve, make_packets
        from besovlab.spectral import Grid

        grid = Grid(2**13, 32 * math.pi)
        fam = make_packets(build_bump(grid), 4)
        cutoffs = build_cutoffs(grid)
        cfg = SolverConfig(sample_times=(0.0, 0.05))
        pert = evolve(fam.packet + fam.bump_fast, Model.CH, cfg)
        base = evolve(fam.packet, Model.CH, cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("transform downstream of evolve")

        monkeypatch.setattr(np.fft, "rfft", forbidden)
        monkeypatch.setattr(np.fft, "irfft", forbidden)
        assert pert.h1_drift() < 1e-6
        drift, gaps = harness._member_gaps(cfg.sample_times, cutoffs, pert, base)
        assert drift < 1e-6
        assert [t for t, _ in gaps] == [0.0, 0.05]
        assert all(gap > 0.0 for _, gap in gaps)

    @pytest.mark.parametrize("model", list(Model))
    def test_pieces_split_the_transport_difference(self, monkeypatch, model):
        # the transport part T of the RHS, -(u^2)'/2 or -(u^3)'/3, is a
        # polynomial in u, so T(u0) - T(packet), u0 = packet + g, is exactly
        # -(product + transport_cross [+ mixed_cross]); the pieces are built
        # from the family's spectra, with no transform of the coarse grid's length
        from besovlab import build_bump, build_cutoffs
        from besovlab.besov import _besov_norm, _lp_profile
        from besovlab.dynamics import _Workspace, _rhs_hat
        from besovlab.spectral import Grid, _dealias, _derivative_multiplier
        from besovlab.wavepackets import _driving_product, make_packets, min_points_for

        grid = Grid(min_points_for(7, 32 * math.pi), 32 * math.pi)
        bump, cutoffs = build_bump(grid), build_cutoffs(grid)
        ixi = _derivative_multiplier(grid, 1)
        degree = 2 if model is Model.CH else 3
        real_irfft, real_rfft = np.fft.irfft, np.fft.rfft

        def fine_irfft_only(a, n=None, *args, **kwargs):
            if n == grid.num_points:
                raise AssertionError("inverse transform on the coarse grid")
            return real_irfft(a, n, *args, **kwargs)

        def fine_rfft_only(a, *args, **kwargs):
            if np.shape(a)[-1] == grid.num_points:
                raise AssertionError("forward transform on the coarse grid")
            return real_rfft(a, *args, **kwargs)

        def b321(coeffs):
            return float(_besov_norm(_lp_profile(coeffs, cutoffs), harness.B321))

        fams = [make_packets(bump, n) for n in (5, 6, 7)]
        monkeypatch.setattr(np.fft, "irfft", fine_irfft_only)
        monkeypatch.setattr(np.fft, "rfft", fine_rfft_only)
        for fam in fams:
            pieces, g_norm = harness._member_pieces(model, fam, cutoffs)
            packet, g = fam.packet_hat, fam.perturbation_hat(model)
            u = packet + g
            product = _driving_product(grid, model, packet, g)
            cross = _dealias(grid, degree, *[u] * (degree - 1), ixi * g)
            assert pieces["product_b321"] == pytest.approx(b321(product), rel=1e-14)
            assert pieces["transport_cross"] == pytest.approx(b321(cross), rel=1e-14)
            assert g_norm == b321(g)
            split = product + cross
            if model is Model.NOVIKOV:
                mixed = 2.0 * _dealias(grid, 3, packet, g, ixi * packet)
                assert pieces["mixed_cross"] == pytest.approx(b321(mixed), rel=1e-14)
                split += mixed
            work = _Workspace(grid, model)
            delta = _rhs_hat(u, work)[0].copy()
            delta -= _rhs_hat(packet, work)[0]
            assert b321(delta + split) <= 1e-12 * b321(delta), fam.n

    def test_family_data_never_transformed(self, monkeypatch):
        # the members reach the solver and the pieces as spectra: the run
        # takes no forward transform of the coarse grid's length
        real_rfft, lengths = np.fft.rfft, []

        def counted_rfft(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return real_rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        report = run_nonuniform(ExperimentConfig(model=Model.CH, t_values=(0.05,), **SMALL))
        assert sorted(report.per_n) == ["4", "5"] and report.rows
        assert lengths and SMALL["grid_points"] not in lengths

    def test_pieces_independent_of_grid(self):
        # from the exact spectra Novikov n = 5's transport_cross reads the
        # same to rounding (1.4e-12) on 49152, 98304 and 196608 points; from
        # samples it drifted by 1.7e-8
        from besovlab import build_bump, build_cutoffs, make_packets

        values = []
        for points in (49152, 98304, 196608):
            grid = Grid(points, 32 * math.pi)
            fam = make_packets(build_bump(grid), 5)
            pieces, _ = harness._member_pieces(Model.NOVIKOV, fam, build_cutoffs(grid))
            values.append(pieces["transport_cross"])
        assert (max(values) - min(values)) <= 1e-11 * max(values)

    def test_identical_solver_settings_give_zero_gap_without_perturbation(self):
        # determinism corollary: evolving the same datum twice gives bitwise
        # equal trajectories, so a vanished perturbation produces D == 0
        from besovlab import SolverConfig, build_bump, evolve, make_packets
        from besovlab.spectral import Grid

        grid = Grid(2**13, 32 * math.pi)
        fam = make_packets(build_bump(grid), 4)
        cfg = SolverConfig(sample_times=(0.05,))
        a = evolve(fam.packet, Model.CH, cfg)
        b = evolve(fam.packet, Model.CH, cfg)
        assert np.array_equal(a.final().samples, b.final().samples)


class TestTaylorCheck:
    def test_slope_two_on_small_grid(self):
        cfg = ExperimentConfig(model=Model.CH, n_values=(4,), t_values=(0.05,),
                               grid_points=2**12)
        report = run_taylor_check(cfg, t_min=1e-3, t_max=5e-2, points=6, packet_n=4)
        # every rung is shorter than the stability bound: one step per rung
        ladder = report.extras["ladder"]
        rungs = np.diff([0.0, *ladder])
        for label, entry in report.per_n.items():
            assert entry["slope"] == pytest.approx(2.0, abs=0.1), label
            assert entry["solver"]["steps"] == len(ladder), label
            assert entry["solver"]["dt_max"] == rungs.max(), label
        assert report.passed

    @pytest.mark.parametrize("model", list(Model))
    def test_datum_transformed_once_before_evolve(self, monkeypatch, model):
        # the one length-N rfft is the caller's, of the Gaussian's samples;
        # R, the datum's norms, its slope and the run read that spectrum,
        # whether the run is on grid (the packet pair) or a coarser one
        from besovlab import SolverConfig, build_cutoffs
        from besovlab.spectral import Grid, _fft

        grid = Grid(2**12, 32 * math.pi)
        solver = SolverConfig(sample_times=tuple(np.geomspace(1e-3, 1e-2, 3)))
        cutoffs = build_cutoffs(grid)
        real_rfft, lengths = np.fft.rfft, []

        def counted_rfft(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return real_rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        for run_grid in (grid, harness._run_grid(grid, harness.SMOOTH_TOP)):
            lengths.clear()
            F0 = _fft(grid, harness.smooth_profile(grid).samples)
            harness._taylor_datum(model, grid, F0, run_grid, solver, cutoffs)
            assert lengths.count(grid.num_points) == 1
            assert lengths.count(run_grid.num_points) == (1 if run_grid is grid else 0)

    @pytest.mark.parametrize("model", list(Model))
    def test_smooth_remainders_free_of_grid_rounding(self, monkeypatch, model):
        # the smooth datum evolves on the coarsest grid that holds its
        # spectrum; twice that grid moves its remainders by no more than
        # rounding of its norm (on 2^15 points they carried up to 7e-11)
        cfg = ExperimentConfig(model=model, grid_points=2**12)
        grid = cfg.make_grid()
        datum_norm = besov_norm(harness.smooth_profile(grid), B321, build_cutoffs(grid))

        def smooth_remainders():
            report = run_taylor_check(cfg, packet_n=4)
            rows = [row["remainder"] for row in report.rows if row["datum"] == "smooth"]
            return report.per_n["smooth"]["grid_points"], np.array(rows)

        points, coarse = smooth_remainders()
        real_run_grid = harness._run_grid
        monkeypatch.setattr(harness, "_run_grid", lambda g, top: Grid(2 * points, g.half_length)
                            if top == harness.SMOOTH_TOP else real_run_grid(g, top))
        fine_points, fine = smooth_remainders()
        assert fine_points == 2 * points == 2048
        assert np.abs(fine - coarse).max() <= 1e-14 * datum_norm

    @pytest.mark.parametrize("model", list(Model))
    def test_default_ladder_one_step_per_rung(self, model):
        # each datum records the grid it evolved on, the coarsest that holds
        # its third harmonic at L = 32 pi; the norms stay on the config grid
        report = run_taylor_check(ExperimentConfig(model=model))
        steps = {label: entry["solver"]["steps"] for label, entry in report.per_n.items()}
        assert steps == {"smooth": 8, "packet_pair_n6": 8}
        points = {label: entry["grid_points"] for label, entry in report.per_n.items()}
        assert points == {"smooth": 1024, "packet_pair_n6": 24576}
        assert report.grid["num_points"] == 2**15

    def test_smooth_datum_never_upsampled(self):
        # a config grid coarser than a datum's rule grid runs it as given
        # (the packet pair n = 1 needs 768 points)
        report = run_taylor_check(ExperimentConfig(model=Model.CH, grid_points=512),
                                  t_min=1e-3, t_max=1e-2, points=3, packet_n=1)
        assert report.per_n["smooth"]["grid_points"] == report.grid["num_points"] == 512
        assert report.per_n["packet_pair_n1"]["grid_points"] == 512
        grid = Grid(512, 32 * math.pi)
        assert harness._run_grid(grid, harness.SMOOTH_TOP) is grid
        assert harness._run_grid(Grid(2**15, 32 * math.pi), _band_top(1)).num_points == 768

    def test_run_grid_holds_third_harmonic(self):
        # the coarsest 2^a or 3 * 2^a points whose xi_max = N / 64 is at least
        # 3 top at L = 32 pi, or the config grid when that is no coarser
        grid = Grid(2**15, 32 * math.pi)
        picks = {label: harness._run_grid(grid, top).num_points for label, top in (
            ("smooth", harness.SMOOTH_TOP), *((n, _band_top(n)) for n in (5, 6)))}
        assert picks == {"smooth": 1024, 5: 12288, 6: 24576}
        assert harness.SMOOTH_TOP == pytest.approx(4.245, abs=1e-3)
        assert harness._run_grid(grid, _band_top(7)) is grid
        assert harness._run_grid(Grid(2**16, 32 * math.pi), _band_top(7)).num_points == 49152

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("packet_n, tol", [(6, 1e-14), (5, 2e-14)])
    def test_packet_pair_run_grid_matches_finer_grid(self, model, packet_n, tol):
        # the pair on its run grid against a run on 2^16 points, norms on
        # 2^15: n = 6 agrees to 5.1e-16 (Novikov) and 1.6e-15 (CH) of the
        # datum's norm; n = 5 Novikov misses by 1.2e-14, its remainder's
        # fifth harmonic (232) lying above 12288's xi_max = 192
        from besovlab import SolverConfig, build_bump, make_packets

        solver = SolverConfig(sample_times=tuple(np.geomspace(1e-3, 1e-1, 8)))

        def pair_remainders(grid, run_grid):
            fam = make_packets(build_bump(grid), packet_n)
            F0 = fam.packet_hat + fam.fast_hat
            cutoffs = build_cutoffs(grid)
            r, _ = harness._taylor_datum(model, grid, F0, run_grid, solver, cutoffs)
            return np.array(r), float(_coeff_norm(F0, cutoffs))

        grid = Grid(2**15, 32 * math.pi)
        run_grid = harness._run_grid(grid, _band_top(packet_n))
        assert run_grid.num_points == {5: 12288, 6: 24576}[packet_n]
        coarse, datum_norm = pair_remainders(grid, run_grid)
        fine_grid = Grid(2**16, 32 * math.pi)
        fine, _ = pair_remainders(fine_grid, fine_grid)
        assert np.abs(coarse - fine).max() <= tol * datum_norm

    def test_grid_sized_from_packet_n(self):
        # without grid_points the grid is the smallest that resolves packet_n;
        # n = 8 needs 49152 = 3 * 2^14 at the default box
        report = run_taylor_check(ExperimentConfig(model=Model.CH), t_min=1e-3, t_max=2e-3,
                                  points=2, packet_n=8)
        assert report.grid["num_points"] == 49152
        assert report.config == {
            "model": "ch", "grid_points": 49152, "half_length": report.grid["half_length"],
            "cfl": 0.3, "t_min": 1e-3, "t_max": 2e-3, "points": 2, "packet_n": 8,
        }

    @pytest.mark.parametrize("setting, value, message", [
        ("points", 8.0, "points must be an integer, got 8.0"),
        ("points", True, "points must be an integer, got True"),
        ("packet_n", 5.0, "packet_n must be an integer, got 5.0"),
        ("packet_n", False, "packet_n must be an integer, got False"),
        ("t_min", "0.001", "t_min must be a real number, got '0.001'"),
        ("t_min", True, "t_min must be a real number, got True"),
        ("t_max", "0.1", "t_max must be a real number, got '0.1'"),
        ("t_max", None, "t_max must be a real number, got None"),
    ])
    def test_ladder_setting_types_checked(self, setting, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_taylor_check(ExperimentConfig(model=Model.CH, grid_points=2**12), **{setting: value})

    def test_numpy_scalar_settings_accepted(self, tmp_path):
        # they reach the report as Python numbers, so it can still be emitted
        cfg = ExperimentConfig(model=Model.CH, grid_points=np.int64(2**12))
        report = run_taylor_check(cfg, t_min=np.float64(1e-3), t_max=np.float32(2e-3),
                                  points=np.int64(2), packet_n=np.int32(4))
        assert sorted(report.per_n) == ["packet_pair_n4", "smooth"]
        emit_outputs(report, str(tmp_path))
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        keys = ("grid_points", "t_min", "t_max", "points", "packet_n")
        assert [config[key] for key in keys] == [2**12, 1e-3, float(np.float32(2e-3)), 2, 4]

    def test_memory_independent_of_ladder_length(self, monkeypatch):
        # each rung's norms are taken as its sample lands, so a datum holds
        # one sample at a time: 32 rungs need about the memory of 4
        _forced_cpus(monkeypatch, 1)
        n = 2**12
        cfg = ExperimentConfig(model=Model.NOVIKOV, grid_points=n)

        def peak(points):
            tracemalloc.start()
            try:
                run_taylor_check(cfg, t_min=1e-3, t_max=1e-2, points=points, packet_n=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # fills the grid's caches
        assert peak(32) - peak(4) < 2 * n * 8


def _forced_cpus(monkeypatch, cpus):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)


def _emitted(report, out):
    """{file name: bytes} of everything emit_outputs writes for report."""
    paths = map(pathlib.Path, emit_outputs(report, str(out)))
    return {path.name: path.read_bytes() for path in paths}


RUNNERS = {
    "nonuniform_ch": lambda: run_nonuniform(ExperimentConfig(model=Model.CH, **SMALL)),
    "nonuniform_novikov": lambda: run_nonuniform(ExperimentConfig(model=Model.NOVIKOV, **SMALL)),
    "taylor": lambda: run_taylor_check(
        ExperimentConfig(model=Model.NOVIKOV, grid_points=2**12),
        t_min=1e-3, t_max=1e-2, points=3, packet_n=4,
    ),
    "validate": lambda: run_validation_suite(seed=0),
}

SEEDED_PHASES = ("_check_transforms", "_check_cutoffs", "_check_besov_properties", "_check_packets")
UNSEEDED_PHASES = ("_check_partition", "_check_dynamics_smoke")
# the harness functions that do each runner's work
RUNNER_WORK = {
    "nonuniform_ch": ("_evolve", "_member_pieces"),
    "nonuniform_novikov": ("_evolve", "_member_pieces"),
    "taylor": ("_taylor_datum",),
    "validate": SEEDED_PHASES + UNSEEDED_PHASES,
}


class TestConcurrency:
    """Runners spread their work over one thread per usable CPU, never the
    calling thread; the report must not depend on how many there are."""

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_report_independent_of_thread_count(self, runner, monkeypatch, tmp_path):
        reports, files = [], []
        for cpus in (1, 2):
            _forced_cpus(monkeypatch, cpus)
            before = threading.active_count()
            report = RUNNERS[runner]()
            assert threading.active_count() == before
            reports.append(report.to_dict())
            files.append(_emitted(report, tmp_path / str(cpus)))
        assert reports[0] == reports[1]
        assert files[0] == files[1]

    def test_one_cpu_starts_one_worker(self, monkeypatch):
        # with one usable CPU a runner starts one worker thread: it runs
        # every _map_items item while the caller waits
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        _forced_cpus(monkeypatch, 1)
        monkeypatch.setattr(threading, "Thread", CountedThread)
        for runner in RUNNERS.values():
            del started[:]
            runner()
            assert len(started) == 1
        del started[:]
        ids = _map_items(lambda i: threading.get_ident(), range(5))
        assert len(started) == 1
        assert ids == [started[0].ident] * 5

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_no_item_runs_on_the_calling_thread(self, cpus, monkeypatch):
        def item(i):
            time.sleep(0.005)  # lets every worker claim items
            return i, threading.get_ident()

        _forced_cpus(monkeypatch, cpus)
        out = _map_items(item, range(8))
        assert [i for i, _ in out] == list(range(8))
        assert threading.get_ident() not in {ident for _, ident in out}

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_no_runner_work_on_the_calling_thread(self, runner, monkeypatch):
        # every runner's work runs on workers; validate's four seeded phases
        # share one, and its partition and smoke phases another
        threads = {}

        def recorded(name):
            real = getattr(harness, name)

            def work(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, work)

        for name in RUNNER_WORK[runner]:
            recorded(name)
        _forced_cpus(monkeypatch, 2)
        before = threading.active_count()
        RUNNERS[runner]()
        assert threading.active_count() == before
        assert sorted(threads) == sorted(RUNNER_WORK[runner])
        assert threading.get_ident() not in set().union(*threads.values())
        if runner == "validate":
            seeded, unseeded = ({ident for name in phases for ident in threads[name]}
                                for phases in (SEEDED_PHASES, UNSEEDED_PHASES))
            assert len(seeded) == len(unseeded) == 1
            assert seeded != unseeded

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_other_errors_propagate(self, runner, monkeypatch):
        # the first run of any runner raises: validate's smoke checks call
        # evolve, the others _evolve
        lock = threading.Lock()
        calls = []

        def failing_once(real):
            def run(*args, **kwargs):
                with lock:
                    calls.append(None)
                    first = len(calls) == 1
                if first:
                    raise RuntimeError("injected")
                return real(*args, **kwargs)

            return run

        _forced_cpus(monkeypatch, 2)
        for name in ("evolve", "_evolve"):
            monkeypatch.setattr(harness, name, failing_once(getattr(harness, name)))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            RUNNERS[runner]()
        assert threading.active_count() == before

    def test_map_items_stress(self, monkeypatch):
        # more threads than CPUs and a short switch interval: every item is
        # claimed exactly once and its result lands at its own index
        _forced_cpus(monkeypatch, 8)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = threading.active_count()
            out = _map_items(lambda i: seen.append(i) or i * i, range(500))
        finally:
            sys.setswitchinterval(interval)
        assert out == [i * i for i in range(500)]
        assert sorted(seen) == list(range(500))
        assert threading.active_count() == before

    def test_map_items_raises_first_error_in_input_order(self, monkeypatch):
        def fail_late_items(i):
            if i == 1:
                time.sleep(0.05)  # item 2 raises first in time
            if i >= 1:
                raise ValueError(i)
            return i

        _forced_cpus(monkeypatch, 3)
        with pytest.raises(ValueError) as info:
            _map_items(fail_late_items, range(3))
        assert info.value.args == (1,)

    def test_map_items_starts_no_item_after_a_raise(self, monkeypatch):
        started = []

        def fail_first_item(i):
            if i == 0:
                raise ValueError(i)
            started.append(i)
            time.sleep(0.05)  # item 0 raises while this runs

        _forced_cpus(monkeypatch, 2)
        with pytest.raises(ValueError):
            _map_items(fail_first_item, range(10))
        assert started in ([], [1])

    def test_map_items_propagates_keyboard_interrupt(self, monkeypatch):
        started = []

        def interrupt_first_item(i):
            if i == 0:
                raise KeyboardInterrupt
            started.append(i)
            time.sleep(0.05)  # item 0 raises while this runs

        _forced_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            _map_items(interrupt_first_item, range(10))
        assert started in ([], [1])
        assert threading.active_count() == before

    def test_interrupted_caller_leaves_no_thread(self, monkeypatch):
        # Ctrl-C while the caller waits: the workers stop after their
        # current items and are joined before the interrupt propagates
        started, interrupted = [], []

        class InterruptedWait(threading.Thread):
            def join(self, timeout=None):
                if not interrupted:
                    interrupted.append(self)
                    raise KeyboardInterrupt
                super().join(timeout)

        def item(i):
            started.append(i)
            time.sleep(0.02)

        _forced_cpus(monkeypatch, 2)
        monkeypatch.setattr(threading, "Thread", InterruptedWait)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            _map_items(item, range(50))
        assert threading.active_count() == before
        assert len(started) < 50


class TestValidationSuite:
    def test_default_seed_green(self):
        report = run_validation_suite(seed=0)
        assert report.passed

    def test_injected_cutoff_fault_detected(self):
        report = run_validation_suite(seed=0, cutoff_scale=1.01)
        assert not report.passed
        assert not report.checks["partition_of_unity_1e6"]["passed"]

    def test_non_finite_fault_fails(self):
        # a NaN ring makes every ring-dependent value NaN, and a NaN must fail
        # its check rather than vanish into the running maximum
        report = run_validation_suite(seed=0, cutoff_scale=math.nan)
        assert not report.passed
        for name in ("partition_of_unity_1e6", "reconstruction_1000", "block_almost_orthogonality",
                     "r_monotonicity", "embedding_constant", "product_estimate"):
            assert not report.checks[name]["passed"], name
            assert math.isnan(report.checks[name]["value"]), name

    def test_nan_after_a_number_fails_its_check(self, monkeypatch):
        # Python's max keeps the number when a NaN comes after it; the packet
        # checks must not
        real = harness.modulation_identity_residual
        monkeypatch.setattr(harness, "modulation_identity_residual",
                            lambda fam: math.nan if fam.n == 5 else real(fam))
        report = harness.ExperimentReport(kind="validation", config={}, grid={})
        harness._check_packets(report)
        check = report.checks["modulation_identity"]
        assert not check["passed"]
        assert math.isnan(check["value"])

    def test_seed_variation_keeps_pass_set(self):
        outcomes = []
        for seed in (1, 2, 3):
            report = run_validation_suite(seed=seed)
            outcomes.append(tuple(
                (name, entry["passed"]) for name, entry in report.checks.items()
            ))
        assert all(o == outcomes[0] for o in outcomes)
        assert all(passed for _, passed in outcomes[0])

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_report_independent_of_usable_cpus(self, tmp_path):
        # the smoke phase overlaps the others under any affinity mask; the
        # worker thread inherits the caller's
        cpus = sorted(os.sched_getaffinity(0))
        runs = []
        try:
            for allowed in (cpus[:1], cpus[:2]):
                os.sched_setaffinity(0, allowed)
                report = run_validation_suite(seed=0)
                runs.append((list(report.checks), report.to_dict(),
                             _emitted(report, tmp_path / str(len(allowed)))))
        finally:
            os.sched_setaffinity(0, cpus)
        assert runs[0] == runs[1]
        assert runs[0][0][-4:] == ["constant_equilibrium", "evolve_deterministic",
                                   "h1_drift_smoke", "small_time_consistency"]

    @pytest.mark.parametrize("ring_scale", [1.0, 1.01, math.nan])
    def test_partition_lattice_matches_uniform_draws(self, ring_scale):
        # the check's value is a sup over the frequencies, and the lattice
        # reads what 10^6 uniform draws in 2^14 chunks read, NaN as NaN
        lattice = harness.ExperimentReport(kind="validation", config={}, grid={})
        harness._check_partition(lattice, ring_scale)
        value = lattice.checks["partition_of_unity_1e6"]["value"]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            worst = 0.0
            for start in range(0, harness.PARTITION_DRAWS, 2**14):
                xis = rng.uniform(-512.0, 512.0, size=min(2**14, harness.PARTITION_DRAWS - start))
                total = sum(_cutoff_row(xis, j, ring_scale) for j in range(-1, _j_max(512.0) + 1))
                worst = harness._worse(worst, np.abs(total - 1.0))
            assert worst == value or (math.isnan(worst) and math.isnan(value)), seed

    def test_seeded_phases_error_wins_over_smoke_error(self, monkeypatch):
        # the smoke phase fails first in time; the suite's order decides
        smoke_failed = threading.Event()
        _forced_cpus(monkeypatch, 2)

        def failing_evolve(*args, **kwargs):
            smoke_failed.set()
            raise RuntimeError("injected in the smoke phase")

        def failing_packets(report):
            assert smoke_failed.wait(10.0)
            raise ValueError("injected in the packet phase")

        monkeypatch.setattr(harness, "evolve", failing_evolve)
        monkeypatch.setattr(harness, "_check_packets", failing_packets)
        before = threading.active_count()
        with pytest.raises(ValueError, match="packet phase"):
            run_validation_suite(seed=0)
        assert threading.active_count() == before

    def test_interrupted_seeded_phases_leave_no_thread(self, monkeypatch):
        # Ctrl-C in the seeded phases: the smoke phase runs to its end and
        # its thread is joined before the interrupt propagates
        finished = []
        _forced_cpus(monkeypatch, 2)
        real_smoke = harness._check_dynamics_smoke

        def smoke(report):
            real_smoke(report)
            finished.append(report)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_check_dynamics_smoke", smoke)
        monkeypatch.setattr(harness, "_check_cutoffs", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_validation_suite(seed=0)
        assert threading.active_count() == before
        assert len(finished) == 1

    @pytest.mark.parametrize("block_samples", [2**17, 2**12])
    def test_checks_independent_of_row_block_size(self, block_samples, monkeypatch):
        # each row of a block equals the one-field call to the bit, so the
        # block size moves no value
        default = run_validation_suite(seed=0).checks
        monkeypatch.setattr(harness, "ROW_BLOCK_SAMPLES", block_samples)
        assert run_validation_suite(seed=0).checks == default

    @pytest.mark.parametrize("check", ["_check_transforms", "_check_cutoffs",
                                       "_check_besov_properties"])
    def test_seeded_check_working_set_small(self, check):
        # run alone on the suite's default grid, after a first run has filled
        # the grid's caches; with 2^17-sample blocks these read 8.0-12.6 MiB
        grid = Grid(2**10, 16.0 * math.pi)
        cutoffs = build_cutoffs(grid)
        args = (grid,) if check == "_check_transforms" else (grid, cutoffs)

        def run():
            report = ExperimentReport(kind="validation", config={}, grid={})
            getattr(harness, check)(report, *args, np.random.default_rng(0))

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    @pytest.mark.parametrize("cutoff_scale", sorted(PINNED_VALIDATION))
    def test_values_pinned(self, cutoff_scale):
        report = run_validation_suite(seed=0, cutoff_scale=cutoff_scale)
        got = {name: (entry["value"], entry["passed"]) for name, entry in report.checks.items()}
        assert got == PINNED_VALIDATION[cutoff_scale]


# The threshold forms the runners print, each with the verdict it states.
NUMBER = r"([-+\w.]+)"
THRESHOLD_FORMS = {
    f"<= {NUMBER}": lambda v, b: v <= b,
    f">= {NUMBER}": lambda v, a: v >= a,
    f"< {NUMBER}": lambda v, b: v < b,
    rf"in \[{NUMBER}, {NUMBER}\]": lambda v, a, b: a <= v <= b,
    rf"{NUMBER} \+- {NUMBER}": lambda v, t, d: abs(v - t) <= d,
}


class TestBounds:
    def test_add_bound_writes_the_threshold_it_applies(self):
        report = ExperimentReport(kind="probe", config={}, grid={})
        assert report.add_bound("below", 1e-13, at_most=1e-12)
        assert not report.add_bound("above", 0.5, at_least=0.6)
        assert report.add_bound("inside", 2.0, at_least=0.5, at_most=2.0)
        assert not report.add_bound("nan", math.nan, at_most=math.inf)
        assert report.add_bound("inf", math.inf, at_least=4.0)
        assert {name: (c["passed"], c["threshold"]) for name, c in report.checks.items()} == {
            "below": (True, "<= 1e-12"),
            "above": (False, ">= 0.6"),
            "inside": (True, "in [0.5, 2.0]"),
            "nan": (False, "<= inf"),
            "inf": (True, ">= 4.0"),
        }

    def test_every_verdict_agrees_with_its_threshold(self, small_ch_report):
        # add_bound writes both from one bound; the hand-written add_check
        # sites must keep them in step too
        taylor_cfg = ExperimentConfig(model=Model.CH, grid_points=2**12)
        reports = [
            run_validation_suite(0),
            run_validation_suite(0, cutoff_scale=1.01),
            small_ch_report,
            run_taylor_check(taylor_cfg, t_min=1e-3, t_max=5e-2, points=6, packet_n=4),
            run_scaling_batch((4, 5), grid_points=2**13),
        ]
        forms, verdicts = set(), set()
        for report in reports:
            for name, check in report.checks.items():
                value = check["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                for form, verdict in THRESHOLD_FORMS.items():
                    match = re.fullmatch(form, check["threshold"])
                    if match:
                        expected = verdict(value, *map(float, match.groups()))
                        assert check["passed"] == expected, (report.kind, name, check)
                        forms.add(form)
                        verdicts.add(expected)
        assert forms == set(THRESHOLD_FORMS)
        assert verdicts == {True, False}


class TestEmitOutputs:
    def test_to_dict_lists_the_fields_without_copies(self, small_ch_report):
        # emit_outputs only serialises it: a deep copy cost 0.5-0.9 ms per emit
        d = small_ch_report.to_dict()
        assert d["rows"] is small_ch_report.rows
        assert d["per_n"] is small_ch_report.per_n
        assert d.keys() == {"kind", "config", "grid", "rows", "per_n", "checks", "extras",
                            "version", "passed"}

    def test_empty_report_valid_json_no_rows(self, tmp_path):
        report = ExperimentReport(kind="nonuniform", config={}, grid={})
        paths = emit_outputs(report, str(tmp_path))
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["rows"] == []
        csv_lines = (tmp_path / "nonuniform.csv").read_text().strip().splitlines()
        assert csv_lines == [CSV_HEADER]
        assert not list(tmp_path.glob("*.dat"))
        assert str(tmp_path / "report.json") in paths

    def test_single_cell_report(self, tmp_path):
        report = ExperimentReport(kind="nonuniform", config={}, grid={})
        report.rows.append(
            {"model": "ch", "n": 5, "t": 0.1, "D_n": 0.5, "ratio": 5.0,
             "g_norm": 0.01, "h1_drift": 1e-12, "verdict": "pass"}
        )
        emit_outputs(report, str(tmp_path))
        lines = (tmp_path / "nonuniform.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "ch,5,0.1,0.5,5.0,0.01,1e-12,pass"
        dat = (tmp_path / "Dn_vs_t_n5.dat").read_text().strip()
        assert dat == "0.1 0.5"

    def test_csv_values_rederivable_from_json(self, small_ch_report, tmp_path):
        emit_outputs(small_ch_report, str(tmp_path))
        data = json.loads((tmp_path / "report.json").read_text())
        rows = {(r["n"], r["t"]): r for r in data["rows"]}
        lines = (tmp_path / "nonuniform.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == len([r for r in data["rows"] if r["t"] > 0])
        for line in lines:
            model, n, t, d, ratio, g, drift, verdict = line.split(",")
            row = rows[(int(n), float(t))]
            assert model == row["model"]
            assert float(d) == row["D_n"]
            assert float(ratio) == row["ratio"]
            assert float(g) == row["g_norm"]
            assert float(drift) == row["h1_drift"]
            assert verdict == row["verdict"]

    def test_reports_bit_identical_across_reruns(self, tmp_path):
        cfg = ExperimentConfig(model=Model.CH, n_values=(4,), t_values=(0.05,),
                               grid_points=2**13)
        blobs = []
        for sub in ("a", "b"):
            report = run_nonuniform(cfg)
            out = tmp_path / sub
            emit_outputs(report, str(out))
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_scaling_batch_n11_member_checks_pass(self):
        # on 393216 points the bumps' norms from their samples missed the
        # exact ones by 1.9e-10, above the 1e-10 bound, and lemma31 --n-min 10
        # --n-max 11 failed; from the exact spectra they agree to rounding
        report = run_scaling_batch((11,))
        assert report.passed
        member = report.per_n["11"]
        for bump in ("bump_fast", "bump_slow"):
            ratio = member[f"{bump}_b32_norm"] / member[f"{bump}_b32_exact"]
            assert abs(ratio - 1.0) <= 1e-14, bump

    def test_scaling_batch_emission(self, tmp_path):
        report = run_scaling_batch((4, 5), grid_points=2**13)
        assert report.passed
        emit_outputs(report, str(tmp_path))
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["kind"] == "scalings"
        assert set(data["per_n"]) == {"4", "5"}


class TestCli:
    def test_validate_subcommand_green(self, capsys):
        code = cli_main(["validate", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL PASS" in out

    def test_validate_fault_injection_exits_nonzero(self, capsys):
        code = cli_main(["validate", "--seed", "0", "--cutoff-scale", "1.01"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_lemma31_subcommand(self, tmp_path, capsys):
        code = cli_main([
            "lemma31", "--n-min", "4", "--n-max", "5",
            "--grid-n", str(2**13), "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "report.json").exists()

    def test_lemma31_range_from_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_min": 4, "n_max": 5, "grid_points": 2**13}))
        out_dir = tmp_path / "out"
        code = cli_main(["lemma31", "--config", str(cfg_file), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["n_values"] == [4, 5]

    def test_lemma31_output_dir_from_config_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_min": 4, "n_max": 5, "grid_points": 2**13,
                                        "output_dir": str(out_dir)}))
        code = cli_main(["lemma31", "--config", str(cfg_file)])
        assert code == 0
        assert (out_dir / "report.json").exists()

    @pytest.mark.parametrize("out", ["report.json/x", "report.json"])
    def test_unusable_output_dir_rejected_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        # a file where the output directory should go used to surface as a
        # NotADirectoryError traceback (exit 1) after the whole run
        (tmp_path / "report.json").write_text("")
        monkeypatch.setattr("besovlab.cli.run_scaling_batch", lambda **_: pytest.fail("ran"))
        with pytest.raises(SystemExit) as err:
            cli_main(["lemma31", "--n-min", "4", "--n-max", "5", "--out", str(tmp_path / out)])
        assert err.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        blocker = tmp_path / "report.json"
        assert last.endswith(f"--out {tmp_path / out}: {blocker} is not a writable directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("command, key", [
        ("validate", "output_dir"),
        ("lemma31", "model"),
        ("nonuniform", "seed"),
        ("taylor", "t_values"),
        ("nonuniform", "cfl"),
    ])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: 1}))
        with pytest.raises(SystemExit) as err:
            cli_main([command, "--config", str(cfg_file)])
        assert err.value.code == 2
        assert f"unknown config key(s): {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, settings, message", [
        ("nonuniform", {"n_values": [4], "t_values": [-0.1, 0.2]}, "t_values must be nonnegative"),
        ("lemma31", {"n_min": 6, "n_max": 5, "output_dir": "unused"}, "n_min=6 exceeds n_max=5"),
        ("nonuniform", {"n_min": 0, "n_max": 1}, "n_values must be positive integers"),
        ("lemma31", {"n_min": 0, "n_max": 1, "output_dir": "unused"},
         "n_values must be positive integers"),
        ("nonuniform", {"n_values": [0, 5]}, "n_values must be positive integers"),
        ("validate", {"seed": -1}, "seed must be a nonnegative integer"),
        ("nonuniform", {"n_values": [4, 4]}, "n_values must be positive integers"),
        ("nonuniform", {"n_values": [4.7]}, "n_values must be positive integers"),
        ("nonuniform", {"n_values": 4}, "n_values must be positive integers"),
        ("nonuniform", {"n_values": []}, "n_values must be positive integers"),
        ("nonuniform", {"n_min": 4.5, "n_max": 6}, "n_min and n_max must be integers"),
        ("lemma31", {"n_min": "4", "n_max": 6, "output_dir": "unused"},
         "n_min and n_max must be integers"),
        ("nonuniform", {"n_values": [4], "t_values": "15"}, "t_values must be a sequence"),
        ("nonuniform", {"n_values": [4], "t_values": "0.1"}, "t_values must be a sequence"),
        ("nonuniform", {"n_values": [4], "t_values": 0.1}, "t_values must be a sequence"),
        ("taylor", {"points": 8.0}, "points must be an integer, got 8.0"),
        ("taylor", {"points": True}, "points must be an integer, got True"),
        ("taylor", {"t_min": "0.001"}, "t_min must be a real number, got '0.001'"),
        ("taylor", {"t_max": False}, "t_max must be a real number, got False"),
        # JSON true is a Python bool, an int subclass: each used to run as 1
        ("validate", {"seed": True}, "seed must be a nonnegative integer, got True"),
        ("validate", {"seed": 0, "cutoff_scale": True},
         "cutoff_scale must be a finite number, got True"),
        ("nonuniform", {"n_min": True, "n_max": 2},
         "n_min and n_max must be integers, got True and 2"),
        ("lemma31", {"n_min": 4, "n_max": False, "output_dir": "unused"},
         "n_min and n_max must be integers, got 4 and False"),
        ("validate", {"seed": 0, "half_length": True}, "half_length must be a number, got True"),
        ("nonuniform", {"n_values": [4], "half_length": True},
         "half_length must be a number, got True"),
        # a float grid size used to run (and be echoed as 4096.0), a string
        # to fail inside a comparison
        ("nonuniform", {"n_values": [4], "grid_points": 4096.0},
         "num_points must be an integer, got 4096.0"),
        ("nonuniform", {"n_values": [4], "grid_points": "1024"},
         "num_points must be an integer, got '1024'"),
        ("nonuniform", {"n_values": [4], "t_values": [math.nan, 0.1]},
         "sample times must be finite, got nan in t_values"),
        ("nonuniform", {"n_values": [4], "t_values": [0.05, 0.05]},
         "t_values must be nonnegative, at least one and none repeated, got [0.05, 0.05]"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, command, settings, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(settings))
        with pytest.raises(SystemExit) as err:
            cli_main([command, "--config", str(cfg_file)])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--points", "1"], "points must be at least 2"),
        (["--points", "0"], "points must be at least 2"),
        (["--t-min", "0"], "t_min must be positive"),
        (["--t-min", "2e-3", "--t-max", "1e-3"], "t_max=0.001 must exceed t_min=0.002"),
    ])
    def test_bad_taylor_ladder_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli_main(["taylor", *argv])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["nonuniform", "--grid-n", "15"], "num_points must be even and >= 16, got 15"),
        # the step fraction is the constant dynamics.CFL, not a setting
        (["nonuniform", "--cfl", "0.3"], "unrecognized arguments: --cfl 0.3"),
        (["validate", "--seed", "0", "--grid-n", "15"], "num_points must be even and >= 16, got 15"),
        (["lemma31", "--n-min", "4", "--n-max", "5", "--out", "unused", "--grid-l", "0"],
         "half_length must be positive, got 0.0"),
        (["nonuniform", "--grid-l", "-1"], "half_length must be positive, got -1.0"),
        (["validate", "--seed", "0", "--cutoff-scale", "nan"], "cutoff_scale must be a finite number, got nan"),
        (["validate", "--seed", "0", "--cutoff-scale", "inf"], "cutoff_scale must be a finite number, got inf"),
        (["taylor", "--t-max", "inf"], "t_max must be finite, got inf"),
        (["nonuniform", "--t", "0.05,nan"], "sample times must be finite, got nan"),
        (["nonuniform", "--t", "0.05,0.05"],
         "t_values must be nonnegative, at least one and none repeated, got (0.05, 0.05)"),
        (["nonuniform", "--grid-l", "inf"], "half_length must be finite, got inf"),
        (["taylor", "--grid-l", "inf"], "half_length must be finite, got inf"),
        (["taylor", "--grid-l", "inf", "--grid-n", "1024"], "half_length must be finite, got inf"),
        (["lemma31", "--n-min", "4", "--n-max", "5", "--out", "unused", "--grid-l", "inf"],
         "half_length must be finite, got inf"),
        (["validate", "--seed", "0", "--grid-l", "inf"], "half_length must be finite, got inf"),
        (["nonuniform", "--grid-l", "1e300"],
         "family member n=8 in a box of half length L=1e+300 needs N >= 3.468e+302 points"),
        (["taylor", "--grid-l", "1e300"],
         "family member n=6 in a box of half length L=1e+300 needs N >= 8.706e+301 points"),
        (["nonuniform", "--grid-n", "0"], "num_points must be even and >= 16, got 0"),
        (["taylor", "--grid-n", "0"], "num_points must be even and >= 16, got 0"),
        (["lemma31", "--n-min", "4", "--n-max", "5", "--out", "unused", "--grid-n", "0"],
         "num_points must be even and >= 16, got 0"),
    ])
    def test_bad_grid_or_cfl_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["lemma31", "--n-min", "4"],
        ["lemma31"],
        ["nonuniform", "--n-min", "4"],
        ["nonuniform", "--n-max", "5"],
    ])
    def test_missing_or_half_given_range_rejected(self, tmp_path, capsys, argv):
        if argv[0] == "lemma31":
            argv = [*argv, "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert err.value.code == 2
        assert "--n-max" in capsys.readouterr().err

    def test_nonuniform_subcommand_with_config_file(self, tmp_path, capsys):
        # at n=4 the gap stays inside the dominance band only for t large
        # enough that the perturbation norm is subdominant; 0.25 qualifies
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "ch", "n_values": [4], "t_values": [0.25],
            "grid_points": 2**13,
        }))
        out_dir = tmp_path / "out"
        code = cli_main([
            "nonuniform", "--config", str(cfg_file), "--out", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["n_values"] == [4]
        assert (out_dir / "nonuniform.csv").exists()

    def test_cli_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "ch", "n_values": [4], "t_values": [0.4],
            "grid_points": 2**13,
        }))
        out_dir = tmp_path / "out"
        code = cli_main([
            "nonuniform", "--config", str(cfg_file), "--t", "0.25",
            "--out", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["t_values"] == [0.25]

    def test_taylor_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_points": 2**14}))
        out_dir = tmp_path / "out"
        code = cli_main([
            "taylor", "--model", "ch", "--t-min", "2e-3", "--t-max", "5e-2",
            "--points", "5", "--config", str(cfg_file), "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "remainder_vs_t_smooth.dat").exists()

    def test_taylor_grid_from_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_points": 2**14, "half_length": 120.0}))
        out_dir = tmp_path / "out"
        code = cli_main([
            "taylor", "--t-min", "2e-3", "--t-max", "1e-2", "--points", "3",
            "--config", str(cfg_file), "--out", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["grid"]["num_points"] == 2**14
        assert report["grid"]["half_length"] == 120.0

    def test_run_error_exits_3(self, tmp_path, capsys):
        # 2^13 points on a box of half-length 50 resolve too few bump frequencies
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"grid_points": 8192, "half_length": 50.0}))
        code = cli_main(["taylor", "--config", str(cfg_file)])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("besovlab: error: ResolutionExceeded: ")
