"""Acceptance gate: every numbered criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line.  The per-cell dominance-band
assertions of criteria 8 and 9 are parametrized so each tested (n, t) cell
reports individually; the cells where the vanishing perturbation's own norm
still exceeds the t-linear product term fail by construction of the data
family (the measured ratios match the first-order prediction
1 + ||perturbation|| / (t * product norm) to three digits), and are left
failing rather than widened.  See the per-run JSON reports for the measured
values next to their thresholds.
"""

import math
import time

import numpy as np
import pytest

from besovlab import (
    Field,
    Grid,
    Model,
    SolverConfig,
    evolve,
    forward_transform,
    helmholtz_inverse,
    inverse_transform,
)
from besovlab.corpus import random_field
from besovlab.harness import (
    BAND_HI,
    BAND_LO,
    ExperimentConfig,
    emit_outputs,
    run_nonuniform,
    run_scaling_batch,
    run_taylor_check,
    run_validation_suite,
    smooth_profile,
)

N_RANGE = (5, 6, 7, 8)
T_RANGE = (0.02, 0.05, 0.1)


def announce(criterion: str, passed: bool, detail: str = ""):
    state = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {state} {detail}")


@pytest.fixture(scope="module")
def validation_report():
    start = time.monotonic()
    report = run_validation_suite(seed=0)
    report.extras["elapsed"] = time.monotonic() - start
    return report


@pytest.fixture(scope="module")
def scaling_batch():
    start = time.monotonic()
    report = run_scaling_batch(range(4, 9))
    report.extras["elapsed"] = time.monotonic() - start
    return report


@pytest.fixture(scope="module")
def ch_experiment():
    start = time.monotonic()
    report = run_nonuniform(
        ExperimentConfig(model=Model.CH, n_values=N_RANGE, t_values=T_RANGE)
    )
    report.extras["elapsed"] = time.monotonic() - start
    return report


@pytest.fixture(scope="module")
def novikov_experiment():
    start = time.monotonic()
    report = run_nonuniform(
        ExperimentConfig(model=Model.NOVIKOV, n_values=N_RANGE, t_values=T_RANGE)
    )
    report.extras["elapsed"] = time.monotonic() - start
    return report


def test_criterion_1_spectral_correctness():
    start = time.monotonic()
    g = Grid(2**10, 16 * math.pi)
    rng = np.random.default_rng(0)
    worst_rt, worst_pars = 0.0, 0.0
    for _ in range(1000):
        f = random_field(g, rng)
        back = inverse_transform(forward_transform(f))
        worst_rt = max(worst_rt, np.abs(back.samples - f.samples).max() / f.max_abs())
        lhs = g.dx * float(np.sum(f.samples**2))
        # half-spectrum: each interior entry stands for k and -k
        weights = np.full(g.xi.size, 2.0)
        weights[[0, -1]] = 1.0
        power = weights * np.abs(forward_transform(f).coeffs) ** 2
        rhs = float(np.sum(power)) / (2 * g.half_length)
        worst_pars = max(worst_pars, abs(lhs - rhs) / lhs)

    gg = Grid(2**12, 32.0)
    gauss = Field(gg, np.exp(-(gg.x**2) / 2))
    F = forward_transform(gauss).coeffs
    gauss_err = float(
        np.abs(F - math.sqrt(2 * math.pi) * np.exp(-(gg.xi**2) / 2)).max()
    )

    helm = helmholtz_inverse(gauss).samples
    fine = np.linspace(-32.0, 32.0, gg.num_points * 64, endpoint=False)
    fy = np.exp(-(fine**2) / 2)
    dxf = fine[1] - fine[0]
    helm_err = 0.0
    for i in range(0, gg.num_points, 128):
        oracle = 0.5 * dxf * float(np.sum(np.exp(-np.abs(gg.x[i] - fine)) * fy))
        helm_err = max(helm_err, abs(helm[i] - oracle))
    elapsed = time.monotonic() - start

    ok = worst_rt <= 1e-12 and worst_pars <= 1e-10 and gauss_err <= 1e-10 and helm_err <= 1e-8
    announce(
        "1 spectral correctness",
        ok and elapsed < 10,
        f"roundtrip={worst_rt:.2e} parseval={worst_pars:.2e} "
        f"gauss={gauss_err:.2e} helmholtz={helm_err:.2e} elapsed={elapsed:.1f}s",
    )
    assert worst_rt <= 1e-12
    assert worst_pars <= 1e-10
    assert gauss_err <= 1e-10
    assert helm_err <= 1e-8
    assert elapsed < 10


def test_criterion_2_littlewood_paley_soundness(validation_report):
    checks = validation_report.checks
    names = ("partition_of_unity_1e6", "reconstruction_1000", "block_almost_orthogonality")
    ok = all(checks[n]["passed"] for n in names)
    elapsed = validation_report.extras["elapsed"]
    announce(
        "2 Littlewood-Paley soundness",
        ok and elapsed < 60,
        " ".join(f"{n}={checks[n]['value']:.2e}" for n in names) + f" elapsed={elapsed:.1f}s",
    )
    assert checks["partition_of_unity_1e6"]["value"] <= 1e-12
    assert checks["reconstruction_1000"]["value"] <= 1e-10
    assert checks["block_almost_orthogonality"]["value"] <= 1e-12
    assert elapsed < 60


def test_criterion_3_family_scalings(scaling_batch):
    names = [
        "variation_sup_packet_scaled",
        "variation_sup_packet_slope_scaled",
        "variation_bump_fast_b32_scaled",
        "variation_packet_besov_scaled_1.5",
        "variation_packet_besov_scaled_2.5",
        "variation_packet_besov_scaled_3.5",
    ]
    checks = scaling_batch.checks
    ok = all(checks[n]["passed"] for n in names)
    elapsed = scaling_batch.extras["elapsed"]
    announce(
        "3 family scalings",
        ok and elapsed < 60,
        " ".join(f"{n.removeprefix('variation_')}={checks[n]['value']:.4f}" for n in names),
    )
    for name in names:
        assert checks[name]["value"] < 1.5, name
    assert elapsed < 60


def test_criterion_4_frequency_localization(scaling_batch):
    worst = 0.0
    memberships = {}
    for n, rep in scaling_batch.per_n.items():
        worst = max(worst, rep["localization_residual_cubic"])
        memberships[n] = rep["ring_membership_cubic"]
    announce(
        "4 frequency localization",
        worst <= 1e-12,
        f"worst residual={worst:.2e} memberships={memberships}",
    )
    for n, rep in scaling_batch.per_n.items():
        assert rep["localization_residual_cubic"] <= 1e-12, f"n={n}"


def test_criterion_5_lower_bound_limits(scaling_batch):
    top = scaling_batch.per_n["8"]
    rel_quad = abs(top["quad_product_b32inf"] - top["quad_product_limit"]) / top[
        "quad_product_limit"
    ]
    rel_cub = abs(top["cubic_product_b32inf"] - top["cubic_product_limit"]) / top[
        "cubic_product_limit"
    ]
    announce(
        "5 lower-bound limits",
        rel_quad <= 0.05 and rel_cub <= 0.05,
        f"quad rel gap={rel_quad:.2e} cubic rel gap={rel_cub:.2e}",
    )
    assert rel_quad <= 0.05
    assert rel_cub <= 0.05


def test_criterion_6_solver_validity():
    start = time.monotonic()
    grid = Grid(2**15, 32 * math.pi)
    u0 = smooth_profile(grid)
    drifts = {}
    for model in Model:
        traj = evolve(u0, model, SolverConfig(sample_times=(0.5, 1.0)))
        drifts[model.value] = traj.h1_drift()

    order_grid = Grid(2**12, 32 * math.pi)
    u0c = smooth_profile(order_grid)

    def final(dt):
        cfg = SolverConfig(sample_times=(0.5,), cfl=1.0, dt_max=dt)
        return evolve(u0c, Model.CH, cfg).final().samples

    ref = final(0.02 / 16)
    errs = [np.abs(final(dt) - ref).max() for dt in (0.02, 0.01)]
    order = math.log2(errs[0] / errs[1])

    eq_worst = 0.0
    for model in Model:
        traj = evolve(
            Field.constant(order_grid, 0.6),
            model,
            SolverConfig(sample_times=(0.5,)),
            decay_tol=None,
        )
        eq_worst = max(eq_worst, float(np.abs(traj.final().samples - 0.6).max()))
    elapsed = time.monotonic() - start

    ok = (
        max(drifts.values()) < 1e-6
        and abs(order - 4.0) <= 0.2
        and eq_worst <= 1e-12
        and elapsed < 300
    )
    announce(
        "6 solver validity",
        ok,
        f"drifts={drifts} order={order:.3f} equilibria={eq_worst:.2e} elapsed={elapsed:.0f}s",
    )
    assert max(drifts.values()) < 1e-6
    assert order == pytest.approx(4.0, abs=0.2)
    assert eq_worst <= 1e-12
    assert elapsed < 300


def test_criterion_7_taylor_remainder():
    start = time.monotonic()
    slopes = {}
    for model in Model:
        cfg = ExperimentConfig(model=model, n_values=(6,), t_values=(0.1,))
        report = run_taylor_check(cfg, t_min=1e-3, t_max=1e-1, points=8, packet_n=6)
        for label, entry in report.per_n.items():
            slopes[f"{model.value}:{label}"] = entry["slope"]
    elapsed = time.monotonic() - start
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes.values()) and elapsed < 600
    announce(
        "7 Taylor remainder",
        ok,
        " ".join(f"{k}={v:.3f}" for k, v in slopes.items()) + f" elapsed={elapsed:.0f}s",
    )
    for key, slope in slopes.items():
        assert slope == pytest.approx(2.0, abs=0.1), key
    assert elapsed < 600


def _experiment_summary(report, label):
    decay_ok = report.checks["perturbation_decay_geometric"]["passed"]
    lower_ok = all(
        report.checks[f"lower_bound_t{t}"]["passed"] for t in T_RANGE
    )
    bands = {
        (n, t): report.checks[f"band_n{n}_t{t}"]["value"]
        for n in N_RANGE
        for t in T_RANGE
    }
    band_ok = all(BAND_LO <= v <= BAND_HI for v in bands.values())
    elapsed = report.extras["elapsed"]
    announce(
        label,
        decay_ok and lower_ok and band_ok and elapsed < 1800,
        f"decay_geometric={decay_ok} lower_bounds={lower_ok} "
        f"band_cells_ok={sum(BAND_LO <= v <= BAND_HI for v in bands.values())}/12 "
        f"elapsed={elapsed:.0f}s",
    )
    return decay_ok, lower_ok, bands, elapsed


def test_criterion_8_gap_persists_ch(ch_experiment):
    decay_ok, lower_ok, _, elapsed = _experiment_summary(
        ch_experiment, "8 non-uniform gap (quadratic model)"
    )
    assert ch_experiment.checks["perturbation_decay_geometric"]["value"] <= 1e-10
    for t in T_RANGE:
        assert ch_experiment.checks[f"lower_bound_t{t}"]["passed"], t
    assert elapsed < 1800


@pytest.mark.parametrize("n", N_RANGE)
@pytest.mark.parametrize("t", T_RANGE)
def test_criterion_8_band_cell_ch(ch_experiment, n, t):
    value = ch_experiment.checks[f"band_n{n}_t{t}"]["value"]
    announce(f"8 band cell n={n} t={t}", BAND_LO <= value <= BAND_HI, f"ratio={value:.3f}")
    assert BAND_LO <= value <= BAND_HI


def test_criterion_9_gap_persists_novikov(novikov_experiment):
    decay_ok, lower_ok, _, elapsed = _experiment_summary(
        novikov_experiment, "9 non-uniform gap (cubic model)"
    )
    assert novikov_experiment.checks["perturbation_decay_geometric"]["value"] <= 1e-10
    for t in T_RANGE:
        assert novikov_experiment.checks[f"lower_bound_t{t}"]["passed"], t
    assert elapsed < 1800


@pytest.mark.parametrize("n", N_RANGE)
@pytest.mark.parametrize("t", T_RANGE)
def test_criterion_9_band_cell_novikov(novikov_experiment, n, t):
    value = novikov_experiment.checks[f"band_n{n}_t{t}"]["value"]
    announce(f"9 band cell n={n} t={t}", BAND_LO <= value <= BAND_HI, f"ratio={value:.3f}")
    assert BAND_LO <= value <= BAND_HI


def test_criterion_10_determinism_and_fault_sensitivity(tmp_path):
    cfg = ExperimentConfig(
        model=Model.CH, n_values=(4, 5), t_values=(0.05,), grid_points=2**13
    )
    blobs = []
    for sub in ("first", "second"):
        report = run_nonuniform(cfg)
        out = tmp_path / sub
        emit_outputs(report, str(out))
        blobs.append((out / "report.json").read_bytes())
    identical = blobs[0] == blobs[1]

    faulted = run_validation_suite(seed=0, cutoff_scale=1.01)
    fault_detected = not faulted.passed and not faulted.checks[
        "partition_of_unity_1e6"
    ]["passed"]

    announce(
        "10 determinism and fault sensitivity",
        identical and fault_detected,
        f"bit_identical={identical} fault_detected={fault_detected}",
    )
    assert identical
    assert fault_detected
