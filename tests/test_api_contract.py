"""The package names perfbench calls (perfbench/tracing.py:layer_probes,
perfbench/setup_child.py, perfbench/workloads.py and
perfbench/record_reference.py); removing or re-signaturing one breaks the
traced benchmark run or the reference it is checked against."""

import inspect
import math

import besovlab

PERFBENCH_NAMES = (
    "Grid",
    "Field",
    "forward_transform",
    "inverse_transform",
    "derivative",
    "dealias_product",
    "dealias_triple",
    "ch_rhs",
    "novikov_rhs",
    "besov_norm",
    "build_cutoffs",
    "BesovIndex",
    "build_bump",
    "make_packets",
)


def test_perfbench_names_exported():
    missing = [name for name in PERFBENCH_NAMES if not hasattr(besovlab, name)]
    assert missing == []
    params = list(inspect.signature(besovlab.dealias_product).parameters.values())
    assert [p.name for p in params[:3]] == ["f", "g", "total_degree"]
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    # layer_probes builds its index with a positional p, which must stay 2
    index = besovlab.BesovIndex(1.5, 2, 1)
    assert (index.s, index.p, index.r) == (1.5, 2, 1)


def test_perfbench_runner_calls_bind():
    # the call shapes of perfbench/workloads.py, bound without running them
    from besovlab.harness import (
        ExperimentConfig,
        emit_outputs,
        run_nonuniform,
        run_taylor_check,
        run_validation_suite,
    )

    config = ExperimentConfig(
        model=besovlab.Model("ch"), n_values=(5, 6, 7), t_values=(0.0, 0.02, 0.05, 0.1)
    )
    inspect.signature(run_nonuniform).bind(config)
    inspect.signature(run_taylor_check).bind(
        ExperimentConfig(model=besovlab.Model("novikov")),
        t_min=1e-3, t_max=1e-1, points=8, packet_n=6,
    )
    inspect.signature(ExperimentConfig(n_values=(5, 6, 7)).make_grid).bind()
    inspect.signature(run_validation_suite).bind(0, cutoff_scale=1.0)
    inspect.signature(emit_outputs).bind(None, "out")


def test_record_reference_calls_run():
    # perfbench/record_reference.py:taylor_datum_norms adds a member's packet
    # and bump_fast Fields and takes the sum's B^{3/2}_{2,1} norm
    from besovlab.harness import smooth_profile

    grid = besovlab.Grid(2**12, 32 * math.pi)
    cutoffs = besovlab.build_cutoffs(grid)
    fam = besovlab.make_packets(besovlab.build_bump(grid), 4)
    for f in (fam.packet, fam.bump_fast, smooth_profile(grid)):
        assert isinstance(f, besovlab.Field) and f.grid is grid
    norm = besovlab.besov_norm(fam.packet + fam.bump_fast, besovlab.BesovIndex(1.5, 2, 1), cutoffs)
    assert norm > 0.0
