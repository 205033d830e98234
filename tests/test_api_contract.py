"""The package names perfbench calls (perfbench/tracing.py:layer_probes and
perfbench/setup_child.py); removing or re-signaturing one breaks the traced
benchmark run."""

import inspect

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
)


def test_perfbench_names_exported():
    missing = [name for name in PERFBENCH_NAMES if not hasattr(besovlab, name)]
    assert missing == []
    params = list(inspect.signature(besovlab.dealias_product).parameters.values())
    assert [p.name for p in params[:3]] == ["f", "g", "total_degree"]
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
