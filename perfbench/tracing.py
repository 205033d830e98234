"""Spans around the package's layers, the per-layer metrics built from them,
and the fixed-size layer probes.

Spans are recorded from outside the program: every public function defined in
a layer module is replaced, at each besovlab module attribute that holds it
(the name the package calls it through), by a wrapper that records a span
named "<layer>.<function>".  numpy.fft's one-dimensional transforms get spans
named "fft.<function>".  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("spectral", "besov", "dynamics", "wavepackets", "corpus", "harness")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")

# Span fields.
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Records spans [name, start, end, parent index, info] while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, info_of=None):
        """fn, recording a span named name around each call; info_of(args,
        kwargs, result) fills the span's info field."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info_of is not None:
                rec[INFO] = info_of(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "besovlab" or name.startswith("besovlab."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"besovlab.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                info_of = _steps_taken if (layer, attr) == ("dynamics", "evolve") else None
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn, info_of))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for attr in FFT_FUNCTIONS:
            fn = getattr(np.fft, attr)
            self._patches.append((np.fft, attr, fn))
            setattr(np.fft, attr, self.wrap(f"fft.{attr}", fn, _fft_length))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)


def _steps_taken(args, kwargs, traj):
    return traj.steps_taken


def _fft_length(args, kwargs, result):
    """Transform length: the longer of input and output (rfft/irfft halve one)."""
    a = args[0] if args else kwargs["a"]
    return int(max(np.shape(a)[-1], np.shape(result)[-1]))


# --- per-layer metrics ------------------------------------------------------

TRANSFORMS = {"spectral.forward_transform", "spectral.inverse_transform"}
DEALIAS = {"spectral.dealias_product", "spectral.dealias_triple"}
FIELD_RHS = {
    "dynamics.rhs",
    "dynamics.ch_rhs",
    "dynamics.novikov_rhs",
    "dynamics.p_operator",
    "dynamics.q_operator",
    "dynamics.taylor_coefficient",
}
BUILD = {"wavepackets.build_bump", "wavepackets.make_packets"}
PRODUCTS = {
    "wavepackets.quadratic_cross_product",
    "wavepackets.cubic_cross_product",
    "wavepackets.product_limits",
}


def layer_metrics(spans: list, pass_wall_s: float) -> dict:
    """Per-layer counts and times of one traced pass.

    "<x>_s" is the wall time inside the named calls (a call nested in another
    of the same kind is not counted twice); "<layer>.self_s" is the time spent
    in the layer's own code, outside every child span; all self times sum to
    the root span, i.e. to the traced pass.
    """
    n = len(spans)
    child_time = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    def outermost(names):
        count, total = 0, 0.0
        for i, rec in enumerate(spans):
            if rec[NAME] in names and not any(a in names for a in ancestors(i)):
                count += 1
                total += rec[END] - rec[START]
        return count, total

    self_by_layer = dict.fromkeys(("fft", *LAYERS), 0.0)
    fft_calls = fft_points = fft_per_step_calls = 0
    fft_s = 0.0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        layer = rec[NAME].split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur - child_time[i]
        if layer == "fft":
            fft_calls += 1
            fft_points += rec[INFO]
            fft_s += dur
            # FFTs evolve makes itself: its RK4 stages, plus one transform of
            # the datum and one per recorded sample.  Its diagnostics are
            # spans of their own (h1_energy, lipschitz_norm), not counted.
            if next(ancestors(i), None) == "dynamics.evolve":
                fft_per_step_calls += 1

    evolve = [rec for rec in spans if rec[NAME] == "dynamics.evolve"]
    rk4_steps = sum(rec[INFO] for rec in evolve)
    evolve_calls, evolve_s = outermost({"dynamics.evolve"})
    transform_calls, transform_s = outermost(TRANSFORMS)
    dealias_calls, dealias_s = outermost(DEALIAS)
    rhs_calls, rhs_s = outermost(FIELD_RHS)
    norm_calls, norm_s = outermost({"besov.besov_norm"})
    block_calls, block_s = outermost({"besov.dyadic_block"})
    random_calls, random_s = outermost({"corpus.random_field"})
    self_sum = sum(self_by_layer.values())

    return {
        "spectral.fft_calls": (fft_calls, "count"),
        "spectral.fft_points": (fft_points, "count"),
        "spectral.fft_s": (fft_s, "s"),
        "spectral.fft_share": (fft_s / pass_wall_s, "ratio"),
        "spectral.transform_calls": (transform_calls, "count"),
        "spectral.transform_s": (transform_s, "s"),
        "spectral.dealias_calls": (dealias_calls, "count"),
        "spectral.dealias_s": (dealias_s, "s"),
        "spectral.self_s": (self_by_layer["spectral"], "s"),
        "dynamics.evolve_calls": (evolve_calls, "count"),
        "dynamics.evolve_s": (evolve_s, "s"),
        "dynamics.rk4_steps": (rk4_steps, "count"),
        "dynamics.step_ms": (1e3 * evolve_s / rk4_steps if rk4_steps else 0.0, "ms"),
        "dynamics.fft_per_step": (
            fft_per_step_calls / rk4_steps if rk4_steps else 0.0,
            "count",
        ),
        "dynamics.rhs_calls": (rhs_calls, "count"),
        "dynamics.rhs_s": (rhs_s, "s"),
        "dynamics.remainder_bound_s": (outermost({"dynamics.remainder_bound"})[1], "s"),
        "dynamics.self_s": (self_by_layer["dynamics"], "s"),
        "besov.norm_calls": (norm_calls, "count"),
        "besov.norm_s": (norm_s, "s"),
        "besov.block_calls": (block_calls, "count"),
        "besov.block_s": (block_s, "s"),
        "besov.cutoffs_s": (outermost({"besov.build_cutoffs"})[1], "s"),
        "besov.self_s": (self_by_layer["besov"], "s"),
        "wavepackets.build_s": (outermost(BUILD)[1], "s"),
        "wavepackets.scaling_s": (outermost({"wavepackets.scaling_report"})[1], "s"),
        "wavepackets.product_s": (outermost(PRODUCTS)[1], "s"),
        "wavepackets.self_s": (self_by_layer["wavepackets"], "s"),
        "corpus.random_field_calls": (random_calls, "count"),
        "corpus.random_field_s": (random_s, "s"),
        "corpus.self_s": (self_by_layer["corpus"], "s"),
        "harness.self_s": (self_by_layer["harness"], "s"),
        "harness.emit_s": (outermost({"harness.emit_outputs"})[1], "s"),
        "trace.spans": (n, "count"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.self_coverage": (self_sum / pass_wall_s, "ratio"),
    }


# --- layer probes -----------------------------------------------------------

PROBE_HALF_LENGTH = 32.0 * math.pi
TRANSFORM_SIZES = (2**15, 2**16, 2**17)
PROBE_SIZE = 2**15
PROBE_REPEATS = 7


def _best_ms(fn, repeats=PROBE_REPEATS) -> float:
    fn()  # warm caches (multipliers, FFT plans) before timing
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _probe_field(besovlab, num_points: int):
    """A smooth packet well inside the band on an N-point grid."""
    grid = besovlab.Grid(num_points, PROBE_HALF_LENGTH)
    x = grid.x
    return besovlab.Field(grid, 0.25 * np.exp(-(x**2) / 8.0) * (1.0 + 0.1 * np.sin(3.0 * x)))


def layer_probes() -> dict:
    """Best-of-k times of single layer calls at fixed sizes (untraced).

    Transform = forward_transform + inverse_transform.  The FFT work per call,
    5 N log2 N, is computed from N, not measured; the rate divides the two
    FFTs' computed work by the measured transform time.
    """
    import besovlab

    out = {}
    for num in TRANSFORM_SIZES:
        f = _probe_field(besovlab, num)
        ms = _best_ms(lambda: besovlab.inverse_transform(besovlab.forward_transform(f)))
        flop = 5.0 * num * math.log2(num)
        out[f"spectral.transform_ms.n{num}"] = (ms, "ms")
        out[f"spectral.fft_flop_computed.n{num}"] = (flop, "flop")
        out[f"spectral.transform_gflops_computed.n{num}"] = (2.0 * flop / (ms * 1e6), "Gflop/s")
    f = _probe_field(besovlab, PROBE_SIZE)
    g = besovlab.derivative(f, 1)
    cutoffs = besovlab.build_cutoffs(f.grid)
    index = besovlab.BesovIndex(1.5, 2, 1)
    n = PROBE_SIZE
    out[f"spectral.dealias2_ms.n{n}"] = (_best_ms(lambda: besovlab.dealias_product(f, g, 2)), "ms")
    out[f"spectral.dealias3_ms.n{n}"] = (_best_ms(lambda: besovlab.dealias_triple(f, f, g)), "ms")
    out[f"dynamics.ch_rhs_ms.n{n}"] = (_best_ms(lambda: besovlab.ch_rhs(f)), "ms")
    out[f"dynamics.novikov_rhs_ms.n{n}"] = (_best_ms(lambda: besovlab.novikov_rhs(f)), "ms")
    out[f"besov.norm_ms.n{n}"] = (_best_ms(lambda: besovlab.besov_norm(f, index, cutoffs)), "ms")
    return out
