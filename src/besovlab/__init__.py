"""Pseudospectral laboratory for two nonlocal transport equations with a
Littlewood-Paley/Besov norm toolkit and non-uniform-dependence experiments."""

__version__ = "0.1.0"

from .besov import (
    BesovIndex,
    CutoffPair,
    besov_norm,
    block_lp_profile,
    build_cutoffs,
    dyadic_block,
    grid_j_max,
    lipschitz_norm,
)
from .dynamics import (
    Model,
    SolverConfig,
    Trajectory,
    ch_rhs,
    evolve,
    novikov_rhs,
    rhs,
)
from .errors import (
    BesovLabError,
    BlowUp,
    DecayViolation,
    InvalidField,
    NonRealSpectrum,
    ResolutionExceeded,
)
from .spectral import (
    Field,
    Grid,
    SpectralField,
    dealias_product,
    dealias_triple,
    derivative,
    forward_transform,
    helmholtz_inverse,
    inverse_transform,
    smooth_step,
)
from .wavepackets import (
    BumpProfile,
    PacketFamily,
    build_bump,
    carrier_frequency,
    make_packets,
    product_limits,
    scaling_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
