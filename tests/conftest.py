import math

import numpy as np
import pytest

from besovlab import Grid, build_bump, build_cutoffs

PI = math.pi


@pytest.fixture(scope="session")
def trig_grid():
    """Grid with integer frequencies (L = pi), for closed-form trig checks."""
    return Grid(256, PI)


@pytest.fixture(scope="session")
def box_grid():
    """Medium grid on the standard box, resolves family members n <= 5."""
    return Grid(2**13, 32 * PI)


@pytest.fixture(scope="session")
def box_cutoffs(box_grid):
    return build_cutoffs(box_grid)


@pytest.fixture(scope="session")
def box_bump(box_grid):
    return build_bump(box_grid)


@pytest.fixture(scope="session")
def coarse_grid():
    """Small grid for solver tests."""
    return Grid(2**12, 32 * PI)


def rng(seed=0):
    return np.random.default_rng(seed)
