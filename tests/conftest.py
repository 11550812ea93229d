import numpy as np
import pytest

from quasiprob.numerics import square_grid
from quasiprob.states import gaussian_state, oscillator_eigenstate
from quasiprob.wigner import QuasiDistribution


@pytest.fixture(scope="session")
def ground():
    return oscillator_eigenstate(0, 1.0)


@pytest.fixture(scope="session")
def excited():
    return oscillator_eigenstate(1, 1.0)


@pytest.fixture(scope="session")
def coherent23():
    return gaussian_state(2.0, 3.0, 1.0)


@pytest.fixture(scope="session")
def mid_grid():
    return square_grid(-8.0, 8.0, 128)


@pytest.fixture(scope="session")
def bump_distribution(mid_grid):
    # normalized non-Wigner payload: a single off-center Gaussian bump
    sx, sp, x0, p0 = 1.2, 0.7, 1.0, -0.5
    X, P = np.meshgrid(mid_grid.gx.points, mid_grid.gp.points, indexing="ij")
    vals = np.exp(-((X - x0) ** 2) / (2 * sx**2) - ((P - p0) ** 2) / (2 * sp**2))
    vals /= 2 * np.pi * sx * sp
    return QuasiDistribution(mid_grid, vals)
