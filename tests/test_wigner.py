import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from quasiprob.numerics import Grid1D, Grid2D, PreconditionError, SampledFunction1D, square_grid
from quasiprob.states import DEFAULT_GRID, gaussian_state, oscillator_eigenstate, sampled_state
from quasiprob.wigner import (
    QuasiDistribution,
    characteristic_function,
    characteristic_grid,
    negative_volume,
    wigner_from_characteristic,
    wigner_transform,
)

COORDS = st.floats(-2.0, 2.0)

GAUSS_SAMPLES = Grid1D(-12.0, 12.0, 300)
HERMITE_SAMPLES = Grid1D(-12.0, 12.0, 160)

# closed-form and sampled states, each built at the hbar given
BLOCK_STATES = {
    "hermite:0": lambda h: oscillator_eigenstate(0, h),
    "hermite:2": lambda h: oscillator_eigenstate(2, h),
    "hermite:7": lambda h: oscillator_eigenstate(7, h),
    "gaussian(0.5,-0.8,1.2)": lambda h: gaussian_state(0.5, -0.8, 1.2, h),
    "gaussian(-1,1,1)": lambda h: gaussian_state(-1.0, 1.0, 1.0, h),
    "file:gaussian": lambda h: sampled_state(
        SampledFunction1D(GAUSS_SAMPLES, gaussian_state(0.5, -0.8, 1.2)(GAUSS_SAMPLES.points)), h
    ),
    "file:hermite:3": lambda h: sampled_state(
        SampledFunction1D(HERMITE_SAMPLES, oscillator_eigenstate(3, h)(HERMITE_SAMPLES.points)), h
    ),
}

# one block of rows, whole blocks, and blocks that do not divide the x-axis
BLOCK_GRIDS = {
    "128^2": square_grid(-10.0, 10.0, 128),  # 128 rows of 128: one block
    "256^2": square_grid(-12.0, 12.0, 256),  # 4 blocks of 64 rows
    "200x120": Grid2D(Grid1D(-12.0, 12.0, 200), Grid1D(-9.0, 9.0, 120)),  # 136 + 64 rows
    "150x301": Grid2D(Grid1D(-12.0, 12.0, 150), Grid1D(-12.0, 12.0, 301)),  # 54 + 54 + 42 rows
}


def traced_peak(fn):
    """fn's result and the tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_ground_state_closed_form(ground):
    grid = square_grid(-6.0, 6.0, 128)
    f = wigner_transform(ground, grid)
    X, P = np.meshgrid(grid.gx.points, grid.gp.points, indexing="ij")
    ref = np.exp(-(X**2) - P**2) / np.pi
    assert np.max(np.abs(f.values - ref)) < 1e-12
    assert f.integral() == pytest.approx(1.0, abs=1e-12)


def test_excited_state_closed_form(excited):
    grid = square_grid(-6.0, 6.0, 128)
    f = wigner_transform(excited, grid)
    X, P = np.meshgrid(grid.gx.points, grid.gp.points, indexing="ij")
    R2 = X**2 + P**2
    ref = (2 * R2 - 1) * np.exp(-R2) / np.pi
    assert np.max(np.abs(f.values - ref)) < 1e-12


def test_excited_is_negative_at_origin(excited):
    grid = square_grid(-6.0, 6.0, 256)
    f = wigner_transform(excited, grid)
    i = np.argmin(np.abs(grid.gx.points))
    j = np.argmin(np.abs(grid.gp.points))
    assert f.values[i, j] == pytest.approx(oracle.W1_AT_ORIGIN, abs=1e-12)


def test_coherent_state_is_displaced_gaussian(coherent23):
    grid = square_grid(-8.0, 8.0, 160)
    f = wigner_transform(coherent23, grid)
    X, P = np.meshgrid(grid.gx.points, grid.gp.points, indexing="ij")
    ref = np.exp(-((X - 2.0) ** 2) - (P - 3.0) ** 2) / np.pi
    assert np.max(np.abs(f.values - ref)) < 1e-11


@pytest.mark.parametrize("h", [0.5, 2.0])
def test_hbar_scaling(h):
    # the ground state's width follows hbar: W = e^{-(x^2+p^2)/hbar}/(pi hbar),
    # whose peak 1/(pi hbar) exceeds 1/pi below hbar = 1
    psi = oscillator_eigenstate(0, hbar=h)
    grid = square_grid(-8.0, 8.0, 160)
    f = wigner_transform(psi, grid)
    X, P = np.meshgrid(grid.gx.points, grid.gp.points, indexing="ij")
    ref = np.exp(-(X**2 + P**2) / h) / (np.pi * h)
    assert np.max(np.abs(f.values - ref)) < 1e-12
    assert f.integral() == pytest.approx(1.0, abs=1e-10)


def test_x_marginal_recovers_density(excited):
    # integrating over p recovers |psi(x)|^2
    grid = square_grid(-8.0, 8.0, 256)
    f = wigner_transform(excited, grid)
    dens = np.sum(f.values, axis=1) * grid.gp.spacing
    ref = np.abs(excited(grid.gx.points)) ** 2
    assert np.max(np.abs(dens - ref)) < 1e-12


@given(alpha=COORDS, beta=COORDS)
@settings(max_examples=30, deadline=None)
def test_characteristic_function_ground(ground, alpha, beta):
    v = characteristic_function(ground, alpha, beta)
    assert abs(complex(v) - oracle.coherent_cf(alpha, beta)) < 1e-12


def test_characteristic_function_off_center_phase():
    psi = gaussian_state(1.0, -1.0, 1.0)
    a = np.linspace(-2, 2, 9)
    A, B = np.meshgrid(a, a, indexing="ij")
    vals = characteristic_function(psi, A, B)
    ref = oracle.coherent_cf(A, B, 1.0, -1.0)
    assert np.max(np.abs(vals - ref)) < 1e-12


@pytest.mark.parametrize("h", [0.5, 2.0])
def test_characteristic_function_coherent_at_hbar(h):
    # coherent state (sigma = sqrt(hbar)) on a grid with a, b != 0, so the
    # commutator phase e^{i a b hbar/2} is in play
    x0, p0 = 1.0, -1.5
    psi = gaussian_state(x0, p0, np.sqrt(h), hbar=h)
    a = np.linspace(-1.75, 1.75, 8)
    A, B = np.meshgrid(a, a, indexing="ij")
    vals = characteristic_function(psi, A, B)
    ref = oracle.coherent_cf(A, B, x0, p0, hbar=h)
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_characteristic_grid_scales_by_2pi(ground):
    grid = square_grid(-4.0, 4.0, 32)
    cf = characteristic_grid(ground, grid)
    A, B = np.meshgrid(grid.gx.points, grid.gp.points, indexing="ij")
    ref = oracle.coherent_cf(A, B) / (2 * np.pi)
    assert np.max(np.abs(cf.values - ref)) < 1e-12


def test_wigner_from_characteristic_roundtrip(ground):
    # inverse-transforming the sampled characteristic function lands on
    # the dual phase-space grid and agrees with the direct construction;
    # the (alpha, beta) window is sized so the e^{-(a^2+b^2)/4} tail is
    # below machine precision at the edge
    agrid = square_grid(-12.0, 12.0, 128)
    cf = characteristic_grid(ground, agrid)
    f1 = wigner_from_characteristic(cf)
    f2 = wigner_transform(ground, f1.grid)
    assert np.max(np.abs(f1.values - f2.values)) < 1e-10


def test_negative_volume_excited(excited):
    grid = square_grid(-6.0, 6.0, 256)
    nv = negative_volume(wigner_transform(excited, grid))
    assert nv == pytest.approx(oracle.W1_NEGATIVE_VOLUME, abs=oracle.W1_NEGATIVE_VOLUME_GRID_TOL)


def test_negative_volume_ground_is_zero(ground):
    grid = square_grid(-6.0, 6.0, 128)
    nv = negative_volume(wigner_transform(ground, grid))
    assert nv < 1e-12


def test_negative_volume_discrete():
    assert negative_volume([0.6, -0.1, 0.3, 0.2]) == oracle.DISCRETE_NEGATIVE_VOLUME
    assert negative_volume([0.5, 0.5]) == 0.0


def test_quasi_distribution_rejects_bad_values():
    grid = square_grid(-1.0, 1.0, 4)
    with pytest.raises(PreconditionError):
        QuasiDistribution(grid, np.zeros((4, 3)))
    with pytest.raises(PreconditionError):
        QuasiDistribution(grid, np.full((4, 4), np.inf))


def test_small_grid_norm_check_raises(ground):
    # a phase-space window too small to hold the state fails the
    # normalization contract instead of returning silently wrong values
    with pytest.raises(PreconditionError):
        wigner_transform(ground, square_grid(-1.5, 1.5, 32))


@pytest.mark.filterwarnings("ignore:wigner_transform. correlation not decayed")
@pytest.mark.parametrize("grid", BLOCK_GRIDS.values(), ids=BLOCK_GRIDS.keys())
@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("state", BLOCK_STATES.values(), ids=BLOCK_STATES.keys())
def test_blocked_wigner_is_bitwise_the_all_rows_transform(state, h, grid):
    psi = state(h)
    assert np.array_equal(wigner_transform(psi, grid).values, oracle.wigner_all_rows(psi, grid))


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("state", BLOCK_STATES.values(), ids=BLOCK_STATES.keys())
def test_blocked_characteristic_function_is_bitwise_one_chunk(state, h):
    # 21 x 13 = 273 points: 8 passes of 32 shifts and one of 17
    psi = state(h)
    alpha, beta = np.linspace(-4.0, 4.0, 21)[:, None], np.linspace(-3.0, 3.0, 13)
    got = characteristic_function(psi, alpha, beta)
    assert np.array_equal(got, oracle.characteristic_one_chunk(psi, alpha, beta, DEFAULT_GRID))


@pytest.mark.parametrize("psi", [oscillator_eigenstate(2), gaussian_state(0.5, -0.8, 1.2)], ids=["hermite:2", "gaussian"])
def test_wigner_memory_is_about_the_result(psi):
    # the one-pass transform peaked at 6-9 times the result's 2 MB
    grid = square_grid(-8.0, 8.0, 512)
    q, peak = traced_peak(lambda: wigner_transform(psi, grid))
    assert peak <= 3 * q.values.nbytes
    assert q.values.dtype == float and q.values.flags.owndata


@pytest.mark.parametrize("state", ["hermite:2", "gaussian(0.5,-0.8,1.2)", "file:gaussian"])
def test_characteristic_function_memory_is_bounded(state):
    # charfn's default 64^2 grid: one pass of 2^22 nodes peaked at 81-160 MB
    psi = BLOCK_STATES[state](1.0)
    a = Grid1D(-4.0, 4.0, 64).points
    _, peak = traced_peak(lambda: characteristic_function(psi, a[:, None], a))
    assert peak <= 4 * 2**20
