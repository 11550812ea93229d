"""Each closed form the benchmark checks against is held to a property it
must have, by plain quadrature of the other closed forms."""

import math

import numpy as np
import pytest

import closedforms as cf

STATES = [
    ("hermite", 0),
    ("hermite", 1),
    ("hermite", 4),
    ("gaussian", 0.7, -1.1, 1.0),
    ("gaussian", -0.4, 0.9, 0.8),
]

# a lattice fine and wide enough that the trapezoid rule is spectrally exact
L, N = 10.0, 321
AX = np.linspace(-L, L, N)
DX = AX[1] - AX[0]
X, P = np.meshgrid(AX, AX, indexing="ij")


def integrate2(values):
    return complex(np.trapezoid(np.trapezoid(values, dx=DX, axis=1), dx=DX))


@pytest.mark.parametrize("state", STATES)
def test_wave_function_normalized(state):
    assert abs(np.trapezoid(np.abs(cf.psi(state, AX)) ** 2, dx=DX) - 1) < 1e-12


@pytest.mark.parametrize("state", STATES)
def test_wigner_unit_integral_and_bound(state):
    w = cf.wigner(state, X, P)
    assert abs(integrate2(w) - 1) < 1e-12
    assert np.abs(w).max() <= 1 / math.pi + 1e-15


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("theta", [0.0, 0.6, math.pi / 2, 2.3])
def test_marginal_is_line_integral_of_wigner(state, theta):
    # rotate (z, s) into (x, p) and integrate W over s
    c, s = math.cos(theta), math.sin(theta)
    z = np.linspace(-6, 6, 25)
    Z, S = np.meshgrid(z, AX, indexing="ij")
    line = np.trapezoid(cf.wigner(state, c * Z - s * S, s * Z + c * S), dx=DX, axis=1)
    g = cf.marginal(state, theta, z)
    assert np.abs(line - g).max() < 1e-12
    assert abs(np.trapezoid(cf.marginal(state, theta, AX), dx=DX) - 1) < 1e-12


@pytest.mark.parametrize("state", STATES)
def test_position_marginal_is_density(state):
    assert np.abs(cf.marginal(state, 0.0, AX) - np.abs(cf.psi(state, AX)) ** 2).max() < 1e-14


@pytest.mark.parametrize("state", STATES)
def test_characteristic_is_transform_of_wigner(state):
    w = cf.wigner(state, X, P)
    for a, b in [(0.0, 0.0), (0.8, -0.3), (-1.5, 2.0)]:
        quad = integrate2(w * np.exp(-1j * (a * X + b * P)))
        assert abs(quad - cf.characteristic(state, a, b)) < 1e-12


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", cf.SYMBOLS)
def test_expectation_is_phase_space_average(state, name):
    w = cf.wigner(state, X, P)
    assert abs(integrate2(cf.symbol_value(name, X, P) * w) - cf.expectation(name, state)) < 1e-10


def test_tomography_bound_ignores_angle_for_rotation_invariant_states():
    dz = 2 * math.pi / 64
    assert cf.tomography_bounds(("hermite", 2), 4, dz) == pytest.approx(cf.tomography_bounds(("hermite", 2), 16, dz))
    lo = cf.tomography_bounds(("gaussian", 1.0, 0.5, 1.0), 16, dz)
    hi = cf.tomography_bounds(("gaussian", 1.0, 0.5, 1.0), 4, dz)
    assert hi[0] > lo[0] > 0 and hi[1] > lo[1] > 0
