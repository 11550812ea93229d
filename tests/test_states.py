import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiprob.numerics import Grid1D, PreconditionError, SampledFunction1D, quadrature
from quasiprob.states import (
    DEFAULT_GRID,
    DirectionAB,
    apply_P,
    apply_X,
    expectation,
    exp_x_multiply,
    gaussian_state,
    hermite_functions,
    inner_product,
    momentum_wavefunction,
    oscillator_eigenstate,
    sampled_state,
    shift,
)

ANGLES = st.floats(0.0, np.pi, exclude_max=True)


def norm_of(psi):
    vals = psi.sample().values
    return float(np.sum(np.abs(vals) ** 2) * DEFAULT_GRID.spacing)


def test_gaussian_normalized():
    for x0, p0, s in [(0, 0, 1), (2, 3, 1), (-1, 0.5, 0.6), (0, 0, 2.5)]:
        assert norm_of(gaussian_state(x0, p0, s)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_rejects_bad_width():
    with pytest.raises(PreconditionError):
        gaussian_state(0.0, 0.0, -1.0)
    with pytest.raises(PreconditionError):
        gaussian_state(0.0, 0.0, 1.0, hbar=0.0)


def test_eigenstates_orthonormal():
    states = [oscillator_eigenstate(n) for n in range(6)]
    sampled = [s.sample() for s in states]
    G = np.array([[complex(inner_product(a, b)) for b in sampled] for a in sampled])
    assert np.max(np.abs(G - np.eye(6))) < 1e-12


def test_hermite_matches_scipy():
    from math import factorial

    from scipy.special import eval_hermite

    u = np.linspace(-4.0, 4.0, 41)
    h = hermite_functions(5, u)
    for n in range(6):
        norm = np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
        ref = eval_hermite(n, u) * np.exp(-(u**2) / 2) / norm
        assert np.max(np.abs(h[n] - ref)) < 1e-10


def test_hermite_broadcasts_over_meshes():
    u = np.linspace(-2, 2, 12).reshape(3, 4)
    h = hermite_functions(3, u)
    assert h.shape == (4, 3, 4)


def test_coherent_expectations():
    psi = gaussian_state(1.5, -0.75, 1.0)
    assert expectation(psi, apply_X) == pytest.approx(1.5, abs=1e-10)
    assert expectation(psi, apply_P) == pytest.approx(-0.75, abs=1e-10)


def test_eigenstate_moments():
    # <x^2> = n + 1/2 at unit hbar
    for n in (0, 1, 3):
        psi = oscillator_eigenstate(n)
        dens = np.abs(psi(DEFAULT_GRID.points)) ** 2
        x2 = float(np.sum(DEFAULT_GRID.points**2 * dens) * DEFAULT_GRID.spacing)
        assert x2 == pytest.approx(n + 0.5, abs=1e-9)
        # and spectrally: <p^2> via two derivative applications
        pp = apply_P(psi)
        p2 = float(np.sum(np.abs(pp.values) ** 2) * DEFAULT_GRID.spacing)
        assert p2 == pytest.approx(n + 0.5, abs=1e-9)


def test_shift_moves_center():
    # psi(x) -> psi(x + a) moves the density center from 0 to -a
    psi = gaussian_state(0.0, 0.0, 1.0)
    moved = shift(psi, 2.0)
    assert expectation(moved, apply_X) == pytest.approx(-2.0, abs=1e-10)
    assert norm_of(moved) == pytest.approx(1.0, abs=1e-12)


def test_exp_x_multiply_is_real_tilt():
    psi = gaussian_state(0.0, 0.0, 1.0)
    out = exp_x_multiply(psi, -0.5)
    expected = psi(DEFAULT_GRID.points) * np.exp(-0.5 * DEFAULT_GRID.points)
    assert np.max(np.abs(out.values - expected)) < 1e-14
    # a tilt strong enough to push mass onto the grid edge is rejected
    with pytest.raises(PreconditionError):
        exp_x_multiply(psi, 40.0)


def test_momentum_wavefunction_of_coherent():
    # position Gaussian at (x0, p0) has momentum density centered at p0
    psi = gaussian_state(1.0, 2.0, 1.0)
    phi = momentum_wavefunction(psi)
    dens = np.abs(phi.values) ** 2
    pk = phi.grid.points[np.argmax(dens)]
    assert pk == pytest.approx(2.0, abs=phi.grid.spacing)
    assert float(np.sum(dens) * phi.grid.spacing) == pytest.approx(1.0, abs=1e-12)


def test_sampled_state_interpolates():
    g = Grid1D(-12.0, 12.0, 384)
    base = gaussian_state(0.5, -1.0, 1.0)
    resampled = sampled_state(SampledFunction1D(g, base(g.points)))
    x = np.linspace(-3, 3, 50)
    assert np.max(np.abs(resampled(x) - base(x))) < 1e-8


def test_direction_canonicalization():
    d = DirectionAB(-1.0, -1.0)
    a, b = d.canonical()
    assert (a, b) == pytest.approx((np.sqrt(0.5), np.sqrt(0.5)))
    assert d.norm == pytest.approx(np.sqrt(2.0))
    with pytest.raises(PreconditionError):
        DirectionAB(0.0, 0.0)


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (np.inf, 0.0), (1.0, -np.inf)])
def test_direction_rejects_non_finite_norm(a, b):
    with pytest.raises(PreconditionError):
        DirectionAB(a, b)


@given(theta=ANGLES)
@settings(max_examples=50, deadline=None)
def test_direction_theta_roundtrip(theta):
    d = DirectionAB(np.cos(theta), np.sin(theta))
    assert d.theta == pytest.approx(theta, abs=1e-12)


@given(theta=ANGLES, scale=st.floats(0.1, 5.0))
@settings(max_examples=50, deadline=None)
def test_direction_canonical_ignores_scale_and_sign(theta, scale):
    d1 = DirectionAB(np.cos(theta), np.sin(theta))
    d2 = DirectionAB(-scale * np.cos(theta), -scale * np.sin(theta))
    assert d1.canonical() == pytest.approx(d2.canonical(), abs=1e-12)


def test_quadrature_norm_helper():
    psi = oscillator_eigenstate(2)
    f = psi.sample()
    total = quadrature(SampledFunction1D(f.grid, np.abs(f.values) ** 2))
    assert complex(total).real == pytest.approx(1.0, abs=1e-12)
