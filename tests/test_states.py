import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from quasiprob.cli import parse_state
from quasiprob.numerics import Grid1D, PreconditionError, SampledFunction1D
from quasiprob.serial import write_sampled_csv
from quasiprob.states import (
    DEFAULT_GRID,
    FOCK_GRID,
    DirectionAB,
    fock_expansion,
    gaussian_state,
    hermite_functions,
    oscillator_eigenstate,
    sampled_state,
)

ANGLES = st.floats(0.0, np.pi, exclude_max=True)


def norm_of(psi):
    vals = psi(DEFAULT_GRID.points)
    return float(np.sum(np.abs(vals) ** 2) * DEFAULT_GRID.spacing)


def expect(psi, op_values):
    """<psi|O|psi> by the trapezoid rule, given (O psi) on DEFAULT_GRID."""
    vals = psi(DEFAULT_GRID.points)
    return float(np.trapezoid(np.conj(vals) * op_values, dx=DEFAULT_GRID.spacing).real)


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
    sampled = [s(DEFAULT_GRID.points) for s in states]
    G = np.array([[np.trapezoid(np.conj(a) * b, dx=DEFAULT_GRID.spacing) for b in sampled] for a in sampled])
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
    x, dx = DEFAULT_GRID.points, DEFAULT_GRID.spacing
    assert expect(psi, x * psi(x)) == pytest.approx(1.5, abs=1e-10)
    assert expect(psi, oracle.apply_P(psi(x), dx)) == pytest.approx(-0.75, abs=1e-10)


def test_eigenstate_moments():
    # <x^2> = n + 1/2 at unit hbar
    for n in (0, 1, 3):
        psi = oscillator_eigenstate(n)
        dens = np.abs(psi(DEFAULT_GRID.points)) ** 2
        x2 = float(np.sum(DEFAULT_GRID.points**2 * dens) * DEFAULT_GRID.spacing)
        assert x2 == pytest.approx(n + 0.5, abs=1e-9)
        # and spectrally: <p^2> via two derivative applications
        pp = oracle.apply_P(psi(DEFAULT_GRID.points), DEFAULT_GRID.spacing)
        p2 = float(np.sum(np.abs(pp) ** 2) * DEFAULT_GRID.spacing)
        assert p2 == pytest.approx(n + 0.5, abs=1e-9)


def test_sampled_state_interpolates():
    g = Grid1D(-12.0, 12.0, 384)
    base = gaussian_state(0.5, -1.0, 1.0)
    resampled = sampled_state(SampledFunction1D(g, base(g.points)))
    x = np.linspace(-3, 3, 50)
    assert np.max(np.abs(resampled(x) - base(x))) < 1e-8


def test_sampled_state_matches_whittaker_oracle(tmp_path):
    # the evaluator of a file: state against the np.sinc formula, at points
    # on, between and beyond the samples, in a 2-D shape
    g = Grid1D(-8.0, 8.0, 128)
    v = oscillator_eigenstate(3)(g.points)
    write_sampled_csv(tmp_path / "h3.csv", SampledFunction1D(g, v))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # edge 2.4e-11 of max
        psi = parse_state(f"file:{tmp_path / 'h3.csv'}", 1.0)
    vals = v / np.sqrt(np.trapezoid(np.abs(v) ** 2, dx=g.spacing))
    x = np.concatenate([g.points, np.linspace(-11.0, 11.0, 1024)]).reshape(3, -1)
    ref = oracle.whittaker(x, g.min, g.spacing, vals + 0j)
    assert np.max(np.abs(psi(x) - ref)) <= 1e-15


def test_sampled_state_memory_is_bounded():
    # 16384 points against 128 samples: the series is summed one sample at
    # a time, with no (point x sample) table of 16 MB
    g = Grid1D(-8.0, 8.0, 128)
    psi = sampled_state(SampledFunction1D(g, gaussian_state(0.0, 0.0, 1.0)(g.points)))
    x = np.linspace(-9.0, 9.0, 16384)
    tracemalloc.start()
    try:
        psi(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_hermite_rows_are_bitwise_the_table():
    u = np.linspace(-30.0, 30.0, 1001)
    assert np.array_equal(hermite_functions(300, u), oracle.hermite_table(300, u))
    assert np.array_equal(hermite_functions(0, 0.7), oracle.hermite_table(0, 0.7))
    assert np.array_equal(hermite_functions(1, u[:5]), oracle.hermite_table(1, u[:5]))
    for n, h in [(0, 1.0), (1, 2.0), (4, 1.0), (40, 0.5)]:
        s = np.sqrt(h)
        assert np.array_equal(oscillator_eigenstate(n, h)(u), oracle.hermite_table(n, u / s)[n] / np.sqrt(s) + 0j)


def test_eigenstate_memory_is_two_rows():
    # hermite:40 at 16384 points: the 41-row table took 5.6 MB
    x = np.linspace(-9.0, 9.0, 16384)
    psi = oscillator_eigenstate(40)
    tracemalloc.start()
    try:
        psi(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


FOCK_SAMPLES = Grid1D(-12.0, 12.0, 300)


@pytest.mark.parametrize(
    "psi, N",
    [
        (gaussian_state(0.0, 0.0, 1.0), 64),
        (oscillator_eigenstate(7, 0.5), 64),
        (gaussian_state(2.0, 3.0, 1.0), 128),
        (gaussian_state(3.0, 3.0, 3.0, 2.0), 256),
        (gaussian_state(10.0, -5.0, 0.7, 0.5), 512),
        (gaussian_state(22.0, 0.0, 1.0), 1024),
        (gaussian_state(0.0, 0.0, 0.2), 2048),
        (gaussian_state(0.0, 0.0, 0.14, 0.5), 2048),
        (sampled_state(SampledFunction1D(FOCK_SAMPLES, gaussian_state(0.5, -0.8, 1.2)(FOCK_SAMPLES.points)), 0.5), 256),
    ],
    ids=[
        "gaussian(0,0,1)",
        "hermite:7-hbar0.5",
        "gaussian(2,3,1)",
        "gaussian(3,3,3)-hbar2",
        "gaussian(10,-5,0.7)-hbar0.5",
        "gaussian(22,0,1)",
        "gaussian(0,0,0.2)",
        "gaussian(0,0,0.14)-hbar0.5",
        "file:gaussian-hbar0.5",
    ],
)
def test_fock_expansion_is_bitwise_the_full_table_product(psi, N):
    # c from 8-row blocks of the recurrence continued across doublings,
    # against one product of the whole N-row table
    c = fock_expansion(psi).c
    assert c.size == N
    assert np.array_equal(c, oracle.fock_full_table(psi, N, FOCK_GRID))


def test_fock_expansion_memory_is_bounded():
    # N = 2048: the whole table and its complex cast took 96 MB
    psi = gaussian_state(0.0, 0.0, 0.2)
    tracemalloc.start()
    try:
        fock_expansion(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_sampled_state_rejects_nonpositive_hbar():
    g = Grid1D(-12.0, 12.0, 384)
    sf = SampledFunction1D(g, gaussian_state(0.0, 0.0, 1.0)(g.points))
    with pytest.raises(PreconditionError, match="hbar must be positive"):
        sampled_state(sf, hbar=0.0)


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

