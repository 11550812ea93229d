import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from quasiprob.numerics import Grid1D, PreconditionError, square_grid
from quasiprob.states import DirectionAB, fock_expansion, gaussian_state, oscillator_eigenstate
from quasiprob.tomography import (
    direction_residuals,
    fan,
    fhat_on_ray,
    marginal_of_quasi,
    quantum_marginal,
    reconstruct_from_marginals,
    rectangle_modification,
    smooth_modification,
    verify_j2m,
)
from quasiprob.wigner import wigner_transform

ZGRID = Grid1D(-8.0, 8.0, 128)
ANGLES = st.floats(0.0, np.pi, exclude_max=True)


def test_position_marginal_is_density(excited):
    (m,) = quantum_marginal(fock_expansion(excited), [DirectionAB(1.0, 0.0)], ZGRID)
    ref = oracle.excited_marginal(ZGRID.points)
    assert np.max(np.abs(m.values - ref)) < 1e-12
    assert m.integral() == pytest.approx(1.0, abs=1e-10)


def test_momentum_marginal_is_density(excited):
    (m,) = quantum_marginal(fock_expansion(excited), [DirectionAB(0.0, 1.0)], ZGRID)
    ref = oracle.excited_marginal(ZGRID.points)
    assert np.max(np.abs(m.values - ref)) < 1e-12


@given(theta=ANGLES)
@settings(max_examples=20, deadline=None)
def test_ground_marginal_rotation_invariant(ground, theta):
    d = DirectionAB(float(np.cos(theta)), float(np.sin(theta)))
    (m,) = quantum_marginal(fock_expansion(ground), [d], ZGRID)
    assert np.max(np.abs(m.values - oracle.ground_marginal(ZGRID.points))) < 1e-10


def test_scaled_direction_rescales_variable(ground):
    # z = 2x spreads the density and halves its height; the window is
    # widened to keep the stretched tails below machine precision
    zg = Grid1D(-12.0, 12.0, 192)
    (m,) = quantum_marginal(fock_expansion(ground), [DirectionAB(2.0, 0.0)], zg)
    assert np.max(np.abs(m.values - oracle.ground_marginal_d20(zg.points))) < 1e-10


def gaussian_marginal(x0, p0, sigma, hbar, a, b, z):
    """Density of a X + b P for gaussian_state(x0, p0, sigma, hbar): a normal
    law of mean a x0 + b p0 and variance a^2 sigma^2/2 + b^2 hbar^2/(2 sigma^2)."""
    mean = a * x0 + b * p0
    var = a**2 * sigma**2 / 2 + b**2 * hbar**2 / (2 * sigma**2)
    return np.exp(-((z - mean) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


WIDE_ZGRID = Grid1D(-12.0, 12.0, 192)


@pytest.mark.parametrize("hbar", [0.5, 2.0])
@pytest.mark.parametrize("ab", [(0.6, 0.8), (-0.3, 0.5), (1.2, -0.9)])
def test_quantum_marginal_gaussian_at_hbar(hbar, ab):
    psi = gaussian_state(0.5, -0.3, 1.0, hbar)
    (m,) = quantum_marginal(fock_expansion(psi), [DirectionAB(*ab)], WIDE_ZGRID)
    ref = gaussian_marginal(0.5, -0.3, 1.0, hbar, *ab, WIDE_ZGRID.points)
    assert np.max(np.abs(m.values - ref)) <= 1e-13


# each width along (-0.3, 0.5) and along a direction in which its marginal
# is narrow, so the z-window holds the whole law
@pytest.mark.parametrize(
    "sigma, ab",
    [(s, (-0.3, 0.5)) for s in (0.2, 0.3, 2.5, 3.0, 4.0)]
    + [(s, (0.96, -0.28)) for s in (0.2, 0.3)]
    + [(s, (0.28, 0.96)) for s in (2.5, 3.0, 4.0)],
)
def test_quantum_marginal_gaussian_far_from_unit_width(sigma, ab):
    psi = gaussian_state(0.5, -0.3, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        (m,) = quantum_marginal(fock_expansion(psi), [DirectionAB(*ab)], WIDE_ZGRID)
    ref = gaussian_marginal(0.5, -0.3, sigma, 1.0, *ab, WIDE_ZGRID.points)
    assert np.max(np.abs(m.values - ref)) <= 1e-13


def test_quantum_marginal_far_displaced_state():
    # |alpha|^2 = 242: the coefficients below n = 64 carry almost none of the
    # norm, so their top quarter is negligible long before the basis holds the state
    zg = Grid1D(0.0, 48.0, 384)
    (m,) = quantum_marginal(fock_expansion(gaussian_state(22.0, 0.0, 1.0)), [DirectionAB(0.96, 0.28)], zg)
    ref = gaussian_marginal(22.0, 0.0, 1.0, 1.0, 0.96, 0.28, zg.points)
    assert np.max(np.abs(m.values - ref)) <= 1e-13


def test_quantum_marginal_eigenstate_at_half_hbar():
    # an eigenstate is rotation invariant up to phase: along (a, b) of norm r
    # its marginal is |h_7(z/(r sqrt(hbar)))|^2/(r sqrt(hbar))
    d = DirectionAB(-0.3, 0.5)
    (m,) = quantum_marginal(fock_expansion(oscillator_eigenstate(7, 0.5)), [d], WIDE_ZGRID)
    scale = d.norm * np.sqrt(0.5)
    u = WIDE_ZGRID.points / scale
    h7 = np.polynomial.hermite.hermval(u, [0] * 7 + [1]) * np.exp(-(u**2) / 2) / np.sqrt(2**7 * 5040 * np.sqrt(np.pi))
    ref = h7**2 / scale
    assert np.max(np.abs(m.values - ref)) <= 1e-13


@pytest.mark.parametrize("hbar", [0.5, 1.0])
def test_quantum_marginal_batch_is_bitwise_the_single_calls(hbar):
    # one h_n table per norm serves every direction
    fock = fock_expansion(gaussian_state(0.5, -0.3, 1.0, hbar))
    dirs = fan(8) + [DirectionAB(0.6, 0.8), DirectionAB(2.0, 0.0), DirectionAB(-0.3, 0.5)]
    batch = quantum_marginal(fock, dirs, WIDE_ZGRID)
    assert [m.direction for m in batch] == dirs
    for d, m in zip(dirs, batch):
        (single,) = quantum_marginal(fock, [d], WIDE_ZGRID)
        np.testing.assert_array_equal(m.values.view(np.uint64), single.values.view(np.uint64))


def test_quantum_marginal_fails_closed_past_the_fock_cap():
    # a width-0.1 squeeze needs coefficients beyond n = 2048
    with pytest.raises(PreconditionError, match="not decayed"):
        quantum_marginal(fock_expansion(gaussian_state(0.0, 0.0, 0.1)), [DirectionAB(0.6, 0.8)], WIDE_ZGRID)


def test_marginal_of_quasi_matches_quantum(excited, mid_grid):
    f = wigner_transform(excited, mid_grid)
    for ab in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (np.sqrt(0.5), np.sqrt(0.5))]:
        d = DirectionAB(*ab)
        mq = marginal_of_quasi(f, d, ZGRID)
        (mm,) = quantum_marginal(fock_expansion(excited), [d], ZGRID)
        assert np.max(np.abs(mq.values - mm.values)) < 1e-10


def test_marginal_of_quasi_mirror_branch(coherent23):
    # |a| > |b| exercises the x-integration branch with the roles swapped
    grid = square_grid(-10.0, 10.0, 160)
    f = wigner_transform(coherent23, grid)
    zg = Grid1D(-10.0, 10.0, 160)
    d = DirectionAB(0.96, 0.28)
    mq = marginal_of_quasi(f, d, zg)
    (mm,) = quantum_marginal(fock_expansion(coherent23), [d], zg)
    assert np.max(np.abs(mq.values - mm.values)) < 1e-8


def test_marginal_of_quasi_on_the_x_axis_is_the_p_quadrature(excited, mid_grid):
    # along (1, 0) on f's own x-axis every lookup is a sample of f, so the
    # marginal is the trapezoid over p, bit for bit
    f = wigner_transform(excited, mid_grid)
    gx, gp = mid_grid.gx, mid_grid.gp
    m = marginal_of_quasi(f, DirectionAB(1.0, 0.0), Grid1D(gx.min, gx.max, gx.n))
    ref = np.trapezoid(f.values, dx=gp.spacing, axis=1)
    assert m.values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("ab", [(0.6, 0.8), (0.96, -0.28)], ids=["p-lookup", "x-lookup"])
def test_marginal_of_quasi_matches_sinc_oracle(bump_distribution, ab):
    f = bump_distribution
    gx, gp = f.grid.gx, f.grid.gp
    zg = Grid1D(-10.0, 10.0, 96)
    m = marginal_of_quasi(f, DirectionAB(*ab), zg)
    a, b = ab
    if abs(b) >= abs(a):
        ref = oracle.line_marginal(f.values, gx.points, gx.spacing, gp.points, gp.spacing, a, b, zg.points)
    else:
        ref = oracle.line_marginal(f.values.T, gp.points, gp.spacing, gx.points, gx.spacing, b, a, zg.points)
    assert np.max(np.abs(m.values - ref)) <= 1e-15


@pytest.mark.parametrize("nz", [128, 512])
def test_marginal_of_quasi_memory_is_bounded(nz):
    # the Whittaker sum runs one sample at a time over blocks of points, so
    # no (point x sample) table is formed: 128 x 128 x nz would be 16 MB and up
    f = wigner_transform(gaussian_state(0.4, -0.7, 1.1), square_grid(-8.0, 8.0, 128))
    zg, d = Grid1D(-12.0, 12.0, nz), DirectionAB(0.6, 0.8)
    tracemalloc.start()
    try:
        marginal_of_quasi(f, d, zg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_j2m_residuals_small_for_wigner(ground, excited, mid_grid):
    f0 = wigner_transform(ground, mid_grid)
    f1 = wigner_transform(excited, mid_grid)
    for f in (f0, f1):
        for ab in [(1.0, 0.0), (0.6, 0.8), (np.sqrt(0.5), np.sqrt(0.5))]:
            assert verify_j2m(f, DirectionAB(*ab)) < 1e-8


def test_j2m_holds_for_arbitrary_distributions(bump_distribution):
    # the slice identity is a property of any integrable f, not only
    # quantum ones
    for ab in [(0.6, 0.8), (-0.38, 0.92), (0.92, -0.38), (2.0, 0.0)]:
        assert verify_j2m(bump_distribution, DirectionAB(*ab)) < 1e-6


def test_fhat_on_ray_center_value(bump_distribution):
    # fhat(0,0) = integral f / (2 pi) = 1/(2 pi) for a normalized payload
    v = fhat_on_ray(bump_distribution, DirectionAB(0.6, 0.8), np.array([0.0]))
    assert complex(v[0]).real == pytest.approx(1.0 / (2 * np.pi), abs=1e-9)


def test_reconstruction_from_marginals(ground, mid_grid):
    zg = Grid1D(-32.0, 32.0, 512)
    dirs = [DirectionAB(float(np.cos(t)), float(np.sin(t))) for t in np.arange(32) * np.pi / 32]
    margs = quantum_marginal(fock_expansion(ground), dirs, zg)
    rec = reconstruct_from_marginals(margs, mid_grid)
    ref = wigner_transform(ground, mid_grid)
    l2 = np.sqrt(np.sum((rec.values - ref.values) ** 2) * mid_grid.gx.spacing * mid_grid.gp.spacing)
    assert l2 < 1e-3


def test_reconstruction_off_center_state(mid_grid):
    # a displaced state has an fhat with odd phase, so this catches any
    # sign slip between the folded angle and the raw direction vector
    # (centered states have even, real fhat and cannot see one)
    s = gaussian_state(2.0, 3.0, 1.0)
    zg = Grid1D(-32.0, 32.0, 512)
    dirs = [DirectionAB(float(np.cos(t)), float(np.sin(t))) for t in np.arange(64) * np.pi / 64]
    margs = quantum_marginal(fock_expansion(s), dirs, zg)
    rec = reconstruct_from_marginals(margs, mid_grid)
    ref = wigner_transform(s, mid_grid)
    rel = np.sqrt(np.sum((rec.values - ref.values) ** 2) / np.sum(ref.values**2))
    assert rel < 2e-2
    ij = np.unravel_index(np.argmax(rec.values), rec.values.shape)
    assert rec.values[ij] == pytest.approx(1.0 / np.pi, rel=0.02)


@pytest.fixture(scope="module")
def ground_fan8(ground):
    zg = Grid1D(-32.0, 32.0, 512)
    return quantum_marginal(fock_expansion(ground), fan(8), zg)


def test_fan_is_equally_spaced_unit_directions():
    ds = fan(16)
    assert [d.theta for d in ds] == pytest.approx([k * np.pi / 16 for k in range(16)], abs=1e-15)
    assert [d.norm for d in ds] == pytest.approx([1.0] * 16, abs=1e-15)


def test_reconstruction_eight_directions_do_not_warn(ground_fan8, mid_grid):
    # the gap of pi/8 is the coverage limit, not past it
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        reconstruct_from_marginals(ground_fan8, mid_grid)


def test_reconstruction_four_directions_warn(ground_fan8, mid_grid):
    # every other direction of fan(8) is fan(4)
    with pytest.warns(UserWarning, match="coverage gap"):
        reconstruct_from_marginals(ground_fan8[::2], mid_grid)


@pytest.mark.parametrize("defect", ["shuffled", "scaled", "repeated"])
def test_reconstruction_rejects_a_set_that_is_not_the_fan(ground_fan8, mid_grid, defect):
    margs = list(ground_fan8)
    if defect == "shuffled":
        margs[2], margs[5] = margs[5], margs[2]
    elif defect == "scaled":
        d = margs[3].direction
        margs[3] = dataclasses.replace(margs[3], direction=DirectionAB(2 * d.a, 2 * d.b))
    else:
        margs[4] = margs[3]
    with pytest.raises(PreconditionError, match="marginal [2-4] "):
        reconstruct_from_marginals(margs, mid_grid)


def test_reconstruction_needs_two_directions(ground, mid_grid):
    zg = Grid1D(-32.0, 32.0, 512)
    (m,) = quantum_marginal(fock_expansion(ground), [DirectionAB(1.0, 0.0)], zg)
    with pytest.raises(PreconditionError):
        reconstruct_from_marginals([m], mid_grid)


def test_rectangle_modification_axis_marginals_unchanged(ground, mid_grid):
    f = wigner_transform(ground, mid_grid)
    mod = rectangle_modification(f, 1.5, 1.5, 0.05)
    for ab in [(1.0, 0.0), (0.0, 1.0)]:
        d = DirectionAB(*ab)
        m0 = marginal_of_quasi(f, d, ZGRID)
        m1 = marginal_of_quasi(mod, d, ZGRID)
        assert np.max(np.abs(m0.values - m1.values)) < 1e-12


def test_rectangle_modification_diagonal_peak(ground, mid_grid):
    f = wigner_transform(ground, mid_grid)
    mod = rectangle_modification(f, 1.5, 1.5, 0.05)
    r = np.sqrt(0.5)
    d = DirectionAB(r, r)
    (m0,) = quantum_marginal(fock_expansion(ground), [d], ZGRID)
    m1 = marginal_of_quasi(mod, d, ZGRID)
    peak = np.max(np.abs(m1.values - m0.values))
    assert peak == pytest.approx(oracle.RECT_DIAGONAL_PEAK, rel=1e-3)


def test_smooth_modification_axis_marginals_unchanged(ground, mid_grid):
    f = wigner_transform(ground, mid_grid)
    mod = smooth_modification(f, 1.0, 1.0, 0.1)
    for ab in [(1.0, 0.0), (0.0, 1.0)]:
        d = DirectionAB(*ab)
        m1 = marginal_of_quasi(mod, d, ZGRID)
        m0 = marginal_of_quasi(f, d, ZGRID)
        assert np.max(np.abs(m0.values - m1.values)) < 1e-12


def test_smooth_modification_diagonal_peak(ground, mid_grid):
    f = wigner_transform(ground, mid_grid)
    mod = smooth_modification(f, 1.0, 1.0, 0.1)
    r = np.sqrt(0.5)
    (m0,) = quantum_marginal(fock_expansion(ground), [DirectionAB(r, r)], ZGRID)
    m1 = marginal_of_quasi(mod, DirectionAB(r, r), ZGRID)
    peak = np.max(np.abs(m1.values - m0.values))
    assert peak == pytest.approx(oracle.SMOOTH_DIAGONAL_PEAK, rel=1e-3)


def test_direction_residuals_flag_tamper(ground, mid_grid):
    f = wigner_transform(ground, mid_grid)
    mod = rectangle_modification(f, 1.5, 1.5, 0.05)
    probes = [k * np.pi / 8 for k in range(1, 8) if k != 4]
    assert direction_residuals(mod, fock_expansion(ground), probes).max() > 1e-3


def test_untampered_state_has_no_violated_direction(ground, mid_grid):
    f = wigner_transform(ground, mid_grid)
    thetas = [k * np.pi / 8 for k in range(8)]
    res = direction_residuals(f, fock_expansion(ground), thetas)
    assert max(res) < 1e-9
