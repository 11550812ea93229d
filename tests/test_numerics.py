import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from quasiprob.numerics import (
    Grid1D,
    Grid2D,
    PreconditionError,
    SampledFunction1D,
    ft_core,
    quadrature_2d,
    sinc_sum,
    square_grid,
    warn_boundary,
)

# kept well inside [-16, 16] so edge decay stays under the 1e-12 contract
CENTERS = st.floats(-3.0, 3.0)
WIDTHS = st.floats(0.5, 1.5)


def gauss_on(grid, x0, s):
    x = grid.points
    return SampledFunction1D(grid, np.exp(-((x - x0) ** 2) / (2 * s**2)))


def forward(f):
    """fhat of a sampled function on the dual of its grid."""
    return ft_core(f.values, f.grid, f.grid.dual(), -1)


def roundtrip(f):
    """ft_core forward onto the dual grid and back onto f's grid."""
    return ft_core(forward(f), f.grid.dual(), f.grid, +1)


def test_grid_points_spacing():
    g = Grid1D(-4.0, 4.0, 16)
    assert g.spacing == pytest.approx(0.5)
    assert g.points[0] == -4.0
    assert len(g.points) == 16
    # half-open convention: right endpoint excluded
    assert g.points[-1] == pytest.approx(3.5)


def test_grid_rejects_bad_bounds():
    with pytest.raises(PreconditionError):
        Grid1D(2.0, -2.0, 8)
    with pytest.raises(PreconditionError):
        Grid1D(-2.0, 2.0, 0)


def test_dual_grid_geometry():
    # dual spacing covers 2 pi per cell; the dual is always zero-centered
    # (a source offset is carried by the transform's phase, not the grid)
    g = Grid1D(-7.3, 5.1, 128)
    gd = g.dual()
    assert gd.n == g.n
    assert gd.spacing * g.spacing * g.n == pytest.approx(2 * np.pi)
    assert gd.min == pytest.approx(-(g.n // 2) * gd.spacing)
    # for a zero-centered grid the double dual is the original grid
    gc = Grid1D(-8.0, 8.0, 64)
    gcc = gc.dual().dual()
    assert gcc.min == pytest.approx(gc.min)
    assert gcc.spacing == pytest.approx(gc.spacing)


def test_sampled_function_shape_checks():
    g = Grid1D(-1.0, 1.0, 8)
    with pytest.raises(PreconditionError):
        SampledFunction1D(g, np.zeros(7))
    with pytest.raises(PreconditionError):
        SampledFunction1D(g, np.full(8, np.nan))


@given(x0=CENTERS, s=WIDTHS)
@settings(max_examples=25, deadline=None)
def test_forward_inverse_roundtrip_1d(x0, s):
    g = Grid1D(-16.0, 16.0, 256)
    f = gauss_on(g, x0, s)
    back = roundtrip(f)
    assert np.max(np.abs(back - f.values)) < 1e-12


def test_roundtrip_on_offset_grid():
    # grid not centered on zero and not symmetric
    g = Grid1D(-3.7, 9.1, 200)
    f = gauss_on(g, 2.0, 0.7)
    back = roundtrip(f)
    assert np.max(np.abs(back - f.values)) < 1e-12


def test_forward_matches_analytic_gaussian():
    # unitary convention: e^{-x^2/2} maps to itself
    g = Grid1D(-16.0, 16.0, 512)
    f = gauss_on(g, 0.0, 1.0)
    fh = forward(f)
    xi = g.dual().points
    assert np.max(np.abs(fh - np.exp(-(xi**2) / 2))) < 1e-12


def test_forward_shift_phase():
    # translation by a multiplies the transform by e^{-i a xi}
    g = Grid1D(-16.0, 16.0, 512)
    a = 1.25
    fh0 = forward(gauss_on(g, 0.0, 1.0))
    fha = forward(gauss_on(g, a, 1.0))
    expected = fh0 * np.exp(-1j * a * g.dual().points)
    assert np.max(np.abs(fha - expected)) < 1e-11


@given(x0=CENTERS, s=WIDTHS)
@settings(max_examples=25, deadline=None)
def test_parseval_1d(x0, s):
    g = Grid1D(-16.0, 16.0, 256)
    f = gauss_on(g, x0, s)
    fh = forward(f)
    n1 = np.sum(np.abs(f.values) ** 2) * g.spacing
    n2 = np.sum(np.abs(fh) ** 2) * g.dual().spacing
    assert n1 == pytest.approx(n2, rel=1e-12)


def ft_2d(values, src, dst, sign):
    """ft_core along axis 0 then axis 1: the 2-D transform src -> dst."""
    out = ft_core(values, src.gx, dst.gx, sign, axis=0)
    return ft_core(out, src.gp, dst.gp, sign, axis=1)


def test_roundtrip_2d():
    g = square_grid(-10.0, 10.0, 64)
    X, P = np.meshgrid(g.gx.points, g.gp.points, indexing="ij")
    f = np.exp(-(X**2) - 0.5 * (P - 1) ** 2)
    back = ft_2d(ft_2d(f, g, g.dual(), -1), g.dual(), g, +1)
    assert np.max(np.abs(back - f)) < 1e-12


def test_forward_2d_analytic():
    g = square_grid(-12.0, 12.0, 128)
    X, P = np.meshgrid(g.gx.points, g.gp.points, indexing="ij")
    fh = ft_2d(np.exp(-(X**2 + P**2) / 2), g, g.dual(), -1)
    A, B = g.dual().meshgrid()
    assert np.max(np.abs(fh - np.exp(-(A**2 + B**2) / 2))) < 1e-11


def test_quadrature_matches_closed_forms():
    g = Grid1D(-12.0, 12.0, 400)
    x = g.points
    val = np.trapezoid(np.exp(-(x**2)), dx=g.spacing)
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-12)
    g2 = square_grid(-8.0, 8.0, 96)
    X, P = np.meshgrid(g2.gx.points, g2.gp.points, indexing="ij")
    v2 = quadrature_2d(np.exp(-(X**2) - P**2), g2)
    assert v2 == pytest.approx(np.pi, abs=1e-10)


def test_boundary_warning_fires_on_clipped_input():
    g = Grid1D(-2.0, 2.0, 64)
    f = gauss_on(g, 0.0, 2.0)  # nowhere near decayed at the edges
    with pytest.warns(UserWarning):
        warn_boundary(f.values, "clipped input")


@pytest.mark.parametrize(
    "u, n",
    [
        (np.random.default_rng(7).uniform(-3.0, 35.0, 400), 32),  # random in [-3, n+3]
        (np.arange(-5.0, 38.0), 32),  # exact integers inside and outside [0, n)
        (-np.random.default_rng(8).uniform(0.0, 50.0, 100), 16),  # negative
        (np.random.default_rng(9).uniform(-3.0, 19.0, (7, 9)), 16),  # 2-D, one sample set per column
        (np.array([1000.0 + 1e-9, 999.5, 1000.0]), 1002),  # unreduced sin(pi u) is off here
        (2.0, 4),  # 0-d
    ],
    ids=["random", "integers", "negative", "2d", "far-from-origin", "scalar"],
)
def test_sinc_sum_matches_fsum_oracle(u, n):
    v = np.random.default_rng(10).standard_normal((n,) + np.shape(u)[1:])
    got = sinc_sum(u, v)
    assert got.shape == np.broadcast_shapes(np.shape(u), v.shape[1:])
    ref, scale = oracle.sinc_sum(u, v)
    assert np.all(np.abs(got - ref) <= 2e-15 * scale)


@pytest.mark.parametrize(
    "u_shape, v_shape, out_shape",
    [((40, 24), (32, 24), (40, 24)), ((960,), (32, 2, 1), (2, 960))],
    ids=["marginal-rows", "state-pairs"],
)
def test_sinc_sum_hits_and_caller_shapes(u_shape, v_shape, out_shape):
    # the two callers' layouts: (z, x) points against one sample set per
    # column, and a long axis of points against the (n, 2, 1) re/im view
    rng = np.random.default_rng(11)
    u = rng.uniform(-4.0, 36.0, u_shape)
    flat = u.reshape(-1)
    flat[::3] = np.rint(flat[::3])  # exact hits, inside and outside [0, 32)
    v = rng.standard_normal(v_shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sinc_sum(u, v)
    assert got.shape == out_shape
    ref, scale = oracle.sinc_sum(u, v)
    assert np.all(np.abs(got - ref) <= 2e-15 * scale)
    on_lattice = np.broadcast_to(u == np.rint(u), out_shape)
    hit = on_lattice & np.broadcast_to((u >= 0) & (u < 32), out_shape)
    assert np.array_equal(got[hit], ref[hit])  # the sample itself
    assert np.all(got[on_lattice & ~hit] == 0.0)  # the plain sum, 0 there


def test_sinc_sum_transposed_samples_are_bitwise_the_c_ordered_copy():
    # the (z, x) marginal layout: f has one row per x and one column per p,
    # and the caller passes f.T, one sample set per x column, in F order
    rng = np.random.default_rng(12)
    f = rng.standard_normal((24, 32))
    u = rng.uniform(-2.0, 34.0, (40, 24))
    u[::4] = np.rint(u[::4])
    assert not f.T.flags.c_contiguous
    got = sinc_sum(u, f.T)
    ref = sinc_sum(u, np.ascontiguousarray(f.T))
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "u_shape, v_shape", [((40, 24), (32, 24)), ((960,), (32, 2, 1))], ids=["marginal-rows", "state-pairs"]
)
def test_sinc_sum_all_hits_are_bitwise_the_samples(u_shape, v_shape):
    rng = np.random.default_rng(13)
    m = rng.integers(0, 32, u_shape)
    v = rng.standard_normal(v_shape)
    got = sinc_sum(m.astype(float), v)
    if len(v_shape) == 2:
        ref = np.take_along_axis(v, m, axis=0)  # row j of u gathers v[m[j, c], c]
    else:
        ref = v[m, :, 0].T  # (2, P): re and im at each point
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
