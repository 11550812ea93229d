import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiprob.numerics import (
    Grid1D,
    Grid2D,
    PreconditionError,
    SampledFunction1D,
    fourier_forward_1d,
    fourier_inverse_1d,
    ft_core,
    quadrature_2d,
    square_grid,
)

# kept well inside [-16, 16] so edge decay stays under the 1e-12 contract
CENTERS = st.floats(-3.0, 3.0)
WIDTHS = st.floats(0.5, 1.5)


def gauss_on(grid, x0, s):
    x = grid.points
    return SampledFunction1D(grid, np.exp(-((x - x0) ** 2) / (2 * s**2)))


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
    back = fourier_inverse_1d(fourier_forward_1d(f), g)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_roundtrip_on_offset_grid():
    # grid not centered on zero and not symmetric
    g = Grid1D(-3.7, 9.1, 200)
    f = gauss_on(g, 2.0, 0.7)
    back = fourier_inverse_1d(fourier_forward_1d(f), g)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_forward_matches_analytic_gaussian():
    # unitary convention: e^{-x^2/2} maps to itself
    g = Grid1D(-16.0, 16.0, 512)
    f = gauss_on(g, 0.0, 1.0)
    fh = fourier_forward_1d(f)
    xi = fh.grid.points
    assert np.max(np.abs(fh.values - np.exp(-(xi**2) / 2))) < 1e-12


def test_forward_shift_phase():
    # translation by a multiplies the transform by e^{-i a xi}
    g = Grid1D(-16.0, 16.0, 512)
    a = 1.25
    fh0 = fourier_forward_1d(gauss_on(g, 0.0, 1.0))
    fha = fourier_forward_1d(gauss_on(g, a, 1.0))
    expected = fh0.values * np.exp(-1j * a * fh0.grid.points)
    assert np.max(np.abs(fha.values - expected)) < 1e-11


@given(x0=CENTERS, s=WIDTHS)
@settings(max_examples=25, deadline=None)
def test_parseval_1d(x0, s):
    g = Grid1D(-16.0, 16.0, 256)
    f = gauss_on(g, x0, s)
    fh = fourier_forward_1d(f)
    n1 = np.sum(np.abs(f.values) ** 2) * g.spacing
    n2 = np.sum(np.abs(fh.values) ** 2) * fh.grid.spacing
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
        fourier_forward_1d(f)
