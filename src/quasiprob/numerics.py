"""Uniform grids, unitary Fourier transforms, and 2-D quadrature.

Transform convention (angular frequency, symmetric normalization):

    fhat(xi) = (1/sqrt(2*pi)) * integral f(x) e^{-i xi x} dx
    f(x)     = (1/sqrt(2*pi)) * integral fhat(xi) e^{+i xi x} dxi

A plain DFT assumes both the signal and its spectrum start at index 0.  Our
grids have physical origins mid-grid, so the DFT is wrapped with two phase
corrections (one for the source offset, one for the destination offset) plus
the Riemann factor dx/sqrt(2*pi).  With the dual grid defined below the round
trip is exact to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT2PI = np.sqrt(2.0 * np.pi)

# |f| at the grid edge above this fraction of max|f| breaks the decay contract
BOUNDARY_DECAY = 1e-12


class PreconditionError(ValueError):
    """An operation's precondition was violated; CLI maps this to exit 1."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform lattice min + k*dx, k = 0..n-1 (right endpoint excluded)."""

    min: float
    max: float
    n: int

    def __post_init__(self):
        if not self.min < self.max:
            raise PreconditionError(f"grid needs min < max, got [{self.min}, {self.max}]")
        if self.n < 2:
            raise PreconditionError(f"grid needs n >= 2, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / self.n

    @cached_property
    def points(self) -> np.ndarray:
        return self.min + self.spacing * np.arange(self.n)

    def dual(self) -> "Grid1D":
        """Frequency lattice: spacing 2*pi/(n*dx), centered so 0 is a point."""
        dxi = 2.0 * np.pi / (self.n * self.spacing)
        lo = -(self.n // 2) * dxi
        return Grid1D(lo, lo + self.n * dxi, self.n)


@dataclass(frozen=True)
class Grid2D:
    gx: Grid1D
    gp: Grid1D

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gx.n, self.gp.n)

    def dual(self) -> "Grid2D":
        return Grid2D(self.gx.dual(), self.gp.dual())

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.gx.points, self.gp.points, indexing="ij")


def square_grid(lo: float, hi: float, n: int) -> Grid2D:
    g = Grid1D(lo, hi, n)
    return Grid2D(g, g)


@dataclass(frozen=True)
class SampledFunction1D:
    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n,):
            raise PreconditionError(f"value count {v.shape} != grid size {self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise PreconditionError("non-finite sample values")
        object.__setattr__(self, "values", v)


def warn_boundary(values: np.ndarray, what: str) -> None:
    """Warn when 1-D samples have not decayed at the grid edge (nice-function contract)."""
    v = np.abs(np.asarray(values))
    peak = v.max()
    if peak == 0.0:
        return
    edge = max(v[0], v[-1])
    if edge > BOUNDARY_DECAY * peak:
        warnings.warn(
            f"{what}: |f| at grid edge is {edge / peak:.2e} of max, "
            f"above the {BOUNDARY_DECAY:.0e} decay contract",
            stacklevel=3,
        )


def ft_core(values: np.ndarray, src: Grid1D, dst: Grid1D, sign: int, axis: int = -1) -> np.ndarray:
    """Phase-corrected DFT along one axis: src lattice -> dst lattice.

    sign=-1 is the forward transform (kernel e^{-i xi x}), sign=+1 the
    inverse.  dst must be a dual of src (same n, spacing 2*pi/(n*dx));
    the offsets of both lattices are arbitrary.
    """
    v = np.asarray(values, dtype=complex)
    n = src.n
    if v.shape[axis] != n or dst.n != n:
        raise PreconditionError("transform axis length must match both grids")
    s = src.points
    y = dst.points
    shape = [1] * v.ndim
    shape[axis] = n
    pre = np.exp(sign * 1j * dst.min * (s - src.min)).reshape(shape)
    post = np.exp(sign * 1j * y * src.min).reshape(shape)
    core = np.fft.fft(v * pre, axis=axis) if sign < 0 else np.fft.ifft(v * pre, axis=axis) * n
    return (src.spacing / SQRT2PI) * post * core


def fourier_forward_1d(f: SampledFunction1D) -> SampledFunction1D:
    """fhat on the dual grid; input must satisfy the boundary-decay contract."""
    warn_boundary(f.values, "fourier_forward_1d input")
    dual = f.grid.dual()
    return SampledFunction1D(dual, ft_core(f.values, f.grid, dual, -1))


def fourier_inverse_1d(g: SampledFunction1D, grid: Grid1D) -> SampledFunction1D:
    """Inverse transform back onto `grid`, a dual of g's grid."""
    return SampledFunction1D(grid, ft_core(g.values, g.grid, grid, +1))


def quadrature_2d(values: np.ndarray, grid: Grid2D) -> float:
    """Trapezoidal integral over grid of real samples of shape grid.shape."""
    inner = np.trapezoid(values, dx=grid.gp.spacing, axis=1)
    return float(np.trapezoid(inner, dx=grid.gx.spacing))
