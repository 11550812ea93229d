"""Uniform grids, unitary Fourier transforms, band-limited (Whittaker)
interpolation, and 2-D quadrature.

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

#: Points per sinc_sum call in its callers, so the kernel's working set stays in L2.
SINC_BLOCK = 16384


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


def sinc_sum(u, samples) -> np.ndarray:
    """sum_m samples[m] sinc(u - m), m < len(samples), of real samples; u in sample units.

    The Whittaker series in its barycentric form sin(pi u)/pi * sum_m
    (-1)^m samples[m] / (u - m) (Berrut & Trefethen, SIAM Rev. 46, 501
    (2004)), added one sample at a time into an array of the broadcast shape
    of u and samples[0]: no (point x sample) table is formed.  The sine is of
    the reduced u - k, k = rint(u), so it stays exact far from the origin.
    A hit u == m with 0 <= m < n gives samples[m]; it is moved off the
    lattice first, so nothing divides by zero, and when every point is a hit
    the gathered samples are returned without the sum.  The samples are
    copied in C order, so each samples[m] read by the loop is contiguous even
    when the caller passes a transposed view.
    """
    u = np.asarray(u, dtype=float)
    w = np.array(samples, dtype=float, order="C")
    k = np.rint(u)
    hit = (u == k) & (k >= 0) & (k < len(w))
    shape = np.broadcast_shapes(u.shape, w.shape[1:])
    # samples[k] at the hits, gathered from the samples padded to the rank of the result
    v = w.reshape(w.shape[:1] + (1,) * (len(shape) + 1 - w.ndim) + w.shape[1:])
    idx = np.broadcast_to(np.where(hit, k, 0).astype(np.intp), shape)
    at_k = np.take_along_axis(v, idx[None], axis=0).reshape(shape)
    if hit.all():
        return at_k
    s = np.sin(np.pi * (u - k)) / np.pi * np.where(k % 2, -1.0, 1.0)
    acc = np.zeros(shape)
    u = u + 0.5 * hit  # s is 0 at a hit
    w[1::2] *= -1.0
    for m in range(len(w)):
        acc += w[m] / (u - m)
    acc *= s
    np.copyto(acc, at_k, where=hit)
    return acc


def quadrature_2d(values: np.ndarray, grid: Grid2D) -> float:
    """Trapezoidal integral over grid of real samples of shape grid.shape."""
    inner = np.trapezoid(values, dx=grid.gp.spacing, axis=1)
    return float(np.trapezoid(inner, dx=grid.gx.spacing))
