"""The phase-space quasi-distribution of a state, its characteristic function,
and negativity measures.

Conventions (hbar explicit, default 1):

    f(x, p)       = (1/2 pi) integral conj(psi)(x + b hbar/2) psi(x - b hbar/2) e^{i b p} db
    <e^{-i(aX+bP)}> = e^{i a b hbar/2} integral conj(psi)(y) e^{-i a y} psi(y - b hbar) dy
    fhat(a, b)    = <psi| e^{-i(aX+bP)} |psi> / (2 pi)

The first is computed row-by-row as a single phase-corrected inverse transform
in b (the b-lattice is the dual of the p-lattice).  The second is the
Zassenhaus-split form of the operator exponential; the e^{i a b hbar/2} factor
is exactly the scalar commutator correction and is pinned down by the
displaced-Gaussian closed form in the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import SINC_BLOCK, Grid2D, PreconditionError, SQRT2PI, ft_core, quadrature_2d
from .states import DEFAULT_GRID, WaveFunction


@dataclass(frozen=True)
class QuasiDistribution:
    """Real-valued f(x, p) on a phase-space grid; may take negative values."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise PreconditionError(f"value shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise PreconditionError("non-finite quasi-distribution values")
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return quadrature_2d(self.values, self.grid)


@dataclass(frozen=True)
class CharacteristicFunction:
    """fhat(a, b) = <e^{-i(aX+bP)}>/(2 pi) sampled on an (alpha, beta) grid."""

    grid: Grid2D
    values: np.ndarray


def characteristic_function(psi: WaveFunction, alpha, beta):
    """<psi| e^{-i(alpha X + beta P)} |psi> at the broadcast points of alpha and
    beta, in passes of SINC_BLOCK quadrature nodes.

    Evaluated by quadrature of the split form on DEFAULT_GRID; the integrand
    needs psi at y - beta*hbar, so shifts larger than the working-grid
    half-span are only trusted where the result has already decayed.
    """
    g = DEFAULT_GRID
    h = psi.hbar
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    a, b = np.broadcast_arrays(alpha, beta)
    shape = a.shape
    af, bf = a.ravel(), b.ravel()
    y = g.points
    left = np.conj(psi(y))
    out = np.empty(af.size, dtype=complex)
    chunk = max(1, SINC_BLOCK // y.size)
    for i in range(0, af.size, chunk):
        ac = af[i : i + chunk, None]
        bc = bf[i : i + chunk, None]
        integ = left[None, :] * np.exp(-1j * ac * y[None, :]) * psi(y[None, :] - bc * h)
        out[i : i + chunk] = np.trapezoid(integ, dx=g.spacing, axis=1)
    out *= np.exp(1j * af * bf * h / 2.0)
    span = g.max - g.min
    risky = (np.abs(bf) * h > span / 2) & (np.abs(out) > 1e-10)
    if np.any(risky):
        warnings.warn(
            f"characteristic_function: {int(risky.sum())} point(s) shift the state "
            "more than half the working grid and have not decayed; widen the grid",
            stacklevel=2,
        )
    return out.reshape(shape) if shape else complex(out[0])


def characteristic_grid(psi: WaveFunction, grid: Grid2D) -> CharacteristicFunction:
    """Sample fhat = <e^{-i(aX+bP)}>/(2 pi) on grid (x-axis = alpha, p-axis = beta).

    When the origin is a grid point, fhat(0, 0) must equal 1/(2 pi)."""
    A, B = grid.meshgrid()
    vals = characteristic_function(psi, A, B) / (2 * np.pi)
    ia = int(np.argmin(np.abs(grid.gx.points)))
    ib = int(np.argmin(np.abs(grid.gp.points)))
    if abs(grid.gx.points[ia]) < 1e-12 and abs(grid.gp.points[ib]) < 1e-12:
        dev = abs(vals[ia, ib] - 1.0 / (2 * np.pi))
        if dev > 1e-8:
            raise PreconditionError(
                f"characteristic normalization off: |fhat(0,0) - 1/2pi| = {dev:.2e}"
            )
    return CharacteristicFunction(grid, vals)


def wigner_transform(psi: WaveFunction, grid: Grid2D) -> QuasiDistribution:
    """The quasi-distribution f(x, p) of psi on the given phase-space grid.

    Each x-row is one inverse transform over the b-lattice dual to the p-axis,
    taken in blocks of rows holding SINC_BLOCK points each, so the working set
    is one block beside the real result.  The imaginary residue of the
    construction, the normalization, and the 1/(pi hbar) bound are checked.
    """
    gx, gp = grid.gx, grid.gp
    gb = gp.dual()
    h = psi.hbar
    B = gb.points[None, :]
    step = max(1, SINC_BLOCK // gb.n)
    f, edge, peak, imag = None, 0.0, 0.0, 0.0
    for i in range(0, gx.n, step):
        X = gx.points[i : i + step, None]
        rows = np.conj(psi(X + B * h / 2.0)) * psi(X - B * h / 2.0)
        edge = np.maximum(edge, max(np.abs(rows[:, 0]).max(), np.abs(rows[:, -1]).max()))
        peak = np.maximum(peak, np.abs(rows).max())
        block = ft_core(rows, gb, gp, +1, axis=1) / SQRT2PI
        imag = np.maximum(imag, np.abs(block.imag).max())
        if f is None:  # after the first transform, so on a one-block grid its peak and f do not overlap
            f = np.empty(grid.shape)
        f[i : i + step] = block.real
        del rows, block  # freed before the next block is built
    if edge > 1e-9 * peak:
        warnings.warn(
            f"wigner_transform: correlation not decayed at the b-window edge "
            f"(edge/max = {edge / peak:.2e}); refine the p-grid",
            stacklevel=2,
        )
    if imag > 1e-9:
        raise PreconditionError(f"wigner_transform imaginary residue {imag:.2e} above 1e-9")
    q = QuasiDistribution(grid, f)
    total = q.integral()
    if abs(total - 1.0) > 1e-8:
        raise PreconditionError(f"wigner_transform integral {total!r} not 1 within 1e-8")
    bound = 1.0 / (np.pi * h) + 1e-8
    if np.abs(q.values).max() > bound:
        raise PreconditionError("wigner_transform exceeded the 1/(pi hbar) bound")
    return q


def wigner_from_characteristic(cf: CharacteristicFunction) -> QuasiDistribution:
    """Inverse 2-D transform of fhat onto the dual of its grid; matches
    wigner_transform there when fhat has decayed at the window edge."""
    target = cf.grid.dual()
    out = ft_core(cf.values, cf.grid.gx, target.gx, +1, axis=0)
    out = ft_core(out, cf.grid.gp, target.gp, +1, axis=1)
    imag = float(np.abs(out.imag).max())
    scale = float(np.abs(out.real).max())
    if scale > 0 and imag > 1e-9 * max(1.0, scale):
        raise PreconditionError(f"wigner_from_characteristic imaginary residue {imag:.2e}")
    return QuasiDistribution(target, out.real)


def negative_volume(f) -> float:
    """Total negative mass: integral of max(-f, 0), or the negative-entry sum
    of a discrete outcome list.  Zero exactly for nonnegative inputs."""
    if isinstance(f, QuasiDistribution):
        neg = np.maximum(-f.values, 0.0)
        return float(neg.sum() * f.grid.gx.spacing * f.grid.gp.spacing)
    vals = [float(v) for v in np.asarray(f, dtype=float).ravel()]
    return -sum(v for v in vals if v < 0) + 0.0
