"""Marginals of z = a x + b p, the slice identity between a marginal's
transform and the 2-D transform of the distribution, reconstruction from
marginals, and the two marginal-preserving counterexample modifications.

Central identity (for ANY quasi-distribution f, Wigner or not):

    ghat(zeta) = sqrt(2 pi) * fhat(a zeta, b zeta)

i.e. the 1-D transform of the (a, b)-marginal is the 2-D transform of f
sampled along the ray through (a, b).  Reconstruction inverts this: transform
each marginal, lay the rays out in polar coordinates, interpolate onto the
Cartesian frequency lattice, and invert in 2-D.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import SINC_BLOCK, Grid1D, Grid2D, PreconditionError, SQRT2PI, ft_core, sinc_sum
from .states import DirectionAB, FockExpansion, hermite_functions
from .wigner import QuasiDistribution


@dataclass(frozen=True)
class Marginal:
    """Density g(z) of z = a x + b p, tagged with its direction."""

    direction: DirectionAB
    grid: Grid1D
    values: np.ndarray

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.spacing))


def marginal_of_quasi(f: QuasiDistribution, d: DirectionAB, zgrid: Grid1D) -> Marginal:
    """Line-integral marginal of f along z = a x + b p.

    Integrates over x with band-limited interpolation of f in p at
    p* = (z - a x)/b (density factor 1/|b|).  When |b| < |a| the roles of
    (x, a) and (p, b) swap, with f transposed, so the swept coordinate is
    always the one with the smaller coefficient.  Band-limited lookup keeps
    the quadrature at transform accuracy; the swap keeps the swept coordinate
    on-grid as long as the z-window covers the projected support.
    """
    a, b = d.a, d.b
    gx, gp = f.grid.gx, f.grid.gp
    values = f.values
    if abs(b) < abs(a):
        a, b, gx, gp, values = b, a, gp, gx, values.T
    x = gx.points
    z = zgrid.points
    vals = np.empty(zgrid.n)
    step = max(1, SINC_BLOCK // gx.n)
    for i in range(0, zgrid.n, step):
        pstar = (z[i : i + step, None] - a * x[None, :]) / b  # (j, k)
        rows = sinc_sum((pstar - gp.min) / gp.spacing, values.T)  # row m of values.T: f at p_m
        vals[i : i + step] = np.trapezoid(rows, dx=gx.spacing, axis=1) / abs(b)
    peak = np.abs(vals).max()
    # discontinuous payloads ring at ~1e-6 relative through the band-limited
    # lookup; genuine clipping also fails the norm check below
    if peak > 0 and max(abs(vals[0]), abs(vals[-1])) > 1e-4 * peak:
        warnings.warn(
            "marginal_of_quasi: z-grid does not cover the projected support "
            f"(edge/max = {max(abs(vals[0]), abs(vals[-1])) / peak:.2e})",
            stacklevel=2,
        )
    m = Marginal(d, zgrid, vals)
    total = m.integral()
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"marginal_of_quasi: marginal integrates to {total:.8f}, not 1", stacklevel=2)
    return m


def quantum_marginal(fock: FockExpansion, dirs: Sequence[DirectionAB], zgrid: Grid1D) -> list[Marginal]:
    """Measurement distributions of a X + b P predicted by the state itself,
    one per direction of dirs, in order.

    With r = |(a, b)|, theta = atan2(b, a) and s = sqrt(hbar), a X + b P is
    r times the rotated quadrature of the oscillator basis, so

        g(z) = |sum_n c_n e^{-i n theta} h_n(z / (r s))|^2 / (r s)

    with c_n = <n|psi> the state's fock_expansion.  The h_n table is built
    once per distinct r, so a fan shares one.  The norm of each marginal is
    left to the caller, as Marginal.integral().
    """
    c = fock.c
    N = c.size
    tables: dict[float, np.ndarray] = {}
    out = []
    for d in dirs:
        scale = d.norm * np.sqrt(fock.hbar)
        if scale not in tables:
            tables[scale] = hermite_functions(N - 1, zgrid.points / scale)
        amp = (c * np.exp(-1j * np.arange(N) * np.arctan2(d.b, d.a))) @ tables[scale]
        out.append(Marginal(d, zgrid, np.abs(amp) ** 2 / scale))
    return out


def fhat_on_ray(f: QuasiDistribution, d: DirectionAB, zeta: np.ndarray) -> np.ndarray:
    """2-D transform of f evaluated exactly along the ray (a zeta, b zeta).

    Uses the semidiscrete sum (dx dp / 2 pi) sum f_lm e^{-i(u x_l + v p_m)},
    the trigonometric interpolant of the lattice transform, so ray points
    need not lie on the dual lattice.
    """
    x, p = f.grid.gx.points, f.grid.gp.points
    zeta = np.asarray(zeta, dtype=float)
    E2 = np.exp(-1j * np.outer(p, d.b * zeta))
    T = f.values @ E2
    E1 = np.exp(-1j * np.outer(d.a * zeta, x))
    scale = f.grid.gx.spacing * f.grid.gp.spacing / (2 * np.pi)
    return np.einsum("jl,lj->j", E1, T) * scale


def verify_j2m(f: QuasiDistribution, d: DirectionAB) -> float:
    """Max-abs residual of ghat(zeta) = sqrt(2 pi) fhat(a zeta, b zeta).

    Left side: marginal_of_quasi followed by a 1-D forward transform.  Right
    side: the 2-D transform sampled on the ray.  The z-grid is the coarser
    phase-space axis widened by max(1, |d|), so dz >= max(dx, dp) and the
    dual window stays clear of the periodization tails of the sampled
    transform.
    """
    gx, gp = f.grid.gx, f.grid.gp
    base = gx if gx.spacing >= gp.spacing else gp
    lam = max(1.0, d.norm)
    zgrid = Grid1D(lam * base.min, lam * base.max, base.n)
    m = marginal_of_quasi(f, d, zgrid)
    gz = zgrid.dual()
    lhs = ft_core(m.values.astype(complex), zgrid, gz, -1)
    rhs = SQRT2PI * fhat_on_ray(f, d, gz.points)
    return float(np.abs(lhs - rhs).max())


def fan(ndirs: int) -> list[DirectionAB]:
    """The ndirs equally spaced unit directions (cos k pi/ndirs, sin k pi/ndirs),
    k < ndirs: the angle set reconstruct_from_marginals takes, in this order."""
    return [DirectionAB(float(np.cos(k * np.pi / ndirs)), float(np.sin(k * np.pi / ndirs))) for k in range(ndirs)]


def reconstruct_from_marginals(marginals: Sequence[Marginal], grid: Grid2D) -> QuasiDistribution:
    """Assemble f from the marginals along fan(M), in order, by the slice identity.

    Marginal k is transformed to the radial line of fhat at angle k pi/M; the
    wrap row uses fhat's point symmetry ghat_{theta+pi}(zeta) =
    ghat_theta(-zeta); bilinear interpolation in (theta, signed radius) fills
    the Cartesian frequency lattice, and a 2-D inverse transform lands on the
    requested grid.  Fewer than 8 directions (a gap above pi/8) warn.
    """
    M = len(marginals)
    if M < 2:
        raise PreconditionError("reconstruction needs at least 2 directions")
    zgrid = marginals[0].grid
    if any(m.grid != zgrid for m in marginals):
        raise PreconditionError("all marginals must share one z-grid")
    for k, (m, d) in enumerate(zip(marginals, fan(M))):
        if abs(m.direction.a - d.a) > 1e-12 or abs(m.direction.b - d.b) > 1e-12:
            raise PreconditionError(
                f"marginal {k} lies along ({m.direction.a!r}, {m.direction.b!r}), "
                f"not along fan({M})[{k}] = (cos {k}pi/{M}, sin {k}pi/{M})"
            )
    if M < 8:
        warnings.warn(f"reconstruction coverage gap pi/{M} = {np.pi / M:.3f} is above pi/8", stacklevel=2)

    gz = zgrid.dual()
    zeta0, dzeta, nz = gz.min, gz.spacing, gz.n
    stack = np.stack([m.values.astype(complex) for m in marginals])
    fhat_polar = ft_core(stack, zgrid, gz, -1, axis=1) / SQRT2PI

    ga, gb = grid.gx.dual(), grid.gp.dual()
    A, B = np.meshgrid(ga.points, gb.points, indexing="ij")
    r = np.hypot(A, B)
    phi = np.arctan2(B, A)
    neg = phi < 0
    theta_pt = np.where(neg, phi + np.pi, phi)
    rho = np.where(neg, -r, r)  # signed radius along the canonical direction

    u = theta_pt / (np.pi / M)
    i_lo = np.minimum(np.floor(u).astype(int), M - 1)
    i_hi = (i_lo + 1) % M
    wrap = i_lo == M - 1
    w_ang = u - i_lo

    def sample(idx, rho_val, flip):
        # linear interpolation of row idx at signed radius, zero past the window
        rv = np.where(flip, -rho_val, rho_val)
        u = (rv - zeta0) / dzeta
        j = np.floor(u).astype(int)
        frac = u - j
        ok = (j >= 0) & (j < nz - 1)
        j = np.clip(j, 0, nz - 2)
        vals = (1 - frac) * fhat_polar[idx, j] + frac * fhat_polar[idx, j + 1]
        return np.where(ok, vals, 0.0)

    lo_vals = sample(i_lo, rho, np.zeros_like(wrap))
    hi_vals = sample(i_hi, rho, wrap)
    fhat_cart = (1 - w_ang) * lo_vals + w_ang * hi_vals

    f = ft_core(fhat_cart, ga, grid.gx, +1, axis=0)
    f = ft_core(f, gb, grid.gp, +1, axis=1)
    return QuasiDistribution(grid, f.real)


def rectangle_modification(
    f: QuasiDistribution, half_width: float, half_height: float, c: float
) -> QuasiDistribution:
    """Add +-c on the origin-centered rectangle with the quadrant sign pattern.

    Cells on the axes get zero (sign undefined there), so every axis-aligned
    line integral through the rectangle cancels exactly and the x- and
    p-marginals are untouched; oblique marginals are not.
    """
    gx, gp = f.grid.gx, f.grid.gp
    if half_width <= 0 or half_height <= 0:
        raise PreconditionError("rectangle half-sizes must be positive")
    if half_width > min(-gx.min, gx.max) or half_height > min(-gp.min, gp.max):
        raise PreconditionError("rectangle exceeds the grid")
    X, P = f.grid.meshgrid()
    inside = (np.abs(X) <= half_width) & (np.abs(P) <= half_height)
    pattern = np.sign(X) * np.sign(P) * inside
    return QuasiDistribution(f.grid, f.values + c * pattern)


def smooth_modification(
    f: QuasiDistribution, a: float, b: float, c: float
) -> QuasiDistribution:
    """f + c x p e^{-a x^2 - b p^2}: odd in each variable, so the x- and
    p-marginals are exactly preserved while oblique ones shift."""
    if a <= 0 or b <= 0:
        raise PreconditionError("decay rates a, b must be positive")
    X, P = f.grid.meshgrid()
    return QuasiDistribution(f.grid, f.values + c * X * P * np.exp(-a * X**2 - b * P**2))


def direction_residuals(f: QuasiDistribution, fock: FockExpansion, thetas: Sequence[float]) -> np.ndarray:
    """Max-abs gap between f's marginal and the prediction of the state with
    expansion fock, per angle, both on the coarser phase-space axis of f's grid."""
    gx, gp = f.grid.gx, f.grid.gp
    zgrid = gx if gx.spacing >= gp.spacing else gp
    dirs = [DirectionAB(float(np.cos(t)), float(np.sin(t))) for t in thetas]
    out = np.empty(len(dirs))
    for i, q in enumerate(quantum_marginal(fock, dirs, zgrid)):
        out[i] = np.abs(marginal_of_quasi(f, q.direction, zgrid).values - q.values).max()
    return out
