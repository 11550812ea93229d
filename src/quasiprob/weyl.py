"""Weyl quantization g(x, p) -> g(X, P) in a truncated oscillator basis,
displacement operators, and the expectation-equality check.

The quantization rule is

    g(X, P) = (1/2 pi) integral ghat(a, b) e^{i(a X + b P)} da db

with ghat the unitary 2-D transform of g.  Polynomial symbols have
distributional transforms; they are regularized by Gaussian damping
g * e^{-eps (x^2+p^2)}, whose transform is closed-form.  The damping bias on
the quantized matrix grows linearly in eps while the quadrature's rounding
floor grows as eps shrinks (the weights scale like 1/eps); EPS = 1e-9 sits at
the measured optimum, giving interior-block errors ~3e-7 at N = 32.

Each quadrature node needs e^{i(aX+bP)}.  Its matrix elements are closed
form (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)): with (a, b) =
r (cos phi, sin phi) and t = hbar r^2 / 2, for m = n + d >= n,

    <m| e^{i(aX+bP)} |n> = i^d e^{i d phi} l_n^(d)(t),
    l_n^(d)(t) = sqrt(n!/(n+d)!) t^{d/2} e^{-t/2} L_n^(d)(t),

with L_n^(d) the generalized Laguerre polynomial, and the rows m < n are
(-1)^d times the conjugates.  These are the elements of the untruncated
operator, so the N x N matrix is its compression P_N e^{i(aX+bP)} P_N with no
error at the basis edge.  A node enters only through its radius and e^{i d phi},
so the quadrature sums the phases per radius first:
G_{n+d,n} = i^d sum_R l_n^(d)(t_R) S_d(R), S_d(R) = sum_{nodes at R} w e^{i d phi},
and a real symbol gives a Hermitian G.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import Grid2D, PreconditionError, quadrature_2d, square_grid
from .states import FockExpansion, WaveFunction
from .wigner import wigner_transform

#: Damping rate for polynomial symbols; see the module docstring.
EPS = 1e-9

#: Phase-space quadrature grid for the Gaussian symbol (dual window ~ +-12.6).
GAUSS_GRID = square_grid(-24.0, 24.0, 192)

#: Quadrature grid for the damped polynomials: the dual window must extend to
#: ~30 sqrt(EPS) so the Gaussian tail beats the 1/EPS^2 transform prefactor.
POLYNOMIAL_GRID = square_grid(-np.sqrt(46.0 / EPS), np.sqrt(46.0 / EPS), 128)

#: Quadrature nodes with |ghat| below PRUNE * max|ghat| are dropped.
PRUNE = 1e-15

#: Radii per block of the Laguerre table in weyl_quantize.
CHUNK = 512

#: Phase-space grid of the quadrature side of moyal_expectation_check.
MOYAL_GRID = square_grid(-12.0, 12.0, 192)


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Real symbol g(x, p), its closed-form transform ghat(a, b), and the
    phase-space grid whose dual lattice carries the quantization quadrature."""

    label: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    transform: Callable[[np.ndarray, np.ndarray], np.ndarray]
    quad_grid: Grid2D


def symbol(name: str) -> PhaseSpaceFunction:
    """Library symbols: x, p, x2, p2, xp, x2p2 (damped by e^{-EPS r^2}) and
    gauss = e^{-x^2-p^2} (no damping needed)."""
    if name == "gauss":
        return PhaseSpaceFunction(
            "gauss",
            lambda x, p: np.exp(-(x**2) - p**2),
            lambda a, b: 0.5 * np.exp(-(a**2 + b**2) / 4.0),
            GAUSS_GRID,
        )

    def G(t):
        return np.exp(-(t**2) / (4.0 * EPS)) / np.sqrt(2.0 * EPS)

    def dG(t):  # transform of u * e^{-eps u^2} over the plain Gaussian's
        return (-1j * t / (2.0 * EPS)) * G(t)

    def d2G(t):  # transform of u^2 * e^{-eps u^2}
        return (1.0 / (2.0 * EPS) - t**2 / (4.0 * EPS**2)) * G(t)

    damp = lambda x, p: np.exp(-EPS * (x**2 + p**2))
    table: dict[str, tuple[Callable, Callable]] = {
        "x": (lambda x, p: x * damp(x, p), lambda a, b: dG(a) * G(b)),
        "p": (lambda x, p: p * damp(x, p), lambda a, b: G(a) * dG(b)),
        "x2": (lambda x, p: x**2 * damp(x, p), lambda a, b: d2G(a) * G(b)),
        "p2": (lambda x, p: p**2 * damp(x, p), lambda a, b: G(a) * d2G(b)),
        "xp": (lambda x, p: x * p * damp(x, p), lambda a, b: dG(a) * dG(b)),
        "x2p2": (
            lambda x, p: (x**2 + p**2) * damp(x, p),
            lambda a, b: d2G(a) * G(b) + G(a) * d2G(b),
        ),
    }
    if name not in table:
        raise PreconditionError(f"unknown symbol {name!r} (have x, p, x2, p2, xp, x2p2, gauss)")
    ev, tr = table[name]
    return PhaseSpaceFunction(name, ev, tr, POLYNOMIAL_GRID)


def oscillator_matrices(N: int, hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum in the N-dim oscillator basis (both Hermitian).

    The commutator is i hbar I except the (N-1, N-1) entry, which the
    truncation replaces by -i hbar (N-1).
    """
    if N < 2:
        raise PreconditionError(f"truncation needs N >= 2, got {N}")
    rt = np.sqrt(np.arange(1, N) * hbar / 2.0)
    X = (np.diag(rt, 1) + np.diag(rt, -1)).astype(complex)
    P = 1j * (np.diag(rt, -1) - np.diag(rt, 1))
    return X, P


def _laguerre_rows(N: int, t: np.ndarray):
    """Yield l_n^(d)(t) for n = 0 .. N-1; row n is an (N-n, t.size) array
    over d = 0 .. N-1-n, the orders that still fit in the N x N matrix.

    The normalized three-term recurrence in n,
    l_{n+1} = [(2n+1+d-t) l_n - sqrt(n(n+d)) l_{n-1}] / sqrt((n+1)(n+1+d)),
    runs for every d at once from l_0^(d) = t^{d/2} e^{-t/2} / sqrt(d!),
    taken in log form so that no factor overflows at large t.
    """
    d = np.arange(N, dtype=float)[:, None]
    logt = np.log(t, out=np.full(t.shape, -np.inf), where=t > 0)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(1, N)])[:, None]
    cur = np.empty((N, t.size))
    cur[0] = np.exp(-t / 2)  # d = 0 apart: 0 * log 0 would be NaN at t = 0
    cur[1:] = np.exp(d[1:] / 2 * logt - t / 2 - log_fact / 2)
    prev = np.zeros_like(cur)
    for n in range(N):
        yield cur
        k = N - n - 1
        dk = d[:k]
        nxt = (2 * n + 1 + dk) - t
        nxt *= cur[:k]
        nxt -= np.sqrt(n * (n + dk)) * prev[:k]
        nxt /= np.sqrt((n + 1) * (n + 1 + dk))
        cur, prev = nxt, cur[:k]


def displacement(alpha: float, beta: float, N: int, hbar: float = 1.0) -> np.ndarray:
    """e^{i(alpha X + beta P)} compressed to the first N oscillator states.

    Entry (n+d, n) is i^d e^{i d phi} l_n^(d)(t) with alpha + i beta =
    r e^{i phi} and t = hbar r^2 / 2; entry (n, n+d) is (-1)^d times its
    conjugate (see the module docstring).  Every entry is the untruncated
    operator's: N only sets which entries are kept.
    """
    r = float(np.hypot(alpha, beta))
    step = 1j * complex(alpha, beta) / r if r > 0 else 1.0  # i e^{i phi}
    D = np.zeros((N, N), dtype=complex)
    for n, row in enumerate(_laguerre_rows(N, np.array([hbar * r * r / 2]))):
        d = np.arange(N - n)
        v = step**d * row[:, 0]
        D[n + d, n] = v
        D[n, n + d] = (-1.0) ** d * v.conj()
    return D


def _ring_sums(g: PhaseSpaceFunction, N: int) -> tuple[np.ndarray, float, np.ndarray]:
    """The distinct lattice radii R = i^2 + j^2 of g's kept quadrature nodes,
    the dual spacing h, and i^d S_d(R) for d < N as (N, 2, len(R)) (re, im).

    Nodes with |ghat| below PRUNE * max|ghat| are dropped.  On the square grid
    e^{i phi} = (i + ij)/|i + ij|, so the phases come from repeated
    multiplication and the sums from np.bincount, with no exponential per node.
    """
    dual = g.quad_grid.dual()
    if dual.gx != dual.gp:
        raise PreconditionError(f"weyl_quantize[{g.label}] needs a square quadrature grid")
    gh = g.transform(*dual.meshgrid())
    mags = np.abs(gh)
    peak = mags.max()
    edge = max(mags[0].max(), mags[-1].max(), mags[:, 0].max(), mags[:, -1].max())
    if peak > 0 and edge > 1e-10 * peak:
        warnings.warn(
            f"weyl_quantize[{g.label}]: ghat not decayed on the dual window "
            f"(edge/max = {edge / peak:.2e}); enlarge the grid",
            stacklevel=3,
        )
    keep = mags > PRUNE * peak
    h = dual.gx.spacing
    wp = gh[keep] * (h * h / (2 * np.pi)) + 0j
    gh = mags = None  # release the grid-sized arrays before the per-node ones
    i, j = np.array(np.nonzero(keep)) - dual.gx.n // 2  # the dual lattice holds 0 at n // 2
    rad, inv = np.unique(i * i + j * j, return_inverse=True)
    z = i + 1j * j
    step = np.divide(1j * z, np.abs(z), out=np.ones_like(z), where=z != 0)  # i e^{i phi}
    S = np.empty((N, 2, rad.size))
    for d in range(N):
        S[d, 0] = np.bincount(inv, wp.real, rad.size)
        S[d, 1] = np.bincount(inv, wp.imag, rad.size)
        wp *= step
    return rad, h, S


def weyl_quantize(g: PhaseSpaceFunction, N: int, hbar: float = 1.0) -> np.ndarray:
    """Quantize one symbol on its quadrature grid with the closed-form
    displacement elements, summed per lattice radius (module docstring).

    t_R = hbar h^2 R / 2.  The radii are contracted with numpy reductions,
    CHUNK at a time, and the rows above the diagonal are the conjugates, so G
    is Hermitian.  With no BLAS product, the bits do not depend on the BLAS
    thread count.
    """
    if N < 2:
        raise PreconditionError(f"truncation needs N >= 2, got {N}")
    rad, h, S = _ring_sums(g, N)
    t = hbar * h * h / 2 * rad
    T = np.zeros((N, N, 2))  # T[n, d] = G_{n+d,n} as (re, im)
    for r0 in range(0, rad.size, CHUNK):
        c = slice(r0, r0 + CHUNK)
        for n, row in enumerate(_laguerre_rows(N, t[c])):
            T[n, : N - n] += (row[:, None, :] * S[: N - n, :, c]).sum(axis=2)
    m, n = np.tril_indices(N)
    L = np.zeros((N, N), dtype=complex)
    L[m, n] = T.view(complex)[n, m - n, 0]
    L[np.diag_indices(N)] /= 2  # so the diagonal of L + L^dag is exactly real
    return L + L.conj().T


def interior_block(M: np.ndarray) -> np.ndarray:
    h = M.shape[0] // 2
    return M[:h, :h]


def moyal_expectation_check(
    g: PhaseSpaceFunction, psi: WaveFunction, fock: FockExpansion, G: np.ndarray
) -> tuple[float, float, float]:
    """Both sides of <psi| g(X,P) |psi> = integral g * f and their gap.

    Left: sandwich G, the N x N quantization of g at psi's hbar, with the
    first N of the state's oscillator coefficients fock.c, zero-padded past
    len(c); the coefficients from N on must carry at most 1e-10 of the norm.
    The caller quantizes, so verify reuses one matrix for three states and
    weyl-check dumps the matrix it checked.  Right: quadrature of g against
    the state's quasi-distribution on MOYAL_GRID.
    """
    N = G.shape[0]
    tail = float(np.sum(np.abs(fock.c[N:]) ** 2))
    if not tail <= 1e-10:
        raise PreconditionError(
            f"state's coefficient tail beyond N={N} is {tail:.2e} (> 1e-10); increase N"
        )
    c = np.pad(fock.c[:N], (0, max(0, N - fock.c.size)))
    lhs = float(np.real(np.conj(c) @ G @ c))

    f = wigner_transform(psi, MOYAL_GRID)
    X, P = MOYAL_GRID.meshgrid()
    rhs = quadrature_2d(g.evaluate(X, P) * f.values, MOYAL_GRID)
    return lhs, rhs, abs(lhs - rhs)
