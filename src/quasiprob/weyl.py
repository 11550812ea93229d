"""Weyl quantization g(x, p) -> g(X, P) in a truncated oscillator basis and
the expectation-equality check.

Weyl quantization is the dual of the Wigner transform: <psi|g(X,P)|psi> is the
phase-space integral of g against psi's Wigner function.  So each matrix
element is an integral of g against the Wigner function of |n+d><n|, which is
closed form (Groenewold, Physica 12, 405 (1946); Cahill & Glauber, Phys. Rev.
177, 1857 (1969)): with (x, p) = r (cos phi, sin phi) and t = 2 r^2 / hbar,

    <n| g(X,P) |n+d> = integral g(x, p) W_{|n+d><n|}(x, p) dx dp,
    W_{|n+d><n|} = ((-1)^n / (pi hbar)) e^{-i d phi} l_n^(d)(t),
    l_n^(d)(t) = sqrt(n!/(n+d)!) t^{d/2} e^{-t/2} L_n^(d)(t),

with L_n^(d) the generalized Laguerre polynomial.  Only the harmonic
e^{i d phi} of g survives the angular integral, so the matrix is nonzero only
on the diagonals +-d of the harmonics that g carries.  W decays like e^{-r^2/hbar},
so a polynomial symbol needs no damping and no Fourier transform, and the
N x N matrix is the compression of the untruncated operator with no error at
the basis edge.

The integral is the midpoint rule on the lattice x, p = (i + 1/2) h, so no
node is at the origin, with h = 2 pi / k and

    k = 2 sqrt((2N+1)/hbar) + 12/sqrt(hbar) + band(g):

the transform of W reaches its last turning point at 2 sqrt((2N+1)/hbar) and
falls below 1e-16 within 12/sqrt(hbar) of it, and the symbol's own band
widens the product's.  The nodes are kept on the disc r <= L, L =
min(sqrt((2N+1) hbar) + 5 sqrt(hbar), support(g)), 5 sqrt(hbar) past W's last
turning point, and where |g| > 1e-16 max|g|.  The largest t is then
2 (sqrt(2N+1) + 5)^2, and N <= 232 keeps the Laguerre start e^{-t/2} from
underflowing.  A node enters only through its lattice radius
R = (2i+1)^2 + (2j+1)^2 and e^{-i d phi}, so the phases are summed per radius
first:

    <n|G|n+d> = ((-1)^n / (pi hbar)) sum_R l_n^(d)(t_R) S_d(R),
    S_d(R) = sum_{nodes at R} g h^2 e^{-i d phi},  t_R = h^2 R / (2 hbar),

and the rows below the diagonal are the conjugates, since g is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import PreconditionError, quadrature_2d, square_grid
from .states import FockExpansion, WaveFunction
from .wigner import wigner_transform

#: Phase-space grid of the quadrature side of moyal_expectation_check.
MOYAL_GRID = square_grid(-12.0, 12.0, 192)


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Real symbol g(x, p), the orders d >= 0 (ascending) of its angular
    harmonics e^{+-i d phi}, the wavenumber band past which its transform is
    below 1e-16 of its peak (0 for polynomials), and the radius past which g
    is below 1e-16 of its peak (infinite for polynomials)."""

    label: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    harmonics: tuple[int, ...]
    band: float = 0.0
    support: float = math.inf


def symbol(name: str) -> PhaseSpaceFunction:
    """Library symbols: x, p, x2, p2, xp, x2p2 and gauss = e^{-x^2-p^2}."""
    if name == "gauss":
        # e^{-k^2/4} < 1e-16 past k = 12.1 and e^{-r^2} < 1e-16 past r = 6.1
        return PhaseSpaceFunction("gauss", lambda x, p: np.exp(-(x**2) - p**2), (0,), 12.0, 6.5)
    # x = r cos phi, p = r sin phi, xp = (r^2 / 2) sin 2 phi, x^2 = (r^2 / 2)(1 + cos 2 phi)
    table: dict[str, tuple[Callable, tuple[int, ...]]] = {
        "x": (lambda x, p: x, (1,)),
        "p": (lambda x, p: p, (1,)),
        "x2": (lambda x, p: x**2, (0, 2)),
        "p2": (lambda x, p: p**2, (0, 2)),
        "xp": (lambda x, p: x * p, (2,)),
        "x2p2": (lambda x, p: x**2 + p**2, (0,)),
    }
    if name not in table:
        raise PreconditionError(f"unknown symbol {name!r} (have x, p, x2, p2, xp, x2p2, gauss)")
    return PhaseSpaceFunction(name, *table[name])


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


def _laguerre_rows(N: int, d: tuple[int, ...], t: np.ndarray):
    """Yield l_n^(d)(t) for n = 0 .. N-1 at t > 0; row n is a (k, t.size)
    array over the first k of the ascending orders d, those with n + d < N,
    the entries that still fit in the N x N matrix.

    The normalized three-term recurrence in n,
    l_{n+1} = [(2n+1+d-t) l_n - sqrt(n(n+d)) l_{n-1}] / sqrt((n+1)(n+1+d)),
    runs for every order at once from l_0^(d) = t^{d/2} e^{-t/2} / sqrt(d!),
    taken in log form so that no factor overflows at large t.
    """
    d = np.array(d, dtype=float)[:, None]
    log_fact = np.array([math.lgamma(m + 1.0) for m in d[:, 0]])[:, None]
    cur = np.exp(d / 2 * np.log(t) - t / 2 - log_fact / 2)
    prev = np.zeros_like(cur)
    for n in range(N):
        k = int(np.count_nonzero(n + d[:, 0] < N))
        cur, prev = cur[:k], prev[:k]
        yield cur
        dk = d[:k]
        nxt = (2 * n + 1 + dk) - t
        nxt *= cur
        nxt -= np.sqrt(n * (n + dk)) * prev
        nxt /= np.sqrt((n + 1) * (n + 1 + dk))
        cur, prev = nxt, cur


def _ring_sums(g: PhaseSpaceFunction, N: int, hbar: float) -> tuple[np.ndarray, float, np.ndarray]:
    """The distinct lattice radii R of g's kept quadrature nodes, the spacing
    h, and S_d(R) / (pi hbar) for the orders d of g's harmonics as a
    (len(g.harmonics), len(R)) array.

    With a = 2i + 1 and b = 2j + 1 the node (a, b) h / 2 has e^{-i phi} =
    (a - ib)/|a - ib|, so the phases come from repeated multiplication and,
    with the nodes sorted by R, the sums from np.add.reduceat, with no
    exponential per node.  g is evaluated on the disc's nodes only, not on
    the square around it.
    """
    k = 2 * math.sqrt((2 * N + 1) / hbar) + 12 / math.sqrt(hbar) + g.band
    h = 2 * math.pi / k
    L = min(math.sqrt((2 * N + 1) * hbar) + 5 * math.sqrt(hbar), g.support)
    K = math.ceil(L / h)
    a = np.arange(1 - 2 * K, 2 * K, 2)
    i, j = np.nonzero(a[:, None] ** 2 + a**2 <= (2 * L / h) ** 2)
    a, b = a[i], a[j]
    w = g.evaluate(a * (h / 2), b * (h / 2))
    keep = np.abs(w) > 1e-16 * np.abs(w).max()
    a, b, w = a[keep], b[keep], w[keep]
    order = np.argsort(a * a + b * b, kind="stable")
    a, b, w = a[order], b[order], w[order]
    R = a * a + b * b
    first = np.flatnonzero(np.diff(R, prepend=-1))  # where each radius starts
    z = a - 1j * b
    step = z / np.abs(z)  # e^{-i phi}; no node is at the origin
    wp = w * (h * h / (np.pi * hbar)) + 0j
    S = []
    for d in range(g.harmonics[-1] + 1):
        if d in g.harmonics:
            S.append(np.add.reduceat(wp, first))
        wp *= step
    return R[first], h, np.array(S)


def weyl_quantize(g: PhaseSpaceFunction, N: int, hbar: float = 1.0) -> np.ndarray:
    """Quantize one symbol by the phase-space midpoint rule against the
    closed-form W_{|n+d><n|}, summed per lattice radius (module docstring).

    Only the diagonals d of g's harmonics are filled, each entry by one
    numpy reduction over the radii, and the rows below the diagonal are the
    conjugates, so G is Hermitian bit for bit.  With no BLAS product, the
    bits do not depend on the BLAS thread count.
    """
    if N < 2:
        raise PreconditionError(f"truncation needs N >= 2, got {N}")
    if (math.sqrt(2 * N + 1) + 5) ** 2 > 708:  # the grid's t / 2: e^{-t/2} underflows past it
        raise PreconditionError(f"weyl_quantize needs N <= 232, got {N}: the Laguerre start underflows")
    rad, h, S = _ring_sums(g, N, hbar)
    t = h * h / (2 * hbar) * rad
    d = np.array(g.harmonics)
    U = np.zeros((N, N), dtype=complex)  # the upper triangle, U[n, n + d] = <n|G|n+d>
    for n, row in enumerate(_laguerre_rows(N, g.harmonics, t)):
        U[n, n + d[: len(row)]] = (-1) ** n * (row * S[: len(row)]).sum(axis=1)
    U[np.diag_indices(N)] /= 2  # so the diagonal of U + U^dag is exactly real
    return U + U.conj().T


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
    rhs = quadrature_2d(g.evaluate(MOYAL_GRID.gx.points[:, None], MOYAL_GRID.gp.points) * f.values, MOYAL_GRID)
    return lhs, rhs, abs(lhs - rhs)
