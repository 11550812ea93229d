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

Each quadrature node needs e^{i(aX+bP)}.  In polar form (a, b) =
r (cos phi, sin phi) the truncated pair satisfies the exact rotation identity
cos(phi) X + sin(phi) P = U_phi X U_phi^dag with U_phi = diag(e^{i k phi}),
so a single eigendecomposition X = V diag(lam) V^T serves every node:
e^{i(aX+bP)} = U_phi V e^{i r lam} V^T U_phi^dag.  Summed over the nodes this
is the displacement-sum identity G_jk = sum_l V_jl V_kl M[j-k, l], where
M[d, l] = sum_nodes w e^{i d phi} e^{i r lam_l} is a single matrix product.
The rows d < 0 of e^{i d phi} are the conjugates of the rows d > 0 and the
row d = 0 is 1, so a node costs 2N-1 complex exponentials: N-1 for
e^{i d phi}, d = 1 .. N-1, and N for e^{i r lam}.
"""

from __future__ import annotations

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

#: Quadrature nodes per matrix-product chunk in weyl_quantize.
CHUNK = 512

#: Largest interior residual the split cross-check in displacement accepts.
DISPLACEMENT_TOL = 1e-6

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


def _expi(H: np.ndarray) -> np.ndarray:
    """e^{iH} for Hermitian H, from its eigendecomposition H = V diag(lam) V^dag."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(1j * lam)) @ V.conj().T


def displacement(alpha: float, beta: float, N: int, hbar: float = 1.0, check: bool = True) -> np.ndarray:
    """e^{i(alpha X + beta P)} as an N x N matrix, exponentiated in the
    eigenbasis of the Hermitian generator alpha X + beta P.

    Cross-checked against the scalar-commutator split
    e^{i alpha X} e^{i beta P} e^{+i alpha beta hbar/2} on the interior block
    (indices < N/2), where the two routes differ only by truncation leakage;
    a residual above DISPLACEMENT_TOL means N is too small for this (alpha, beta).
    """
    X, P = oscillator_matrices(N, hbar)
    D = _expi(alpha * X + beta * P)
    if check:
        split = _expi(alpha * X) @ _expi(beta * P) * np.exp(1j * alpha * beta * hbar / 2)
        h = N // 2
        resid = float(np.abs((D - split)[:h, :h]).max())
        if resid > DISPLACEMENT_TOL:
            raise PreconditionError(
                f"displacement({alpha}, {beta}): interior cross-check residual "
                f"{resid:.2e} above {DISPLACEMENT_TOL:.0e}; increase N"
            )
    return D


def weyl_quantize(g: PhaseSpaceFunction, N: int, hbar: float = 1.0) -> np.ndarray:
    """Quantize one symbol on its quadrature grid by the displacement-sum identity.

    Nodes of the dual lattice with |ghat| below PRUNE * max|ghat| are dropped.
    With X = V diag(lam) V^T, node (r, phi) of weight w contributes
    w e^{i(j-k) phi} sum_l V_jl V_kl e^{i r lam_l} to entry (j, k), so
    G_jk = sum_l V_jl V_kl M[j-k, l] with M = (e^{i d phi} w) @ e^{i r lam},
    one (2N-1) x nodes by nodes x N product accumulated CHUNK nodes at a time.
    Each chunk exponentiates only the rows d = 1 .. N-1 of the left factor
    and fills d < 0 by conjugation, 2N-1 exponentials per node in all.
    Results are bit-reproducible for a fixed BLAS build and thread count.
    """
    dual = g.quad_grid.dual()
    A, B = dual.meshgrid()
    gh = g.transform(A, B)
    mags = np.abs(gh)
    peak = mags.max()
    edge = max(mags[0].max(), mags[-1].max(), mags[:, 0].max(), mags[:, -1].max())
    if peak > 0 and edge > 1e-10 * peak:
        warnings.warn(
            f"weyl_quantize[{g.label}]: ghat not decayed on the dual window "
            f"(edge/max = {edge / peak:.2e}); enlarge the grid",
            stacklevel=2,
        )
    keep = mags > PRUNE * peak
    w = gh[keep] * (dual.gx.spacing * dual.gp.spacing / (2 * np.pi))
    r = np.hypot(A[keep], B[keep])
    phi = np.arctan2(B[keep], A[keep])

    Xm, _ = oscillator_matrices(N, hbar)
    lam, V = np.linalg.eigh(Xm.real)
    d = np.arange(1, N)
    M = np.zeros((2 * N - 1, N), dtype=complex)
    left = np.empty((2 * N - 1, CHUNK), dtype=complex)
    for i0 in range(0, r.size, CHUNK):
        c = slice(i0, i0 + CHUNK)
        L = left[:, : phi[c].size]
        np.exp(1j * np.outer(d, phi[c]), out=L[N:])  # rows d = 1 .. N-1
        np.conjugate(L[: N - 1 : -1], out=L[: N - 1])  # rows d = 1-N .. -1
        L[N - 1] = 1.0  # row d = 0
        L *= w[c]
        M += L @ np.exp(1j * np.outer(r[c], lam))
    L = left = None  # release the buffer before the N^3 gather below sets the peak
    k = np.arange(N)
    return np.einsum("jl,kl,jkl->jk", V, V, M[k[:, None] - k + N - 1])


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
