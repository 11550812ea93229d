import numpy as np
import pytest

import _oracles as oracle
from quasiprob.numerics import PreconditionError
from quasiprob.states import FockExpansion, fock_expansion, gaussian_state, oscillator_eigenstate
from quasiprob.weyl import (
    PhaseSpaceFunction,
    _ring_sums,
    displacement,
    moyal_expectation_check,
    oscillator_matrices,
    symbol,
    weyl_quantize,
)

N = 48


def hermiticity_residual(M):
    return float(np.abs(M - M.conj().T).max())


def test_oscillator_matrices_commutator():
    X, P = oscillator_matrices(N)
    C = X @ P - P @ X
    # the canonical commutator holds away from the truncation corner
    assert np.max(np.abs(C[: N - 1, : N - 1] - 1j * np.eye(N - 1))) < 1e-12
    assert hermiticity_residual(X) < 1e-15
    assert hermiticity_residual(P) < 1e-15


def test_oscillator_matrices_hbar():
    X, P = oscillator_matrices(N, hbar=2.0)
    C = (X @ P - P @ X)[: N - 1, : N - 1]
    assert np.max(np.abs(C - 2j * np.eye(N - 1))) < 1e-12


def test_quantize_x_is_position_matrix():
    # X is tridiagonal, so its N x N block is the compression: no edge error
    X, _ = oscillator_matrices(N)
    M = weyl_quantize(symbol("x"), N)
    assert np.max(np.abs(M - X)) < 1e-13
    assert hermiticity_residual(M) == 0.0


def test_quantize_x2_matches_squared_matrix():
    # the product built one state larger reaches no truncated entry
    X, _ = oscillator_matrices(N + 1)
    M = weyl_quantize(symbol("x2"), N)
    assert np.max(np.abs(M - (X @ X)[:N, :N])) < 1e-12


def test_quantize_xp_is_symmetrized_product():
    X, P = oscillator_matrices(N + 1)
    M = weyl_quantize(symbol("xp"), N)
    sym = (X @ P + P @ X) / 2.0
    assert np.max(np.abs(M - sym[:N, :N])) < 1e-12


def test_quantize_gauss_is_ground_projector():
    # e^{-x^2-p^2} maps to (1/2)|0><0|, and the compression of that operator
    # is exact up to the basis edge
    M = weyl_quantize(symbol("gauss"), N)
    e0 = np.zeros(N)
    e0[0] = 1.0
    ref = 0.5 * np.outer(e0, e0)
    assert abs(complex(M[0, 0]) - 0.5) < 1e-15
    assert np.max(np.abs(M - ref)) < 1e-14


@pytest.mark.parametrize("name,hbar", [("gauss", 1.0), ("xp", 0.5)])
def test_quantize_matches_direct_displaced_parity_sum(name, hbar):
    # the full matrix against the midpoint rule summed node by node, with
    # W_{|n><m|}(x, p) = (1/pi hbar) <m| T Pi T^dag |n> = (1/pi hbar) (-1)^n
    # <m| T(2x, 2p) |n> for the displacement T(x, p) = e^{i(pX - xP)/hbar}
    # and the parity Pi: no Laguerre row, lattice radius or phase recurrence
    g, n = symbol(name), 8
    k = 2 * np.sqrt((2 * n + 1) / hbar) + 12 / np.sqrt(hbar) + g.band
    h = 2 * np.pi / k
    L = min(np.sqrt((2 * n + 1) * hbar) + 5 * np.sqrt(hbar), g.support)
    u = (np.arange(-np.ceil(L / h), np.ceil(L / h)) + 0.5) * h
    X, P = np.meshgrid(u, u, indexing="ij")
    disc = X**2 + P**2 <= L * L
    x, p = X[disc], P[disc]
    w = g.evaluate(x, p)
    keep = np.abs(w) > 1e-16 * np.abs(w).max()
    parity = (-1.0) ** np.arange(n)
    ref = sum(
        wi * h * h * displacement(2 * pi / hbar, -2 * xi / hbar, n, hbar)
        for xi, pi, wi in zip(x[keep], p[keep], w[keep])
    ) * parity / (np.pi * hbar)
    assert np.max(np.abs(weyl_quantize(g, n, hbar) - ref)) < 1e-13


SYMBOLS = ("x", "p", "x2", "p2", "xp", "x2p2", "gauss")


def exact_compression(name, n, hbar):
    """Top-left n x n block of the symbol's Weyl operator: the closed-form
    diagonal for gauss, the same polynomial in X and P built at n + 4 (so
    that no product reaches the truncated corner) for the others."""
    if name == "gauss":
        return np.diag(oracle.gauss_weyl_diagonal(hbar, n))
    X, P = oscillator_matrices(n + 4, hbar)
    ops = {"x": X, "p": P, "x2": X @ X, "p2": P @ P, "xp": (X @ P + P @ X) / 2, "x2p2": X @ X + P @ P}
    return ops[name][:n, :n]


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 20, 33, 64])
@pytest.mark.parametrize("name", SYMBOLS)
def test_quantize_is_bitwise_the_dense_formula(name, n, hbar):
    # bitwise Hermitian, and over the whole matrix the dense exact
    # compression to rounding; n = 2 has a single off-diagonal, and 33 is odd
    M = weyl_quantize(symbol(name), n, hbar)
    assert np.array_equal(M, M.conj().T)
    tol = 1e-14 if name == "gauss" else 1e-12
    assert np.max(np.abs(M - exact_compression(name, n, hbar))) < tol


@pytest.mark.parametrize("name,disc,nodes,radii", [("gauss", 4556, 3980, 361), ("xp", 6376, 6376, 560)])
def test_quantize_exponential_count(monkeypatch, name, disc, nodes, radii):
    # at n = 20, hbar = 1: g is evaluated on the disc's nodes only, gauss
    # keeps those inside its support, and the kept nodes group into lattice
    # radii; np.exp runs on g and on one Laguerre start per (d, radius),
    # never on a complex argument
    g, n = symbol(name), 20
    rad, _, S = _ring_sums(g, n, 1.0)
    assert rad.size == radii
    assert S.shape == (n, radii)
    exp, argsort = np.exp, np.argsort
    count = {"real": 0, "complex": 0}
    sorted_sizes = []

    def counting_exp(x, *args, **kwargs):
        count["complex" if np.iscomplexobj(x) else "real"] += np.size(x)
        return exp(x, *args, **kwargs)

    def counting_argsort(x, *args, **kwargs):
        sorted_sizes.append(np.size(x))
        return argsort(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(np, "argsort", counting_argsort)
    weyl_quantize(g, n)
    assert sorted_sizes == [nodes]  # the kept nodes, sorted by radius
    assert count == {"real": (disc if name == "gauss" else 0) + n * radii, "complex": 0}


@pytest.mark.parametrize("hbar", [1e-6, 1e6])
@pytest.mark.parametrize("name", ["gauss", "x2p2"])
def test_quantize_is_finite_at_extreme_hbar(name, hbar):
    # t = hbar r^2 / 2 spans ~1e-11 .. 1e8 here; the log-form Laguerre start
    # neither overflows nor warns (RuntimeWarning is an error in this suite),
    # including 0 * log 0 at the origin node
    assert np.isfinite(weyl_quantize(symbol(name), 20, hbar)).all()


def test_quantize_zero_symbol_is_zero_matrix():
    # every node is pruned, so the chunk loop never runs
    assert not weyl_quantize(PhaseSpaceFunction("zero", lambda x, p: 0.0 * x), 5).any()


def test_quantize_rejects_n_where_the_laguerre_start_underflows():
    # the grid's largest t is 2 (sqrt(2N+1) + 5)^2, past 1416 from N = 233 on
    assert weyl_quantize(symbol("gauss"), 232)[0, 0] == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(PreconditionError, match="N <= 232"):
        weyl_quantize(symbol("x2p2"), 233)

@pytest.mark.parametrize("hbar", [0.5, 2.0])
def test_quantize_gauss_closed_form_at_hbar(hbar):
    # e^{-x^2-p^2} maps to (1/(1+hbar)) sum_n ((1-hbar)/(1+hbar))^n |n><n|;
    # a power of hbar wrong in t = hbar r^2 / 2 misses it by > 0.1
    M = weyl_quantize(symbol("gauss"), 64, hbar)
    ref = np.diag(oracle.gauss_weyl_diagonal(hbar, 8))
    assert np.max(np.abs(M[:8, :8] - ref)) < 1e-10

def test_trace_identity():
    # Tr W[g] = (1/2 pi hbar) integral g; at hbar = 1 this symbol's operator
    # is (1/2)|0><0|, so every leading block carries the whole trace
    g = symbol("gauss")
    M = weyl_quantize(g, N)
    area = np.pi  # integral of e^{-x^2-p^2}
    assert complex(np.trace(M[:12, :12])).real == pytest.approx(area / (2 * np.pi), abs=1e-14)
    assert complex(np.trace(M)).real == pytest.approx(area / (2 * np.pi), abs=1e-14)


def test_displacement_ground_expectation():
    # <0| e^{-i(X+P)} |0> = e^{-1/2}
    D = displacement(-1.0, -1.0, 64)
    assert abs(complex(D[0, 0]) - oracle.DISPLACEMENT_GROUND) < 1e-10


def test_displacement_is_unitary_inside():
    D = displacement(0.7, -1.3, 64)
    G = (D.conj().T @ D)[:32, :32]
    assert np.max(np.abs(G - np.eye(32))) < 1e-8


@pytest.mark.parametrize(
    "alpha,beta,hbar,n",
    [(-1.0, -1.0, 1.0, 64), (0.7, -1.3, 1.0, 32), (2.0, 0.5, 0.5, 48), (-0.3, 1.7, 2.0, 40)],
)
def test_displacement_matches_scipy_expm(alpha, beta, hbar, n):
    # scipy's Pade exponential of the generator truncated at n + 40 is the
    # compression of the true operator to rounding on its top-left n x n block
    from scipy.linalg import expm

    X, P = oscillator_matrices(n + 40, hbar)
    ref = expm(1j * (alpha * X + beta * P))[:n, :n]
    assert np.max(np.abs(displacement(alpha, beta, n, hbar) - ref)) < 1e-12


def test_fock_coefficients_of_coherent():
    # |<n|coh>|^2 is Poisson with mean (x0^2+p0^2)/2
    psi = gaussian_state(1.0, 0.5, 1.0)
    c = fock_expansion(psi).c
    mean = (1.0**2 + 0.5**2) / 2.0
    probs = np.abs(c) ** 2
    n = np.arange(c.size)
    from math import factorial

    ref = np.exp(-mean) * mean**n / np.array([factorial(k) for k in n])
    assert np.max(np.abs(probs - ref)) < 1e-12


def test_fock_coefficients_of_eigenstate():
    psi = oscillator_eigenstate(3)
    c = fock_expansion(psi).c
    ref = np.zeros(c.size)
    ref[3] = 1.0
    assert np.max(np.abs(np.abs(c) ** 2 - ref)) < 1e-12


def test_moyal_check_gauss_ground(ground):
    g = symbol("gauss")
    lhs, rhs, diff = moyal_expectation_check(g, ground, fock_expansion(ground), weyl_quantize(g, N))
    assert rhs == pytest.approx(oracle.MOYAL_GAUSS_GROUND, abs=1e-9)
    assert diff < 1e-5


def test_moyal_check_xp_ground(ground):
    g = symbol("xp")
    lhs, rhs, diff = moyal_expectation_check(g, ground, fock_expansion(ground), weyl_quantize(g, N))
    assert abs(rhs) < 1e-9
    assert diff < 1e-6


def test_moyal_check_rejects_fock_tail():
    # hermite:20 has no weight below N=16; the tail check fires before G is used
    psi = oscillator_eigenstate(20)
    with pytest.raises(PreconditionError, match="tail"):
        moyal_expectation_check(symbol("x"), psi, fock_expansion(psi), np.zeros((16, 16)))


def test_moyal_check_measures_the_tail_it_rejects(coherent23):
    # coherent(2, 3) has Poisson weights of mean 6.5; the check sums the
    # coefficients from N = 20 on, not 1 minus those below
    mean = 6.5
    term = np.exp(-mean) * mean**20 / np.prod(np.arange(1.0, 21.0))
    poisson_tail = 0.0
    for n in range(20, 200):
        poisson_tail += term
        term *= mean / (n + 1)
    fock = fock_expansion(coherent23)
    assert float(np.sum(np.abs(fock.c[20:]) ** 2)) == pytest.approx(poisson_tail, rel=1e-12)
    with pytest.raises(PreconditionError, match=r"beyond N=20 is 1\.61e-05"):
        moyal_expectation_check(symbol("x"), coherent23, fock, np.zeros((20, 20)))


def test_moyal_check_pads_a_short_expansion(ground):
    # hermite:0 needs 64 coefficients; an 80 x 80 matrix sees zeros past them
    fock = fock_expansion(ground)
    assert fock.c.size == 64
    rng = np.random.default_rng(3)
    A = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    G = A + A.conj().T
    g = symbol("x")
    lhs, _, _ = moyal_expectation_check(g, ground, fock, G)
    assert lhs == moyal_expectation_check(g, ground, fock, G[:64, :64])[0]


def test_moyal_check_fails_closed_on_nan_coefficients(ground):
    fock = FockExpansion(np.full(64, np.nan + 0j), 1.0)
    with pytest.raises(PreconditionError, match="tail"):
        moyal_expectation_check(symbol("x"), ground, fock, np.zeros((16, 16)))


def test_unknown_symbol_rejected():
    with pytest.raises(PreconditionError):
        symbol("x3")


def test_bad_dimension_rejected():
    with pytest.raises(PreconditionError):
        weyl_quantize(symbol("x"), 0)
