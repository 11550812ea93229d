import numpy as np
import pytest

import _oracles as oracle
from quasiprob.numerics import PreconditionError, square_grid
from quasiprob.states import FockExpansion, fock_expansion, gaussian_state, oscillator_eigenstate
from quasiprob.weyl import (
    CHUNK,
    PRUNE,
    PhaseSpaceFunction,
    displacement,
    interior_block,
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
    inner = interior_block(C)
    assert np.max(np.abs(inner - 1j * np.eye(N // 2))) < 1e-12
    assert hermiticity_residual(X) < 1e-15
    assert hermiticity_residual(P) < 1e-15


def test_oscillator_matrices_hbar():
    X, P = oscillator_matrices(N, hbar=2.0)
    C = interior_block(X @ P - P @ X)
    assert np.max(np.abs(C - 2j * np.eye(N // 2))) < 1e-12


def test_quantize_x_is_position_matrix():
    X, _ = oscillator_matrices(N)
    M = weyl_quantize(symbol("x"), N)
    assert np.max(np.abs(interior_block(M) - interior_block(X))) < 1e-6
    assert hermiticity_residual(M) < 1e-10


def test_quantize_x2_matches_squared_matrix():
    X, _ = oscillator_matrices(N)
    M = weyl_quantize(symbol("x2"), N)
    assert np.max(np.abs(interior_block(M) - interior_block(X @ X))) < 1e-6


def test_quantize_xp_is_symmetrized_product():
    X, P = oscillator_matrices(N)
    M = weyl_quantize(symbol("xp"), N)
    sym = (X @ P + P @ X) / 2.0
    assert np.max(np.abs(interior_block(M) - interior_block(sym))) < 1e-6


def test_quantize_gauss_is_ground_projector():
    # e^{-x^2-p^2} maps to (1/2)|0><0|; the identity is near machine
    # precision on low-index blocks and degrades toward the truncation
    # corner, which is why comparisons stay on interior blocks
    M = weyl_quantize(symbol("gauss"), N)
    e0 = np.zeros(N)
    e0[0] = 1.0
    ref = 0.5 * np.outer(e0, e0)
    assert abs(complex(M[0, 0]) - 0.5) < 1e-12
    assert np.max(np.abs(M[:12, :12] - ref[:12, :12])) < 1e-9


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_quantize_matches_direct_displacement_sum(hbar):
    # the full matrix, truncation corner included, against the quadrature
    # summed node by node with displacement exponentiating aX+bP directly
    gauss = symbol("gauss")
    g = PhaseSpaceFunction("gauss", gauss.evaluate, gauss.transform, square_grid(-8.0, 8.0, 64))
    n = 12
    dual = g.quad_grid.dual()
    A, B = dual.meshgrid()
    gh = g.transform(A, B)
    keep = np.abs(gh) > PRUNE * np.abs(gh).max()
    assert keep.sum() == 2801
    cell = dual.gx.spacing * dual.gp.spacing / (2 * np.pi)
    ref = sum(
        w * cell * displacement(a, b, n, hbar, check=False)
        for a, b, w in zip(A[keep], B[keep], gh[keep])
    )
    assert np.max(np.abs(weyl_quantize(g, n, hbar=hbar) - ref)) < 1e-13


SYMBOLS = ("x", "p", "x2", "p2", "xp", "x2p2", "gauss")


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 20, 33])
@pytest.mark.parametrize("name", SYMBOLS)
def test_quantize_is_bitwise_the_dense_formula(name, n, hbar):
    # the conjugated d < 0 rows of the left factor change no bit of the
    # result; n = 2 has a single row d = 1, and 33 is odd
    g = symbol(name)
    a = weyl_quantize(g, n, hbar)
    b = oracle.weyl_quantize_dense(g, n, hbar, PRUNE, CHUNK)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_quantize_exponential_count(monkeypatch):
    # per node: N-1 exponentials for e^{i d phi}, d = 1 .. N-1, and N for
    # e^{i r lam}; the rows d <= 0 are never exponentiated
    g = symbol("gauss")
    dual = g.quad_grid.dual()
    gh = g.transform(*dual.meshgrid())
    nodes = int(np.count_nonzero(np.abs(gh) > PRUNE * np.abs(gh).max()))
    assert nodes == 25289
    exp = np.exp
    count = 0

    def counting_exp(x, *args, **kwargs):
        nonlocal count
        if np.iscomplexobj(x):
            count += np.size(x)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    n = 20
    weyl_quantize(g, n)
    assert count == (2 * n - 1) * nodes == 986_271



def test_quantize_zero_symbol_is_zero_matrix():
    # every node is pruned, so the chunk loop never runs
    g = PhaseSpaceFunction("zero", lambda x, p: 0.0 * x, lambda a, b: 0.0 * a, square_grid(-8.0, 8.0, 64))
    assert not weyl_quantize(g, 5).any()

@pytest.mark.parametrize("hbar", [0.5, 2.0])
def test_quantize_gauss_closed_form_at_hbar(hbar):
    # e^{-x^2-p^2} maps to (1/(1+hbar)) sum_n ((1-hbar)/(1+hbar))^n |n><n|;
    # a power of hbar wrong in oscillator_matrices misses it by > 0.1
    M = weyl_quantize(symbol("gauss"), 64, hbar)
    ref = np.diag(oracle.gauss_weyl_diagonal(hbar, 8))
    assert np.max(np.abs(M[:8, :8] - ref)) < 1e-10

def test_trace_identity():
    # Tr W[g] = (1/2 pi hbar) integral g; the partial trace over the
    # lowest modes carries the whole answer for this symbol, and the
    # interior trace picks up only truncation-corner noise beyond it
    g = symbol("gauss")
    M = weyl_quantize(g, N)
    area = np.pi  # integral of e^{-x^2-p^2}
    assert complex(np.trace(M[:12, :12])).real == pytest.approx(area / (2 * np.pi), abs=1e-9)
    assert complex(np.trace(interior_block(M))).real == pytest.approx(area / (2 * np.pi), abs=1e-4)


def test_displacement_ground_expectation():
    # <0| e^{-i(X+P)} |0> = e^{-1/2}
    D = displacement(-1.0, -1.0, 64)
    assert abs(complex(D[0, 0]) - oracle.DISPLACEMENT_GROUND) < 1e-10


def test_displacement_is_unitary_inside():
    D = displacement(0.7, -1.3, 64)
    G = interior_block(D.conj().T @ D)
    assert np.max(np.abs(G - np.eye(32))) < 1e-8


@pytest.mark.parametrize(
    "alpha,beta,hbar,n",
    [(-1.0, -1.0, 1.0, 64), (0.7, -1.3, 1.0, 32), (2.0, 0.5, 0.5, 48), (-0.3, 1.7, 2.0, 40)],
)
def test_displacement_matches_scipy_expm(alpha, beta, hbar, n):
    # scipy's Pade exponential is the reference for the eigendecomposition route
    from scipy.linalg import expm

    X, P = oscillator_matrices(n, hbar)
    ref = expm(1j * (alpha * X + beta * P))
    assert np.max(np.abs(displacement(alpha, beta, n, hbar, check=False) - ref)) < 1e-12


def test_displacement_split_check_runs():
    # the cross-check against the ordered-product construction is on by
    # default and must not trip for moderate arguments
    displacement(1.0, 1.0, 64, check=True)


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
