"""Closed forms the benchmark checks the program's outputs against.

Everything here uses numpy only and never imports quasiprob, so a check
compares the program with an independent computation.  Conventions match the
program at hbar = 1:

    psi_gauss(x) = (pi s^2)^(-1/4) exp(-(x-x0)^2/(2 s^2) + i p0 x)
    W(x, p)      = (1/2pi) integral conj(psi)(x + b/2) psi(x - b/2) e^(i b p) db
    chi(a, b)    = <exp(-i(a X + b P))>

A state is a tuple: ("hermite", n) or ("gaussian", x0, p0, s).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite as _H


def spec(state) -> str:
    """The program's state spec for a closed-form state."""
    if state[0] == "hermite":
        return f"hermite:{state[1]}"
    _, x0, p0, s = state
    return f"gaussian:{x0!r},{p0!r},{s!r}"


def hermite_function(n: int, x):
    """Orthonormal h_n(x) = H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi))."""
    x = np.asarray(x, dtype=float)
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return _H.hermval(x, coef) * np.exp(-(x**2) / 2.0) / norm


def laguerre(n: int, t):
    """Laguerre polynomial L_n(t) from its explicit sum."""
    t = np.asarray(t, dtype=float)
    return sum((-1) ** k * math.comb(n, k) * t**k / math.factorial(k) for k in range(n + 1))


def psi(state, x):
    """Wave function at x."""
    if state[0] == "hermite":
        return hermite_function(state[1], x) + 0j
    _, x0, p0, s = state
    x = np.asarray(x, dtype=float)
    return (math.pi * s * s) ** -0.25 * np.exp(-((x - x0) ** 2) / (2 * s * s) + 1j * p0 * x)


def wigner(state, x, p):
    """Wigner function: Laguerre form for Hermite levels, Gaussian otherwise."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if state[0] == "hermite":
        n = state[1]
        r2 = x**2 + p**2
        return (-1) ** n / math.pi * np.exp(-r2) * laguerre(n, 2 * r2)
    _, x0, p0, s = state
    return np.exp(-((x - x0) ** 2) / s**2 - s**2 * (p - p0) ** 2) / math.pi


def marginal(state, theta: float, z):
    """Density of cos(theta) X + sin(theta) P."""
    z = np.asarray(z, dtype=float)
    if state[0] == "hermite":
        return hermite_function(state[1], z) ** 2
    _, x0, p0, s = state
    mean = math.cos(theta) * x0 + math.sin(theta) * p0
    var = math.cos(theta) ** 2 * s * s / 2 + math.sin(theta) ** 2 / (2 * s * s)
    return np.exp(-((z - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def characteristic(state, a, b):
    """chi(a, b) = <exp(-i(a X + b P))>."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if state[0] == "hermite":
        r2 = a**2 + b**2
        return np.exp(-r2 / 4) * laguerre(state[1], r2 / 2) + 0j
    _, x0, p0, s = state
    return np.exp(-1j * (a * x0 + b * p0) - a**2 * s**2 / 4 - b**2 / (4 * s**2))


SYMBOLS = ("x", "p", "x2", "p2", "xp", "x2p2", "gauss")


def symbol_value(name: str, x, p):
    """The undamped phase-space symbol g(x, p); x2p2 is x^2 + p^2."""
    return {
        "x": lambda: x,
        "p": lambda: p,
        "x2": lambda: x**2,
        "p2": lambda: p**2,
        "xp": lambda: x * p,
        "x2p2": lambda: x**2 + p**2,
        "gauss": lambda: np.exp(-(x**2) - p**2),
    }[name]()


def expectation(name: str, state) -> float:
    """<g(X, P)> of the Weyl-ordered symbol g, i.e. the integral of g W."""
    if state[0] == "hermite":
        n = state[1]
        second = n + 0.5
        moments = {"x": 0.0, "p": 0.0, "x2": second, "p2": second, "xp": 0.0}
        # e^(-x^2-p^2) = pi W_0, so its average is pi <W_0, W_n> = |<0|n>|^2 / 2
        gauss = 0.5 if n == 0 else 0.0
    else:
        _, x0, p0, s = state
        x2, p2 = x0**2 + s * s / 2, p0**2 + 1 / (2 * s * s)
        moments = {"x": x0, "p": p0, "x2": x2, "p2": p2, "xp": x0 * p0}
        gauss = s / (1 + s * s) * math.exp(-(x0**2 + s * s * p0**2) / (1 + s * s))
    if name == "gauss":
        return gauss
    if name == "x2p2":
        return moments["x2"] + moments["p2"]
    return moments[name]


def tomography_bounds(state, ndirs: int, dzeta: float) -> tuple[float, float]:
    """Error bounds for reconstruction from ndirs equally spaced marginals.

    The reconstruction interpolates fhat = chi / 2pi linearly in angle
    (spacing pi/ndirs) and in radius (spacing dzeta, the dual of the marginals'
    z-grid).  The leading remainder of linear interpolation with spacing h is
    h^2/8 |f''|, so pointwise

        E(rho, theta) = (pi/ndirs)^2/8 |d2 fhat/dtheta2| + dzeta^2/8 |d2 fhat/drho2|.

    The transform is unitary, so the L2 error of the reconstructed W is the
    L2 norm of E over the plane.  A marginal is the inverse 1-D transform of
    sqrt(2pi) fhat along its ray, so its max-abs error is at most the
    integral of E along the worst ray.  Returns (l2 bound, max-abs bound).
    """
    rho = np.linspace(-14.0, 14.0, 1401)
    th = np.linspace(0.0, math.pi, 361)
    R, T = np.meshgrid(rho, th, indexing="ij")

    def fhat(r, t):
        return characteristic(state, r * np.cos(t), r * np.sin(t)) / (2 * math.pi)

    h = 1e-3
    f0 = fhat(R, T)
    d2t = (fhat(R, T + h) - 2 * f0 + fhat(R, T - h)) / h**2
    d2r = (fhat(R + h, T) - 2 * f0 + fhat(R - h, T)) / h**2
    E = (math.pi / ndirs) ** 2 / 8 * np.abs(d2t) + dzeta**2 / 8 * np.abs(d2r)
    dr, dth = rho[1] - rho[0], th[1] - th[0]
    # signed rho over theta in [0, pi) covers the plane once
    l2 = math.sqrt(float(np.sum(E**2 * np.abs(R))) * dr * dth)
    sup = float((E.sum(axis=0) * dr).max())
    return l2, sup
