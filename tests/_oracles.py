"""Frozen reference values used across the test suite.

Each constant carries its derivation so a reviewer can recompute it by
hand (or with a few lines of sympy) without trusting the library code.
"""

import math

import numpy as np

# Ground-state Wigner function: for psi0(x) = pi^{-1/4} e^{-x^2/2} the
# transform evaluates to (1/pi) e^{-x^2-p^2}; its value at the origin.
W0_AT_ORIGIN = 1.0 / np.pi

# First excited state: W1(x,p) = (1/pi)(2(x^2+p^2) - 1) e^{-(x^2+p^2)}.
W1_AT_ORIGIN = -1.0 / np.pi

# Negative volume of W1. In polar coordinates the negative part is
# (1/pi)(2r^2-1)e^{-r^2} on r < 1/sqrt(2); integrating 2*pi*r dr gives
# -(2 e^{-1/2} - 1).
W1_NEGATIVE_VOLUME = 2.0 * np.exp(-0.5) - 1.0

# The Riemann sum of the negative part on [-6,6]^2 at 256^2 lands close
# to but not exactly on the analytic value; tests allow this gap.
W1_NEGATIVE_VOLUME_GRID_TOL = 5e-5

# Characteristic function of a coherent state at (x0, p0), width sqrt(hbar):
# <e^{-i(aX+bP)}> = e^{-i(a x0 + b p0)} e^{-hbar(a^2+b^2)/4}.
def coherent_cf(alpha, beta, x0=0.0, p0=0.0, hbar=1.0):
    return np.exp(-1j * (alpha * x0 + beta * p0)) * np.exp(-hbar * (alpha**2 + beta**2) / 4.0)


# Marginal of the ground state along any unit direction (a,b): z = a x + b p
# is Gaussian with variance 1/2, density e^{-z^2}/sqrt(pi).
def ground_marginal(z):
    return np.exp(-(z**2)) / np.sqrt(np.pi)


# Along the non-unit direction (2,0): z = 2x has density
# |psi0(z/2)|^2 / 2 = e^{-z^2/4} / (2 sqrt(pi)).
def ground_marginal_d20(z):
    return np.exp(-(z**2) / 4.0) / (2.0 * np.sqrt(np.pi))


# First excited state along any unit direction: the state is rotation
# invariant in phase space, density 2 z^2 e^{-z^2} / sqrt(pi).
def excited_marginal(z):
    return 2.0 * z**2 * np.exp(-(z**2)) / np.sqrt(np.pi)


# Rectangle tamper: adding c * 1_{|x|<=w, |p|<=h} leaves the axis marginals
# alone only after the matching subtraction; along the diagonal
# (1,1)/sqrt(2) the added box contributes a bump whose peak is
# c * sqrt(2) * min(w, h) * 2 at z = 0 (chord length of the square's
# diagonal section).  For w = h = 1.5, c = 0.05 the peak residual is
# 3 c sqrt(2).
RECT_DIAGONAL_PEAK = 3.0 * 0.05 * np.sqrt(2.0)

# Smooth tamper c * x p e^{-x^2-p^2}: both axis marginals vanish by odd
# symmetry.  Along (1,1)/sqrt(2), substituting u=(x+p)/sqrt(2) and
# integrating out v gives c * (sqrt(pi)/2)(u^2 - 1/2) e^{-u^2}; the peak
# absolute value sits at u = 0, so the residual is c * sqrt(pi)/4.
SMOOTH_DIAGONAL_PEAK = 0.1 * np.sqrt(np.pi) / 4.0

# Moyal pairing of the Gaussian symbol e^{-x^2-p^2}.  Its Weyl operator is
# (1/2)|0><0|, so the expectation in the oscillator ground state is 1/2,
# zero in the first excited state, and for a coherent state at (2,3) it is
# (1/2)|<0|coh>|^2 = (1/2) e^{-(x0^2+p0^2)/2} = (1/2) e^{-13/2}.
MOYAL_GAUSS_GROUND = 0.5
MOYAL_GAUSS_EXCITED = 0.0
MOYAL_GAUSS_COHERENT = 0.5 * np.exp(-6.5)

# Quantum expectations for the Moyal table, from <X>=x0, <P>=p0,
# Var X = Var P = 1/2 in a unit-width coherent state, and
# <XP+PX>/2 = x0 p0; the Hermite states have <x^2> = <p^2> = n + 1/2.
MOYAL_RHS = {
    ("x", "ground"): 0.0,
    ("p", "ground"): 0.0,
    ("x2", "ground"): 0.5,
    ("p2", "ground"): 0.5,
    ("xp", "ground"): 0.0,
    ("gauss", "ground"): MOYAL_GAUSS_GROUND,
    ("x", "excited"): 0.0,
    ("p", "excited"): 0.0,
    ("x2", "excited"): 1.5,
    ("p2", "excited"): 1.5,
    ("xp", "excited"): 0.0,
    ("gauss", "excited"): MOYAL_GAUSS_EXCITED,
    ("x", "coherent(2,3)"): 2.0,
    ("p", "coherent(2,3)"): 3.0,
    ("x2", "coherent(2,3)"): 4.5,
    ("p2", "coherent(2,3)"): 9.5,
    ("xp", "coherent(2,3)"): 6.0,
    ("gauss", "coherent(2,3)"): MOYAL_GAUSS_COHERENT,
}

# <psi0| e^{-i(X+P)} |psi0> = CF(1,1) = e^{-(1+1)/4} = e^{-1/2}.
DISPLACEMENT_GROUND = np.exp(-0.5)

# Spin family at t = 0 for the diagonal pure state with
# <Z> = <X> = 1/sqrt(2): f-- = (1 + t - Z - X)/4 = (1 - sqrt(2))/4.
SPIN_DIAG_FMM = (1.0 - np.sqrt(2.0)) / 4.0

# Window endpoints for the same state: lower bounds are -1-Z-X and
# -1+Z+X, upper bounds 1+Z-X and 1-Z+X, giving (sqrt(2)-1, 1).
SPIN_DIAG_WINDOW = (np.sqrt(2.0) - 1.0, 1.0)

# Eigenvalues of sigma_z + sigma_x are +/- sqrt(2); the quasi-values of
# the distribution treat the pair (s_z, s_x) as independent signs, so the
# observable z+x takes values 2, 0, -2 instead.
ZX_EIGENVALUES = (-np.sqrt(2.0), np.sqrt(2.0))
ZX_QUASI_VALUES = (2.0, 0.0, -2.0)

# Hand-picked four-outcome assignment: negatives sum to -0.1.
DISCRETE_NEGATIVE_VOLUME = 0.1


# Momentum operator on samples of a decayed wave function:
# (P psi)(x) = -i hbar psi'(x), the derivative taken spectrally with numpy's
# own DFT (multiply by the angular frequency k, since -i d/dx e^{ikx} = k e^{ikx}).
def apply_P(values, dx, hbar=1.0):
    k = 2.0 * np.pi * np.fft.fftfreq(len(values), dx)
    return hbar * np.fft.ifft(k * np.fft.fft(values))


# The Whittaker series sum_m v[m] sinc(u - m) of unit-spaced samples, term by
# term at each point of the broadcast shape of u and v[0], with the sum of
# |sinc(u - m) v[m]| that scales its rounding.  Each weight is
# (-1)^(k-m) sin(pi (u - k)) / (pi (u - m)) with k = rint(u), 1 at u == m:
# the reduced sine stays exact far from the origin, where numpy's np.sinc,
# which takes sin(pi (u - m)) whole, is off by up to 1.6e-13 relative.
# The products are added by math.fsum.
def sinc_sum(u, v):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape[1:])
    ub = np.broadcast_to(u, shape)
    vb = np.broadcast_to(v.reshape(v.shape[:1] + (1,) * (len(shape) + 1 - v.ndim) + v.shape[1:]), v.shape[:1] + shape)
    total, scale = np.empty(shape), np.empty(shape)
    for i in np.ndindex(shape):
        x = float(ub[i])
        k = round(x)
        s = math.sin(math.pi * (x - k)) / math.pi
        terms = [
            float(vb[(m,) + i]) * (1.0 if x == m else (-1) ** ((k - m) % 2) * s / (x - m))
            for m in range(len(v))
        ]
        total[i], scale[i] = math.fsum(terms), math.fsum(map(abs, terms))
    return total, scale


# psi at points x from samples v on the lattice x0 + m dx, by Whittaker
# interpolation sum_m v_m sinc((x - x_m)/dx) in physical units.
def whittaker(x, x0, dx, v):
    xm = x0 + dx * np.arange(len(v))
    return np.sinc((np.asarray(x, dtype=float)[..., None] - xm) / dx) @ v


# Line-integral marginal of f[k, m] (lattices x_k, p_m) along a x + b p = z
# for |b| >= |a|: f interpolated in p at p* = (z - a x)/b by np.sinc, then
# the trapezoid rule over x, times the density factor 1/|b|.
def line_marginal(values, x, dx, p, dp, a, b, z):
    pstar = (np.asarray(z)[:, None] - a * x[None, :]) / b
    w = np.sinc((pstar[:, :, None] - p[None, None, :]) / dp)
    rows = np.einsum("km,jkm->jk", values, w)
    return np.trapezoid(rows, dx=dx, axis=1) / abs(b)


# wigner.csv and wigner_matrix.txt as two passes wrote them: write_csv's row
# join formats x, p and f for every row, and the matrix dump formats every
# value of f again, one row per line.
def wigner_csv_text(x, p, values):
    cols = [np.atleast_2d(c) for c in np.broadcast_arrays(np.asarray(x)[:, None], p, values)]
    rows = (row for block in zip(*cols) for row in zip(*(b.ravel().tolist() for b in block)))
    return "x,p,f\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def matrix_txt_text(values):
    return "".join(" ".join(map(repr, row.tolist())) + "\n" for row in np.atleast_2d(np.asarray(values, dtype=float)))


# Weyl operator of e^{-x^2-p^2} at any hbar.  The operator l^{a^dag a} has
# Weyl symbol (2/(1+l)) e^{-((1-l)/(1+l)) (x^2+p^2)/hbar}; the exponent is
# -(x^2+p^2) at l = (1-hbar)/(1+hbar), where 2/(1+l) = 1+hbar.  So the
# operator is diagonal with entries l^n/(1+hbar): (1/2)|0><0| at hbar = 1.
def gauss_weyl_diagonal(hbar, n):
    return ((1.0 - hbar) / (1.0 + hbar)) ** np.arange(n) / (1.0 + hbar)
