"""Feynman's quasi-probability family for a spin-1/2 system.

Four joint "probabilities" f_{s_z s_x} over the signs of Z and X are pinned
down by the four marginal equations

    f_++ + f_+- = (1 + <Z>)/2      f_++ + f_-+ = (1 + <X>)/2
    f_-+ + f_-- = (1 - <Z>)/2      f_+- + f_-- = (1 - <X>)/2

only three of which are independent, leaving a one-parameter solution family
in t.  Feynman's choice is t = <Y>.  The components can be negative; the
window of t values making all four nonnegative is a nonempty closed interval
for every admissible pair of expectations.

Spins are in units of hbar/2 throughout, so the Pauli matrices themselves are
the measured observables and all eigenvalues are +-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import PreconditionError

#: Tolerance for the normalization and marginal-identity invariants.
ATOL = 1e-12


def pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Pauli matrices (X, Y, Z), each Hermitian with eigenvalues +-1."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return X, Y, Z


@dataclass(frozen=True)
class SpinState:
    """Pure spin-1/2 state with amplitudes (c0, c1) on the Z basis."""

    c0: complex
    c1: complex

    def __post_init__(self):
        norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if not (abs(norm - 1.0) <= ATOL):
            raise PreconditionError(f"spin state has |c0|^2+|c1|^2 = {norm!r}, expected 1")


@dataclass(frozen=True)
class SpinQuasiDist:
    """One member of the quasi-distribution family.

    Stores the four components together with the parameter t and the
    expectations they were built from; construction re-checks the sum rule
    and all four marginal equations.
    """

    fpp: float
    fpm: float
    fmp: float
    fmm: float
    t: float
    expZ: float
    expX: float

    def __post_init__(self):
        total = self.fpp + self.fpm + self.fmp + self.fmm
        if not (abs(total - 1.0) <= ATOL):
            raise PreconditionError(f"components sum to {total!r}, expected 1")
        worst = float(np.max(np.abs(marginal_residuals(self, self.expZ, self.expX))))
        if not (worst <= ATOL):
            raise PreconditionError(f"marginal equations violated by {worst:.2e}")

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.fpp, self.fpm, self.fmp, self.fmm)

    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.components)


def expectations(state: SpinState) -> tuple[float, float, float]:
    """(<X>, <Y>, <Z>) for a pure state, clipped into [-1, 1].

    A state normalized only within ATOL can round a value a few ulps past
    +-1; the clip keeps the exact range the family's guards demand.
    """
    c = np.array([state.c0, state.c1], dtype=complex)
    return tuple(float(np.clip(np.real(np.conj(c) @ (M @ c)), -1.0, 1.0)) for M in pauli())


def _check_range(name: str, v: float) -> None:
    if not -1.0 <= v <= 1.0:
        raise PreconditionError(f"{name} = {v!r} outside [-1, 1]")


def quasi_family(expZ: float, expX: float, t: float) -> SpinQuasiDist:
    """The general solution of the four marginal equations, parameterized by t."""
    _check_range("expZ", expZ)
    _check_range("expX", expX)
    return SpinQuasiDist(
        fpp=0.25 * (1.0 + expZ + expX + t),
        fpm=0.25 * (1.0 + expZ - expX - t),
        fmp=0.25 * (1.0 - expZ + expX - t),
        fmm=0.25 * (1.0 - expZ - expX + t),
        t=t,
        expZ=expZ,
        expX=expX,
    )


def feynman_choice(state: SpinState, t: float | str = "feynman") -> SpinQuasiDist:
    """Quasi-distribution of a pure state with Feynman's t = <Y>.

    t overrides the parameter: "feynman" takes <Y>, "neg-feynman" takes
    -<Y> (nothing singles out one sign), a number is used as-is.
    """
    ex, ey, ez = expectations(state)
    if t == "feynman":
        tval = ey
    elif t == "neg-feynman":
        tval = -ey
    elif isinstance(t, str):
        raise PreconditionError(f"t must be a number, 'feynman', or 'neg-feynman', got {t!r}")
    else:
        tval = float(t)
    return quasi_family(ez, ex, tval)


def nonneg_window(expZ: float, expX: float) -> tuple[float, float]:
    """Closed interval [tLo, tHi] on which all four components are >= 0.

    f_mm and f_pp each give a lower bound on t, f_pm and f_mp each an upper
    bound; the interval is never empty on the square |expZ|, |expX| <= 1.
    """
    _check_range("expZ", expZ)
    _check_range("expX", expX)
    tlo = max(-1.0 - expZ - expX, -1.0 + expZ + expX)
    thi = min(1.0 + expZ - expX, 1.0 - expZ + expX)
    return tlo, thi


def marginal_residuals(
    f: SpinQuasiDist, expZ: float, expX: float
) -> tuple[float, float, float, float]:
    """Residuals of the four marginal equations against the given expectations.

    All four vanish identically for any family member evaluated at its own
    expectations; nonzero values flag a table inconsistent with the claimed
    single-observable statistics.
    """
    return (
        f.fpp + f.fpm - 0.5 * (1.0 + expZ),
        f.fmp + f.fmm - 0.5 * (1.0 - expZ),
        f.fpp + f.fmp - 0.5 * (1.0 + expX),
        f.fpm + f.fmm - 0.5 * (1.0 - expX),
    )


def zx_sum_spectrum_report(f: SpinQuasiDist) -> dict:
    """Values of Z + X under the quasi-distribution versus its eigenvalues.

    Reading the table as a joint distribution assigns Z + X the values
    s_z + s_x = 2, 0, -2 with weights f_++, f_+- + f_-+, f_--; quantum
    mechanics allows only the eigenvalues +-sqrt(2), which none of them
    equals, so the mismatch flag is always set.
    """
    r = float(np.hypot(1.0, 1.0))
    return {
        "a": 1.0,
        "b": 1.0,
        "quasi_values": [2.0, 0.0, -2.0],
        "quasi_weights": [f.fpp, 0.0 + f.fpm + f.fmp, f.fmm],
        "eigenvalues": [-r, r],
        "mismatch": True,
    }
