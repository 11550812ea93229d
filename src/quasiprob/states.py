"""1-D quantum states and the direction type for their marginals.

States are carried as closures evaluable at arbitrary real points, because the
phase-space transform needs psi(x +- beta*hbar/2) at half-lattice points.
Closed forms (Gaussian wave packets, oscillator eigenstates) evaluate
analytically; grid-sampled states use band-limited (Whittaker) interpolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .numerics import SINC_BLOCK, Grid1D, PreconditionError, SampledFunction1D, sinc_sum, warn_boundary

#: Working grid for unit-width states at hbar=1; boundary amplitude < 1e-50.
DEFAULT_GRID = Grid1D(-16.0, 16.0, 512)


@dataclass(frozen=True)
class WaveFunction:
    """Normalized state psi with an evaluator defined on all of R.

    The one owner of hbar: every transform of the state reads psi.hbar."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    hbar: float = 1.0
    label: str = "state"

    def __post_init__(self):
        if not (0.0 < self.hbar < np.inf):
            raise PreconditionError(f"hbar must be positive, got {self.hbar}")

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))


def gaussian_state(x0: float, p0: float, sigma: float, hbar: float = 1.0) -> WaveFunction:
    """psi(x) = (pi sigma^2)^{-1/4} exp(-(x-x0)^2/(2 sigma^2) + i p0 x / hbar)."""
    if sigma <= 0:
        raise PreconditionError(f"sigma must be positive, got {sigma}")
    # a float product cannot raise or warn; sigma**2 and the norm below can
    if not 0.0 < float(sigma) * float(sigma) < np.inf:
        raise PreconditionError(f"sigma^2 must be a positive finite double, got sigma = {sigma}")
    norm = (np.pi * sigma**2) ** -0.25

    def evaluate(x):
        # far out (x near 1e300 at huge hbar) the square overflows to inf and
        # exp gives the exact 0, so the overflow is not an error
        with np.errstate(over="ignore"):
            return norm * np.exp(-((x - x0) ** 2) / (2 * sigma**2) + 1j * p0 * x / hbar)

    return WaveFunction(evaluate, hbar, f"gaussian({x0},{p0},{sigma})")


def _hermite_rows(u: np.ndarray):
    """h_0, h_1, ... at u, without end, by the stabilized recurrence on the
    functions (not the polynomials), so no overflow for moderate n:
        h_{n+1} = sqrt(2/(n+1)) u h_n - sqrt(n/(n+1)) h_{n-1}
    It holds the last two rows, so the caller must not write into one."""
    prev = np.pi**-0.25 * np.exp(-(u**2) / 2.0)
    yield prev
    row = np.sqrt(2.0) * u * prev
    n = 1
    while True:
        yield row
        prev, row = row, np.sqrt(2.0 / (n + 1)) * u * row - np.sqrt(n / (n + 1.0)) * prev
        n += 1


def hermite_functions(nmax: int, u: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_nmax at u, shape (nmax+1,) + u.shape."""
    u = np.asarray(u, dtype=float)
    return np.fromiter(islice(_hermite_rows(u), nmax + 1), dtype=(float, u.shape), count=nmax + 1)


def oscillator_eigenstate(n: int, hbar: float = 1.0) -> WaveFunction:
    """n-th eigenstate of the unit-frequency oscillator, width set by hbar."""
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")

    def evaluate(x):
        s = np.sqrt(hbar)
        return next(islice(_hermite_rows(x / s), n, None)) / np.sqrt(s) + 0j

    return WaveFunction(evaluate, hbar, f"hermite:{n}")


#: Quadrature grid of fock_expansion.  Wider and finer than DEFAULT_GRID: at
#: hbar = 1 it holds Gaussians of width 0.2 to 4 and resolves them against h_n
#: up to n = FOCK_CAP.
FOCK_GRID = Grid1D(-32.0, 32.0, 2048)

#: Largest oscillator basis fock_expansion tries before it fails closed.
FOCK_CAP = 2048


@dataclass(frozen=True)
class FockExpansion:
    """A state's oscillator coefficients c_n = <n|psi>, n < len(c), with the
    state's hbar, which fixes the width of the basis functions."""

    c: np.ndarray
    hbar: float


def fock_expansion(psi: WaveFunction) -> FockExpansion:
    """The state's oscillator coefficients (Cahill & Glauber, Phys. Rev. 177,
    1882 (1969)), by the trapezoid rule on FOCK_GRID.

    psi is evaluated once, at the grid's points.  N doubles from 64 until
    the top quarter of |c_n| is at most 1e-15 and sum |c_n|^2 is 1 within
    1e-6 (a state displaced far from the origin has a negligible top quarter
    long before its norm is in); a state that needs more than FOCK_CAP fails
    closed.  The h_n recurrence runs on across doublings, so a search that
    stops at N builds N rows, and c is formed from blocks of SINC_BLOCK
    points.  Run it once per state and hand the result to every consumer.
    """
    s = np.sqrt(psi.hbar)
    w = np.full(FOCK_GRID.n, FOCK_GRID.spacing)
    w[0] = w[-1] = FOCK_GRID.spacing / 2.0
    weighted = psi(FOCK_GRID.points) * w
    rows = _hermite_rows(FOCK_GRID.points / s)
    step = SINC_BLOCK // FOCK_GRID.n  # 8 rows tile every N and keep the whole-table product's bits; 1-row products do not
    c = np.empty(FOCK_CAP, dtype=complex)
    N = 64
    for i in range(0, FOCK_CAP, step):
        block = np.stack(list(islice(rows, step)))
        block /= np.sqrt(s)
        c[i : i + step] = block @ weighted
        if i + step < N:
            continue
        norm = float(np.sum(np.abs(c[:N]) ** 2))
        if np.abs(c[3 * N // 4 : N]).max() <= 1e-15 and abs(norm - 1.0) <= 1e-6:
            return FockExpansion(c[:N].copy(), psi.hbar)
        N *= 2
    if not abs(norm - 1.0) <= 1e-6:
        raise PreconditionError(f"the state's oscillator norm over n < {FOCK_CAP} is {norm!r}, not 1 within 1e-6")
    raise PreconditionError(f"the state's oscillator coefficients have not decayed to 1e-15 by n = {FOCK_CAP}")


def sampled_state(sf: SampledFunction1D, hbar: float = 1.0, label: str = "sampled") -> WaveFunction:
    """State from grid samples; evaluates anywhere by Whittaker interpolation,
    the series summed by numerics.sinc_sum.

    Samples are renormalized to unit L2 norm (with a warning when the
    adjustment is large); the boundary-decay contract is checked.
    """
    warn_boundary(sf.values, "sampled_state input")
    nrm = np.sqrt(float(np.trapezoid(np.abs(sf.values) ** 2, dx=sf.grid.spacing)))
    if nrm == 0:
        raise PreconditionError("sampled state has zero norm")
    if abs(nrm - 1.0) > 1e-6:
        warnings.warn(f"sampled state renormalized (norm was {nrm:.6g})", stacklevel=2)
    # (n, 2, 1) real view (re, im) of the samples: the series sums in real
    # arithmetic, with the re/im axis outside the long axis of points
    vals = (np.asarray(sf.values, dtype=complex) / nrm).view(float).reshape(-1, 2, 1)
    grid = sf.grid

    def evaluate(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        flat = x.ravel()
        out = np.empty(flat.size, dtype=complex)
        pairs = out.view(float).reshape(-1, 2)
        for i in range(0, flat.size, SINC_BLOCK):
            pairs[i : i + SINC_BLOCK] = sinc_sum((flat[i : i + SINC_BLOCK] - grid.min) / grid.spacing, vals).T
        return out.reshape(x.shape)

    return WaveFunction(evaluate, hbar, label)


@dataclass(frozen=True)
class DirectionAB:
    """Direction (a, b) of the combination z = a x + b p; raw values kept.

    The canonical form (unit norm, a > 0, or a = 0 and b = 1) gives the
    angle theta; marginal operations use the raw components since scaling
    (a, b) rescales the marginal variable.
    """

    a: float
    b: float
    norm: float = field(init=False)

    def __post_init__(self):
        r = float(np.hypot(self.a, self.b))
        if not (0.0 < r < np.inf):
            raise PreconditionError(f"direction ({self.a!r}, {self.b!r}) needs a finite nonzero norm")
        object.__setattr__(self, "norm", r)

    def canonical(self) -> tuple[float, float]:
        a, b = self.a / self.norm, self.b / self.norm
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        if a == 0:
            return (0.0, 1.0)
        return (a, b)

    @property
    def theta(self) -> float:
        """Angle of the canonical direction, in [0, pi)."""
        a, b = self.canonical()
        t = float(np.arctan2(b, a))
        return t if t >= 0 else t + np.pi
