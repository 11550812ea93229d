"""1-D quantum states and the direction type for their marginals.

States are carried as closures evaluable at arbitrary real points, because the
phase-space transform needs psi(x +- beta*hbar/2) at half-lattice points.
Closed forms (Gaussian wave packets, oscillator eigenstates) evaluate
analytically; grid-sampled states use band-limited (Whittaker) interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import Grid1D, PreconditionError, SampledFunction1D, warn_boundary

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
    norm = (np.pi * sigma**2) ** -0.25

    def evaluate(x):
        return norm * np.exp(-((x - x0) ** 2) / (2 * sigma**2) + 1j * p0 * x / hbar)

    return WaveFunction(evaluate, hbar, f"gaussian({x0},{p0},{sigma})")


def hermite_functions(nmax: int, u: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_nmax at u, shape (nmax+1,) + u.shape.

    Stabilized three-term recurrence on the functions themselves (not the
    polynomials), so no overflow for moderate n:
        h_{n+1} = sqrt(2/(n+1)) u h_n - sqrt(n/(n+1)) h_{n-1}
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((nmax + 1,) + u.shape)
    out[0] = np.pi**-0.25 * np.exp(-(u**2) / 2.0)
    if nmax >= 1:
        out[1] = np.sqrt(2.0) * u * out[0]
    for n in range(1, nmax):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * u * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def oscillator_eigenstate(n: int, hbar: float = 1.0) -> WaveFunction:
    """n-th eigenstate of the unit-frequency oscillator, width set by hbar."""
    if n < 0:
        raise PreconditionError(f"n must be nonnegative, got {n}")

    def evaluate(x):
        s = np.sqrt(hbar)
        return hermite_functions(n, x / s)[n] / np.sqrt(s) + 0j

    return WaveFunction(evaluate, hbar, f"hermite:{n}")


def sampled_state(sf: SampledFunction1D, hbar: float = 1.0, label: str = "sampled") -> WaveFunction:
    """State from grid samples; evaluates anywhere by Whittaker interpolation.

    Samples are renormalized to unit L2 norm (with a warning when the
    adjustment is large); the boundary-decay contract is checked.
    """
    warn_boundary(sf.values, "sampled_state input")
    nrm = np.sqrt(float(np.trapezoid(np.abs(sf.values) ** 2, dx=sf.grid.spacing)))
    if nrm == 0:
        raise PreconditionError("sampled state has zero norm")
    if abs(nrm - 1.0) > 1e-6:
        import warnings

        warnings.warn(f"sampled state renormalized (norm was {nrm:.6g})", stacklevel=2)
    vals = np.asarray(sf.values, dtype=complex) / nrm
    grid = sf.grid

    def evaluate(x, _chunk=256):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        flat = x.ravel()
        out = np.empty(flat.size, dtype=complex)
        for i in range(0, flat.size, _chunk):
            w = np.sinc((flat[i : i + _chunk, None] - grid.points[None, :]) / grid.spacing)
            out[i : i + _chunk] = w @ vals
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
