"""End-to-end invariant suite behind the `verify` subcommand.

Every check is a single number compared against a fixed bound, so the whole
run prints as one pass/fail line per check and the suite result is the
conjunction.  Grids and probe sets are fixed; the only nondeterministic
value in the report is the measured Wigner-transform runtime.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import Grid1D, Grid2D, square_grid
from .spin import SpinState, feynman_choice, nonneg_window, quasi_family, zx_sum_spectrum_report
from .states import DirectionAB, gaussian_state, oscillator_eigenstate
from .tomography import (
    direction_residuals,
    fan,
    quantum_marginal,
    rectangle_modification,
    reconstruct_from_marginals,
    smooth_modification,
    verify_j2m,
)
from .weyl import displacement, interior_block, moyal_expectation_check, oscillator_matrices, symbol, weyl_quantize
from .wigner import (
    QuasiDistribution,
    characteristic_function,
    characteristic_grid,
    negative_volume,
    wigner_from_characteristic,
    wigner_transform,
)

@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    tol: float


class _Suite:
    def __init__(self):
        self.checks: list[Check] = []

    def le(self, name: str, value: float, tol: float) -> None:
        self.checks.append(Check(name, bool(value <= tol), float(value), float(tol)))

    def gt(self, name: str, value: float, threshold: float) -> None:
        self.checks.append(Check(name, bool(value > threshold), float(value), float(threshold)))

    def ge(self, name: str, value: float, bound: float) -> None:
        self.checks.append(Check(name, bool(value >= bound), float(value), float(bound)))


def moyal_table(N: int = 64) -> list[tuple[str, str, float, float, float]]:
    """(symbol, state, lhs, rhs, |lhs-rhs|) for the six-symbol, three-state set;
    each symbol is quantized once and its matrix serves all three states."""
    syms = [symbol(n) for n in ("x", "p", "x2", "p2", "xp", "gauss")]
    mats = [weyl_quantize(s, N) for s in syms]
    states = [
        ("ground", oscillator_eigenstate(0)),
        ("excited", oscillator_eigenstate(1)),
        ("coherent(2,3)", gaussian_state(2.0, 3.0, 1.0)),
    ]
    return [
        (s.label, sname, *moyal_expectation_check(s, psi, G))
        for sname, psi in states
        for s, G in zip(syms, mats)
    ]


def _bump_distribution(grid: Grid2D) -> QuasiDistribution:
    """Normalized off-center Gaussian: a valid test distribution that is not
    the Wigner transform of any pure state used here."""
    X, P = grid.meshgrid()
    sx, sp, mx, mp = 1.2, 0.7, 1.0, -0.5
    vals = np.exp(-((X - mx) ** 2) / (2 * sx**2) - ((P - mp) ** 2) / (2 * sp**2))
    return QuasiDistribution(grid, vals / (2 * np.pi * sx * sp))


def run_verify() -> dict:
    s = _Suite()
    t_start = time.perf_counter()

    psi0 = oscillator_eigenstate(0)
    psi1 = oscillator_eigenstate(1)
    coh = gaussian_state(2.0, 3.0, 1.0)

    # transform sanity: shifted Gaussian round trip on an offset grid
    from .numerics import SampledFunction1D, fourier_forward_1d, fourier_inverse_1d

    g_off = Grid1D(-3.7, 9.1, 200)
    v = np.exp(-((g_off.points - 2.0) ** 2)).astype(complex)
    rt = fourier_inverse_1d(fourier_forward_1d(SampledFunction1D(g_off, v)), g_off)
    s.le("transform-roundtrip-offset-grid", float(np.abs(rt.values - v).max()), 1e-12)

    # Wigner of the ground state: closed form, runtime
    big = square_grid(-6.0, 6.0, 256)
    t0 = time.perf_counter()
    f0 = wigner_transform(psi0, big)
    wig_time = time.perf_counter() - t0
    X, P = big.meshgrid()
    s.le("wigner-ground-max-dev", float(np.abs(f0.values - np.exp(-X**2 - P**2) / np.pi).max()), 1e-7)
    s.le("wigner-ground-runtime-s", wig_time, 5.0)

    # Wigner of the first excited state: origin value and negative mass
    f1 = wigner_transform(psi1, big)
    i0 = int(np.argmin(np.abs(big.gx.points)))
    j0 = int(np.argmin(np.abs(big.gp.points)))
    s.le("wigner-excited-origin-dev", float(abs(f1.values[i0, j0] + 1.0 / np.pi)), 1e-6)
    s.gt("wigner-excited-negativity", negative_volume(f1), 0.0)

    # characteristic function closed forms (ground state, shifted packet)
    probe = np.linspace(-2.0, 2.0, 9)
    A, B = np.meshgrid(probe, probe, indexing="ij")
    cf = characteristic_function(psi0, A, B)
    s.le("charfn-ground-max-dev", float(np.abs(cf - np.exp(-(A**2 + B**2) / 4.0)).max()), 1e-8)
    cfc = characteristic_function(coh, A, B)
    exact = np.exp(-1j * (A * 2.0 + B * 3.0)) * np.exp(-(A**2 + B**2) / 4.0)
    s.le("charfn-coherent-phase-dev", float(np.abs(cfc - exact).max()), 1e-8)

    # the uniqueness proof's constructive step: f is the inverse transform of
    # its characteristic function (excited state, against the closed form)
    fi = wigner_from_characteristic(characteristic_grid(psi1, square_grid(-12.0, 12.0, 64)))
    Xi, Pi = fi.grid.meshgrid()
    ri = Xi**2 + Pi**2
    s.le("charfn-inversion-excited-max-dev", float(np.abs(fi.values - (2 * ri - 1) * np.exp(-ri) / np.pi).max()), 1e-10)

    # slice identity on Wigner and non-Wigner distributions
    mid = square_grid(-8.0, 8.0, 128)
    w0 = wigner_transform(psi0, mid)
    w1 = wigner_transform(psi1, mid)
    bump = _bump_distribution(mid)
    r = 1.0 / np.sqrt(2.0)
    j2m = max(
        verify_j2m(w0, DirectionAB(0.6, 0.8)),
        verify_j2m(w1, DirectionAB(r, r)),
        verify_j2m(bump, DirectionAB(0.6, 0.8)),
        verify_j2m(bump, DirectionAB(0.92, -0.38)),
    )
    s.le("slice-identity-max-residual", j2m, 1e-6)

    # marginals agree with the state's own measurement statistics
    gc = square_grid(-10.0, 10.0, 160)
    wc = wigner_transform(coh, gc)
    eighths = [k * np.pi / 8 for k in range(8)]
    worst = max(
        float(direction_residuals(f, psi, eighths).max()) for f, psi in ((w0, psi0), (w1, psi1), (wc, coh))
    )
    s.le("marginal-match-max", worst, 1e-6)

    # reconstruction from 64 directions
    zrec = Grid1D(-32.0, 32.0, 512)
    for name, psi, f_ref, tol in (("ground", psi0, w0, 1e-3), ("excited", psi1, w1, 1e-2)):
        margs = [quantum_marginal(psi, d, zrec) for d in fan(64)]
        rec = reconstruct_from_marginals(margs, mid)
        l2 = float(np.sqrt(np.sum((rec.values - f_ref.values) ** 2) * mid.gx.spacing * mid.gp.spacing))
        s.le(f"reconstruction-{name}-l2", l2, tol)

    # marginal-preserving modifications: axis-blind, oblique-visible
    for name, mod in (
        ("rect", rectangle_modification(w0, 1.5, 1.5, 0.05)),
        ("smooth", smooth_modification(w0, 1.0, 1.0, 0.1)),
    ):
        res = direction_residuals(mod, psi0, [0.0, np.pi / 2, np.pi / 4])
        s.le(f"tamper-{name}-axis-max", float(res[:2].max()), 1e-9)
        s.gt(f"tamper-{name}-oblique-residual", float(res[2]), 1e-3)

    # symmetric ordering of xp at the matrix level
    N = 32
    Xm, Pm = oscillator_matrices(N)
    G = weyl_quantize(symbol("xp"), N)
    ref = (Xm @ Pm + Pm @ Xm) / 2.0
    s.le("weyl-xp-interior-dev", float(np.abs(interior_block(G - ref)).max()), 1e-6)

    # matrix-side characteristic value against the closed form
    D = displacement(-1.0, -1.0, 64)
    e0 = np.zeros(64)
    e0[0] = 1.0
    s.le("displacement-charfn-dev", float(abs(e0 @ (D @ e0) - np.exp(-0.5))), 1e-6)

    # expectation equality for six symbols and three states
    table = moyal_table(64)
    s.le("moyal-max-diff", max(row[4] for row in table), 1e-4)

    # spin family: frozen values, window, negativity flip, spectrum mismatch
    sq2 = float(np.sqrt(2.0))
    fam = quasi_family(1.0, 0.0, 0.0)
    dev = max(
        abs(fam.fpp - 0.5), abs(fam.fpm - 0.5), abs(fam.fmp), abs(fam.fmm),
        max(abs(u - 0.25) for u in quasi_family(0.0, 0.0, 0.0).components),
        abs(quasi_family(r, r, 0.0).fmm - (1.0 - sq2) / 4.0),
    )
    s.le("spin-family-frozen-dev", dev, 1e-15)

    grid01 = np.linspace(-1.0, 1.0, 101)
    width = min(nonneg_window(z, x)[1] - nonneg_window(z, x)[0] for z in grid01 for x in grid01)
    # exact width is 2 - |Z+X| - |Z-X| >= 0, degenerate on the square's
    # edges; the float evaluation can land a few ulps below zero there
    s.ge("spin-window-min-width", width, -1e-13)
    wlo, whi = nonneg_window(r, r)
    s.le("spin-window-diag-dev", max(abs(wlo - (sq2 - 1.0)), abs(whi - 1.0)), 1e-15)

    st = SpinState(float(np.cos(np.pi / 8)), float(np.sin(np.pi / 8)))
    fey = feynman_choice(st)
    s.le("spin-pi8-t-dev", abs(fey.t), 1e-15)
    s.le("spin-pi8-fmm-dev", abs(fey.fmm - (1.0 - sq2) / 4.0), 1e-15)
    s.gt("spin-pi8-has-negative", -fey.fmm, 0.0)
    s.ge("spin-pi8-t07-min-component", min(feynman_choice(st, 0.7).components), 0.0)

    rep = zx_sum_spectrum_report(fey)
    zx_dev = max(
        float(np.abs(np.array(rep["quasi_values"]) - np.array([2.0, 0.0, -2.0])).max()),
        float(np.abs(np.array(rep["eigenvalues"]) - np.array([-sq2, sq2])).max()),
        0.0 if rep["mismatch"] else 1.0,
    )
    s.le("spin-zx-report-dev", zx_dev, 1e-12)

    # discrete negativity of the four-outcome example
    s.le("negativity-discrete-dev", abs(negative_volume([0.6, -0.1, 0.3, 0.2]) - 0.1), 0.0)

    elapsed = time.perf_counter() - t_start
    return {
        "kind": "verify-report",
        "ok": all(c.ok for c in s.checks),
        "checks": [asdict(c) for c in s.checks],
        "elapsed_s": elapsed,
    }


def format_report(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        mark = "PASS" if c["ok"] else "FAIL"
        lines.append(f"{mark}  {c['name']:<36s} value={c['value']:.6e}  bound={c['tol']:.6e}")
    n_ok = sum(1 for c in report["checks"] if c["ok"])
    lines.append(
        f"{'OK' if report['ok'] else 'FAILED'}: {n_ok}/{len(report['checks'])} checks passed "
        f"in {report['elapsed_s']:.1f}s"
    )
    return "\n".join(lines)
