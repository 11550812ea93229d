"""End-to-end invariant suite behind the `verify` subcommand.

Every check is a single number compared against a fixed bound, so the whole
run prints as one pass/fail line per check and the suite result is the
conjunction.  Grids and probe sets are fixed.  The one nondeterministic
value, the measured Wigner-transform runtime, is printed with its row but
kept out of the report, so the report is the same on every run.
"""

from __future__ import annotations

import operator
import sys
import time

import numpy as np

from .numerics import Grid1D, Grid2D, PreconditionError, ft_core, square_grid
from .spin import SpinState, feynman_choice, nonneg_window, quasi_family, zx_sum_spectrum_report
from .states import DirectionAB, FockExpansion, WaveFunction, fock_expansion, gaussian_state, oscillator_eigenstate
from .tomography import (
    direction_residuals,
    fan,
    quantum_marginal,
    rectangle_modification,
    reconstruct_from_marginals,
    smooth_modification,
    verify_j2m,
)
from .weyl import moyal_expectation_check, oscillator_matrices, symbol, weyl_quantize
from .wigner import (
    QuasiDistribution,
    characteristic_function,
    negative_volume,
    wigner_from_characteristic,
    wigner_transform,
)


def moyal_table(N: int, states: list[tuple[str, WaveFunction, FockExpansion]]) -> list[tuple[str, str, float, float, float]]:
    """(symbol, state, lhs, rhs, |lhs-rhs|) for six symbols and the given
    (name, state, expansion) triples; each symbol is quantized once and its
    matrix serves every state."""
    syms = [symbol(n) for n in ("x", "p", "x2", "p2", "xp", "gauss")]
    mats = [weyl_quantize(s, N) for s in syms]
    return [
        (s.label, sname, *moyal_expectation_check(s, psi, fock, G))
        for sname, psi, fock in states
        for s, G in zip(syms, mats)
    ]


def _bump_distribution(grid: Grid2D) -> QuasiDistribution:
    """Normalized off-center Gaussian: a valid test distribution that is not
    the Wigner transform of any pure state used here."""
    X, P = grid.meshgrid()
    sx, sp, mx, mp = 1.2, 0.7, 1.0, -0.5
    vals = np.exp(-((X - mx) ** 2) / (2 * sx**2) - ((P - mp) ** 2) / (2 * sp**2))
    return QuasiDistribution(grid, vals / (2 * np.pi * sx * sp))


def _suite(check) -> None:
    psi0 = oscillator_eigenstate(0)
    psi1 = oscillator_eigenstate(1)
    coh = gaussian_state(2.0, 3.0, 1.0)
    fock0, fock1, fockc = (fock_expansion(psi) for psi in (psi0, psi1, coh))

    # transform sanity: shifted Gaussian round trip on an offset grid
    g_off = Grid1D(-3.7, 9.1, 200)
    v = np.exp(-((g_off.points - 2.0) ** 2)).astype(complex)
    rt = ft_core(ft_core(v, g_off, g_off.dual(), -1), g_off.dual(), g_off, +1)
    check("transform-roundtrip-offset-grid", float(np.abs(rt - v).max()), 1e-12)

    # Wigner of the ground state: closed form, runtime
    big = square_grid(-6.0, 6.0, 256)
    t0 = time.perf_counter()
    f0 = wigner_transform(psi0, big)
    wig_time = time.perf_counter() - t0
    X, P = big.meshgrid()
    check("wigner-ground-max-dev", float(np.abs(f0.values - np.exp(-X**2 - P**2) / np.pi).max()), 1e-7)
    check("wigner-ground-runtime-s", wig_time, 5.0)

    # Wigner of the first excited state: origin value and negative mass
    f1 = wigner_transform(psi1, big)
    i0 = int(np.argmin(np.abs(big.gx.points)))
    j0 = int(np.argmin(np.abs(big.gp.points)))
    check("wigner-excited-origin-dev", float(abs(f1.values[i0, j0] + 1.0 / np.pi)), 1e-6)
    check("wigner-excited-negativity", negative_volume(f1), 0.0, operator.gt)

    # Wigner of hermite:3 at hbar != 1 against Groenewold's closed form
    # (-1)^n e^{-r^2/hbar} L_n(2 r^2/hbar) / (pi hbar); W is below rounding
    # past r = 10 at hbar = 2, and the p-spacing puts the b-window past the
    # correlation's support at hbar = 0.5
    g3 = square_grid(-10.0, 10.0, 128)
    X3, P3 = g3.meshgrid()
    r3 = X3**2 + P3**2
    dev = 0.0
    for hbar in (0.5, 2.0):
        t = 2 * r3 / hbar
        ref = -np.exp(-t / 2) * (1 - 3 * t + 1.5 * t**2 - t**3 / 6) / (np.pi * hbar)
        dev = max(dev, float(np.abs(wigner_transform(oscillator_eigenstate(3, hbar), g3).values - ref).max()))
    check("wigner-hermite3-hbar-dev", dev, 1e-12)

    # characteristic function closed forms (ground state, shifted packet)
    probe = np.linspace(-2.0, 2.0, 9)
    A, B = np.meshgrid(probe, probe, indexing="ij")
    cf = characteristic_function(psi0, probe, probe)
    check("charfn-ground-max-dev", float(np.abs(cf - np.exp(-(A**2 + B**2) / 4.0)).max()), 1e-8)
    cfc = characteristic_function(coh, probe, probe)
    exact = np.exp(-1j * (A * 2.0 + B * 3.0)) * np.exp(-(A**2 + B**2) / 4.0)
    check("charfn-coherent-phase-dev", float(np.abs(cfc - exact).max()), 1e-8)

    # the uniqueness proof's constructive step: f is the inverse transform of
    # its characteristic function (excited state, against the closed form)
    fi = wigner_from_characteristic(psi1, square_grid(-12.0, 12.0, 64))
    Xi, Pi = fi.grid.meshgrid()
    ri = Xi**2 + Pi**2
    check("charfn-inversion-excited-max-dev", float(np.abs(fi.values - (2 * ri - 1) * np.exp(-ri) / np.pi).max()), 1e-10)

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
    check("slice-identity-max-residual", j2m, 1e-6)

    # marginals agree with the state's own measurement statistics
    gc = square_grid(-10.0, 10.0, 160)
    wc = wigner_transform(coh, gc)
    eighths = [k * np.pi / 8 for k in range(8)]
    worst = max(
        float(direction_residuals(f, fock, eighths).max()) for f, fock in ((w0, fock0), (w1, fock1), (wc, fockc))
    )
    check("marginal-match-max", worst, 1e-6)

    # reconstruction from 64 directions
    zrec = Grid1D(-32.0, 32.0, 512)
    for name, fock, f_ref, tol in (("ground", fock0, w0, 1e-3), ("excited", fock1, w1, 1e-2)):
        margs = quantum_marginal(fock, fan(64), zrec)
        rec = reconstruct_from_marginals(margs, mid)
        l2 = float(np.sqrt(np.sum((rec.values - f_ref.values) ** 2) * mid.gx.spacing * mid.gp.spacing))
        check(f"reconstruction-{name}-l2", l2, tol)

    # marginal-preserving modifications: axis-blind, oblique-visible
    for name, mod in (
        ("rect", rectangle_modification(w0, 1.5, 1.5, 0.05)),
        ("smooth", smooth_modification(w0, 1.0, 1.0, 0.1)),
    ):
        res = direction_residuals(mod, fock0, [0.0, np.pi / 2, np.pi / 4])
        check(f"tamper-{name}-axis-max", float(res[:2].max()), 1e-9)
        check(f"tamper-{name}-oblique-residual", float(res[2]), 1e-3, operator.gt)

    # symmetric ordering of xp at the matrix level: the whole matrix against
    # (XP+PX)/2 built at N + 2, whose top-left block reaches no truncated entry
    N = 32
    Xm, Pm = oscillator_matrices(N + 2)
    G = weyl_quantize(symbol("xp"), N)
    ref = (Xm @ Pm + Pm @ Xm) / 2.0
    check("weyl-xp-interior-dev", float(np.abs(G - ref[:N, :N]).max()), 1e-12)

    # e^{-x^2-p^2} quantizes to the diagonal ((1-hbar)/(1+hbar))^n / (1+hbar)
    # at any hbar (it is (1/2)|0><0| at hbar = 1)
    dev = 0.0
    for hbar in (0.5, 2.0):
        exact = ((1 - hbar) / (1 + hbar)) ** np.arange(20) / (1 + hbar)
        dev = max(dev, float(np.abs(np.diag(weyl_quantize(symbol("gauss"), 20, hbar)) - exact).max()))
    check("weyl-gauss-hbar-dev", dev, 1e-12)

    # closed forms at hbar != 1 with t = hbar (a^2 + b^2) / 2: hermite:3 has
    # chi = e^{-t/2} L_3(t), and the coherent gaussian(x0, p0, sqrt(hbar)) has
    # chi = e^{-i(a x0 + b p0)} e^{-t/2} and oscillator coefficients
    # e^{i x0 p0 / 2 hbar} e^{-|z|^2/2} z^n / sqrt(n!), z = (x0 + i p0) / sqrt(2 hbar)
    a, b = np.array([-1.0, 0.5, 2.0]), np.array([-1.5, 1.0])
    A, B = np.meshgrid(a, b, indexing="ij")
    x0, p0 = 1.0, -1.5
    cf_dev = fock_dev = 0.0
    for hbar in (0.5, 2.0):
        t = hbar * (A**2 + B**2) / 2
        coh_h = gaussian_state(x0, p0, float(np.sqrt(hbar)), hbar)
        for psi, exact in (
            (oscillator_eigenstate(3, hbar), np.exp(-t / 2) * (1 - 3 * t + 1.5 * t**2 - t**3 / 6)),
            (coh_h, np.exp(-1j * (A * x0 + B * p0) - t / 2)),
        ):
            cf_dev = max(cf_dev, float(np.abs(characteristic_function(psi, a, b) - exact).max()))
        c = fock_expansion(coh_h).c
        z = complex(x0, p0) / np.sqrt(2 * hbar)
        powers = np.cumprod(np.r_[1.0, z / np.sqrt(np.arange(1, c.size))])  # z^n / sqrt(n!)
        fock_dev = max(fock_dev, float(np.abs(c - np.exp(1j * x0 * p0 / (2 * hbar) - abs(z) ** 2 / 2) * powers).max()))
    check("charfn-hbar-dev", cf_dev, 1e-12)
    check("fock-hbar-dev", fock_dev, 1e-12)

    # expectation equality for six symbols and three states
    table = moyal_table(64, [("ground", psi0, fock0), ("excited", psi1, fock1), ("coherent(2,3)", coh, fockc)])
    check("moyal-max-diff", max(row[4] for row in table), 1e-4)

    # spin family: frozen values, window, negativity flip, spectrum mismatch
    sq2 = float(np.sqrt(2.0))
    fam = quasi_family(1.0, 0.0, 0.0)
    dev = max(
        abs(fam.fpp - 0.5), abs(fam.fpm - 0.5), abs(fam.fmp), abs(fam.fmm),
        max(abs(u - 0.25) for u in quasi_family(0.0, 0.0, 0.0).components),
        abs(quasi_family(r, r, 0.0).fmm - (1.0 - sq2) / 4.0),
    )
    check("spin-family-frozen-dev", dev, 1e-15)

    grid01 = np.linspace(-1.0, 1.0, 101)
    width = min(hi - lo for lo, hi in (nonneg_window(z, x) for z in grid01 for x in grid01))
    # exact width is 2 - |Z+X| - |Z-X| >= 0, degenerate on the square's
    # edges; the float evaluation can land a few ulps below zero there
    check("spin-window-min-width", width, -1e-13, operator.ge)
    wlo, whi = nonneg_window(r, r)
    check("spin-window-diag-dev", max(abs(wlo - (sq2 - 1.0)), abs(whi - 1.0)), 1e-15)

    st = SpinState(float(np.cos(np.pi / 8)), float(np.sin(np.pi / 8)))
    fey = feynman_choice(st)
    check("spin-pi8-t-dev", abs(fey.t), 1e-15)
    check("spin-pi8-fmm-dev", abs(fey.fmm - (1.0 - sq2) / 4.0), 1e-15)
    check("spin-pi8-has-negative", -fey.fmm, 0.0, operator.gt)
    check("spin-pi8-t07-min-component", min(feynman_choice(st, 0.7).components), 0.0, operator.ge)

    rep = zx_sum_spectrum_report(fey)
    zx_dev = max(
        float(np.abs(np.array(rep["quasi_values"]) - np.array([2.0, 0.0, -2.0])).max()),
        float(np.abs(np.array(rep["eigenvalues"]) - np.array([-sq2, sq2])).max()),
        0.0 if rep["mismatch"] else 1.0,
    )
    check("spin-zx-report-dev", zx_dev, 1e-12)

    # discrete negativity of the four-outcome example
    check("negativity-discrete-dev", abs(negative_volume([0.6, -0.1, 0.3, 0.2]) - 0.1), 0.0)


def run_verify() -> dict:
    """Run the suite, printing each check's row to stderr as it is recorded,
    and return the verify-report.  A PreconditionError ends the suite with a
    failing "aborted-after-<last check>" row; the rows before it stay."""
    checks: list[dict] = []

    def check(name: str, value: float, bound: float, passes=operator.le) -> None:
        row = {"name": name, "ok": bool(passes(value, bound)), "value": float(value), "tol": float(bound)}
        mark = "PASS" if row["ok"] else "FAIL"
        print(f"{mark}  {name:<36s} value={row['value']:.6e}  bound={row['tol']:.6e}", file=sys.stderr)
        # wall-clock measurements stay on stderr: the artifact must be
        # byte-identical across reruns, so budget checks keep only the verdict
        if name.endswith("-runtime-s"):
            del row["value"]
        checks.append(row)

    t_start = time.perf_counter()
    try:
        _suite(check)
    except PreconditionError as e:
        name = "aborted-after-" + (checks[-1]["name"] if checks else "start")
        checks.append({"name": name, "ok": False, "tol": 0.0})
        print(f"FAIL  {name}: {e}", file=sys.stderr)
    n_ok = sum(c["ok"] for c in checks)
    ok = n_ok == len(checks)
    elapsed = time.perf_counter() - t_start
    print(f"{'OK' if ok else 'FAILED'}: {n_ok}/{len(checks)} checks passed in {elapsed:.1f}s", file=sys.stderr)
    return {"kind": "verify-report", "ok": ok, "checks": checks}
