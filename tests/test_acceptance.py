"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -v to get one PASS/FAIL line per criterion; each test also
prints the measured number next to its tolerance.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import _oracles as oracle
import quasiprob
from quasiprob.numerics import Grid1D, square_grid
from quasiprob.spin import (
    SpinState,
    expectations,
    feynman_choice,
    nonneg_window,
    quasi_family,
    zx_sum_spectrum_report,
)
from quasiprob.states import DirectionAB, fock_expansion, gaussian_state
from quasiprob.tomography import (
    direction_residuals,
    marginal_of_quasi,
    quantum_marginal,
    reconstruct_from_marginals,
    rectangle_modification,
    smooth_modification,
    verify_j2m,
)
from quasiprob.verify import moyal_table
from quasiprob.weyl import (
    oscillator_matrices,
    symbol,
    weyl_quantize,
)
from quasiprob.wigner import characteristic_function, negative_volume, wigner_transform


def report(k, detail):
    print(f"criterion {k:02d} PASS: {detail}")


def test_criterion_01_ground_wigner_closed_form_and_speed(ground):
    grid = square_grid(-6.0, 6.0, 256)
    t0 = time.perf_counter()
    f = wigner_transform(ground, grid)
    elapsed = time.perf_counter() - t0
    X, P = np.meshgrid(grid.gx.points, grid.gp.points, indexing="ij")
    dev = float(np.max(np.abs(f.values - np.exp(-(X**2) - P**2) / np.pi)))
    assert dev < 1e-7, f"max deviation {dev:.3e} >= 1e-7"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s"
    report(1, f"max dev {dev:.3e} (tol 1e-7), runtime {elapsed:.3f}s (limit 5s)")


def test_criterion_02_excited_negativity(excited):
    grid = square_grid(-6.0, 6.0, 256)
    f = wigner_transform(excited, grid)
    i = int(np.argmin(np.abs(grid.gx.points)))
    j = int(np.argmin(np.abs(grid.gp.points)))
    dev = abs(f.values[i, j] - oracle.W1_AT_ORIGIN)
    assert dev < 1e-6, f"f(0,0) off by {dev:.3e}"
    nv = negative_volume(f)
    assert nv > 0.0
    report(2, f"f(0,0) dev {dev:.3e} (tol 1e-6), negative volume {nv:.5f} > 0")


def test_criterion_03_characteristic_closed_form_and_phase(ground):
    # 9x9 probe of the ground-state characteristic function
    a = np.linspace(-2.0, 2.0, 9)
    A, B = np.meshgrid(a, a, indexing="ij")
    dev0 = float(np.max(np.abs(characteristic_function(ground, a, a) - oracle.coherent_cf(A, B))))
    assert dev0 < 1e-8, f"ground probe dev {dev0:.3e} >= 1e-8"

    # off-center coherent state: the cross phase is checked against the
    # closed form and against an operator-side oracle that never splits
    # the exponential (its closed-form matrix elements in the Fock basis)
    psi = gaussian_state(1.0, -1.0, 1.0)
    dev1 = float(np.max(np.abs(characteristic_function(psi, a, a) - oracle.coherent_cf(A, B, 1.0, -1.0))))
    assert dev1 < 1e-8, f"off-center probe dev {dev1:.3e} >= 1e-8"

    c = fock_expansion(psi).c[:64]
    dev2 = 0.0
    for alpha in (-1.0, 0.5, 2.0):
        for beta in (-1.5, 1.0):
            # e^{-i(aX+bP)} is the displacement with both signs flipped
            D = oracle.displacement(-alpha, -beta, 64)
            matrix_side = complex(np.conj(c) @ D @ c)
            integral_side = complex(characteristic_function(psi, alpha, beta)[0, 0])
            dev2 = max(dev2, abs(matrix_side - integral_side))
    assert dev2 < 1e-6, f"matrix-side dev {dev2:.3e} >= 1e-6"
    report(3, f"probe devs {dev0:.3e}/{dev1:.3e} (tol 1e-8), operator oracle {dev2:.3e} (tol 1e-6)")


def test_criterion_04_slice_identity_twelve_pairs(ground, excited, coherent23, mid_grid, bump_distribution):
    wide = square_grid(-10.0, 10.0, 160)
    f0 = wigner_transform(ground, mid_grid)
    f1 = wigner_transform(excited, mid_grid)
    fc = wigner_transform(coherent23, wide)
    r = np.sqrt(0.5)
    pairs = [
        (f0, (1.0, 0.0)),
        (f0, (0.0, 1.0)),
        (f0, (0.6, 0.8)),
        (f1, (0.6, 0.8)),
        (f1, (r, r)),
        (f1, (0.96, 0.28)),
        (fc, (0.28, 0.96)),
        (fc, (1.0, 0.0)),
        (bump_distribution, (0.6, 0.8)),
        (bump_distribution, (-0.38, 0.92)),
        (bump_distribution, (0.92, -0.38)),
        (bump_distribution, (2.0, 0.0)),
    ]
    assert len(pairs) == 12
    worst = 0.0
    for f, ab in pairs:
        res = verify_j2m(f, DirectionAB(*ab))
        worst = max(worst, res)
        assert res < 1e-6, f"pair {ab} residual {res:.3e} >= 1e-6"
    report(4, f"12 pairs, worst slice residual {worst:.3e} (tol 1e-6)")


def test_criterion_05_marginals_along_32_directions(ground, excited, coherent23, mid_grid):
    zg = Grid1D(-8.0, 8.0, 128)
    zgc = Grid1D(-10.0, 10.0, 160)
    wide = square_grid(-10.0, 10.0, 160)
    cases = [
        (ground, wigner_transform(ground, mid_grid), zg),
        (excited, wigner_transform(excited, mid_grid), zg),
        (coherent23, wigner_transform(coherent23, wide), zgc),
    ]
    worst = 0.0
    focks = [fock_expansion(psi) for psi, _, _ in cases]
    for k in range(32):
        th = k * np.pi / 32
        d = DirectionAB(float(np.cos(th)), float(np.sin(th)))
        for (psi, f, grid), fock in zip(cases, focks):
            mq = marginal_of_quasi(f, d, grid)
            (mm,) = quantum_marginal(fock, [d], grid)
            dev = float(np.max(np.abs(mq.values - mm.values)))
            worst = max(worst, dev)
            assert dev < 1e-6, f"{psi.label} at theta={th:.3f}: dev {dev:.3e} >= 1e-6"
    report(5, f"3 states x 32 directions, worst marginal dev {worst:.3e} (tol 1e-6)")


def test_criterion_06_reconstruction_and_counterexamples(ground, excited, mid_grid):
    zg = Grid1D(-32.0, 32.0, 512)
    dirs = [DirectionAB(float(np.cos(t)), float(np.sin(t))) for t in np.arange(64) * np.pi / 64]
    cell = mid_grid.gx.spacing * mid_grid.gp.spacing
    l2 = {}
    for psi, label in ((ground, "ground"), (excited, "excited")):
        margs = quantum_marginal(fock_expansion(psi), dirs, zg)
        rec = reconstruct_from_marginals(margs, mid_grid)
        ref = wigner_transform(psi, mid_grid)
        l2[label] = float(np.sqrt(np.sum((rec.values - ref.values) ** 2) * cell))
    assert l2["ground"] < 1e-3, f"ground L2 {l2['ground']:.3e} >= 1e-3"
    assert l2["excited"] < 1e-2, f"excited L2 {l2['excited']:.3e} >= 1e-2"

    f = wigner_transform(ground, mid_grid)
    zfine = Grid1D(-8.0, 8.0, 128)
    probes = [k * np.pi / 8 for k in range(1, 8) if k != 4]
    fock = fock_expansion(ground)
    flagged = {}
    for label, mod in (
        ("rect", rectangle_modification(f, 1.5, 1.5, 0.05)),
        ("smooth", smooth_modification(f, 1.0, 1.0, 0.1)),
    ):
        for ab in ((1.0, 0.0), (0.0, 1.0)):
            d = DirectionAB(*ab)
            (m0,) = quantum_marginal(fock, [d], zfine)
            m1 = marginal_of_quasi(mod, d, zfine)
            axis_dev = float(np.max(np.abs(m1.values - m0.values)))
            assert axis_dev < 1e-9, f"{label} axis {ab}: dev {axis_dev:.3e} >= 1e-9"
        residual = float(direction_residuals(mod, fock, probes).max())
        assert residual > 1e-3, f"{label} worst residual {residual:.3e} <= 1e-3"
        flagged[label] = residual
    report(
        6,
        f"L2 ground {l2['ground']:.3e} (tol 1e-3), excited {l2['excited']:.3e} (tol 1e-2); "
        f"tampered axes clean <=1e-9, flagged rect {flagged['rect']:.3e} / "
        f"smooth {flagged['smooth']:.3e} (floor 1e-3)",
    )


def test_criterion_07_moyal_expectations_at_dim_64(ground, excited, coherent23):
    named = (("ground", ground), ("excited", excited), ("coherent(2,3)", coherent23))
    table = moyal_table(64, [(name, psi, fock_expansion(psi)) for name, psi in named])
    assert len(table) == 18  # six symbols, three states
    worst = max(row[4] for row in table)
    assert worst < 1e-4, f"worst Moyal diff {worst:.3e} >= 1e-4"
    # (XP+PX)/2 built one state larger reaches no truncated entry in its 64 x 64 block
    X, P = oscillator_matrices(65)
    M = weyl_quantize(symbol("xp"), 64)
    sym = (X @ P + P @ X) / 2.0
    dev = float(np.max(np.abs(M - sym[:64, :64])))
    assert dev < 1e-12, f"xp dev {dev:.3e} >= 1e-12"
    report(7, f"18 pairings, worst diff {worst:.3e} (tol 1e-4); xp dev {dev:.3e} (tol 1e-12)")


def test_criterion_08_spin_family_window_and_spectrum():
    # family formulas and window endpoints are exact rational/radical
    # expressions; probe them at machine precision
    assert quasi_family(1.0, 0.0, 0.0).components == (0.5, 0.5, 0.0, 0.0)
    assert quasi_family(0.0, 0.0, 0.0).components == (0.25, 0.25, 0.25, 0.25)
    grid01 = np.linspace(-1.0, 1.0, 101)
    min_width = min(
        nonneg_window(z, x)[1] - nonneg_window(z, x)[0] for z in grid01 for x in grid01
    )
    assert min_width > -1e-13, f"window width {min_width:.3e} below roundoff floor"

    state = SpinState(float(np.cos(np.pi / 8)), float(np.sin(np.pi / 8)))
    X, Y, Z = expectations(state)
    assert abs(Y) < 1e-15
    f0 = feynman_choice(state)  # t = <Y> = 0
    assert f0.t == 0.0
    assert abs(f0.fmm - oracle.SPIN_DIAG_FMM) < 1e-15
    assert f0.fmm < 0.0
    f7 = feynman_choice(state, t=0.7)
    assert f7.nonnegative(), f"components at t=0.7: {f7.components}"
    rep = zx_sum_spectrum_report(f0)
    assert tuple(rep["quasi_values"]) == oracle.ZX_QUASI_VALUES
    assert rep["eigenvalues"] == pytest.approx(oracle.ZX_EIGENVALUES, abs=1e-15)
    assert rep["mismatch"] is True
    report(
        8,
        f"family exact, window nonempty on 101x101 grid (min width {min_width:.1e}), "
        f"f-- = {f0.fmm:.6f} < 0 at t=0, all >= 0 at t=0.7, spectrum {rep['eigenvalues']} "
        f"vs quasi-values {rep['quasi_values']}",
    )


def test_criterion_09_discrete_negative_volume_exact():
    nv = negative_volume([0.6, -0.1, 0.3, 0.2])
    assert nv == oracle.DISCRETE_NEGATIVE_VOLUME
    report(9, f"negative volume {nv} == 0.1 exactly")


def test_criterion_10_verify_subcommand(tmp_path):
    # the child imports the same quasiprob as this process, installed or not
    src = str(Path(quasiprob.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "quasiprob", "verify", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, f"verify exited {proc.returncode}:\n{proc.stderr}"
    assert elapsed < 60.0, f"verify took {elapsed:.1f}s >= 60s"
    assert (tmp_path / "verify.json").exists()
    report(10, f"verify exit 0 in {elapsed:.1f}s (limit 60s)")
