#!/usr/bin/env python3
"""Axis-marginal blindness versus oblique-direction detection of tampering.

Adds each counterexample modification to the ground-state distribution at a
range of amplitudes and prints the worst marginal residual along the two
axes (always at roundoff) next to the worst residual over oblique probe
angles (grows linearly with the amplitude).  Checking only position and
momentum marginals misses these modifications entirely.
"""

import argparse

import numpy as np

from quasiprob.numerics import square_grid
from quasiprob.states import oscillator_eigenstate
from quasiprob.tomography import direction_residuals, rectangle_modification, smooth_modification
from quasiprob.wigner import wigner_transform


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitudes", type=float, nargs="+", default=[0.01, 0.02, 0.05, 0.1])
    args = ap.parse_args()

    psi = oscillator_eigenstate(0)
    grid = square_grid(-8.0, 8.0, 128)
    f = wigner_transform(psi, grid)
    probes = [k * np.pi / 8 for k in range(1, 8) if k != 4]

    print(f"{'kind':<8s}{'c':>8s}{'axis residual':>16s}{'oblique residual':>18s}")
    for c in args.amplitudes:
        for kind, mod in (
            ("rect", rectangle_modification(f, 1.5, 1.5, c)),
            ("smooth", smooth_modification(f, 1.0, 1.0, c)),
        ):
            res = direction_residuals(mod, psi, [0.0, np.pi / 2] + probes)
            axis, oblique = res[:2].max(), res[2:].max()
            print(f"{kind:<8s}{c:8.3f}{axis:16.2e}{oblique:18.6f}")


if __name__ == "__main__":
    main()
