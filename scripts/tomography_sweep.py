#!/usr/bin/env python3
"""Reconstruction error versus number of tomographic directions.

For each state, reconstructs the phase-space distribution from marginals
along k pi / ndirs and prints the relative L2 error against the direct
transform.  Shows the expected rapid convergence once the angular
sampling resolves the state's structure.
"""

import argparse
import warnings

import numpy as np

from quasiprob.numerics import Grid1D, square_grid
from quasiprob.states import fock_expansion, gaussian_state, oscillator_eigenstate
from quasiprob.tomography import fan, quantum_marginal, reconstruct_from_marginals
from quasiprob.wigner import wigner_transform


def rel_l2(rec, ref, grid):
    cell = grid.gx.spacing * grid.gp.spacing
    num = np.sqrt(np.sum((rec.values - ref.values) ** 2) * cell)
    den = np.sqrt(np.sum(ref.values**2) * cell)
    return num / den


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-dirs", type=int, default=128)
    args = ap.parse_args()

    grid = square_grid(-8.0, 8.0, 128)
    zgrid = Grid1D(-32.0, 32.0, 512)
    states = [
        oscillator_eigenstate(0),
        oscillator_eigenstate(1),
        gaussian_state(2.0, 3.0, 1.0),
    ]
    counts = [n for n in (2, 4, 8, 16, 32, 64, 128) if n <= args.max_dirs]

    refs = {s.label: wigner_transform(s, grid) for s in states}
    focks = {s.label: fock_expansion(s) for s in states}
    width = max(12, max(len(s.label) for s in states) + 2)
    header = "ndirs " + "".join(f"{s.label:>{width}s}" for s in states)
    print(header)
    print("-" * len(header))
    for ndirs in counts:
        row = f"{ndirs:5d} "
        for s in states:
            margs = quantum_marginal(focks[s.label], fan(ndirs), zgrid)
            # sweeps below 8 directions trip the coverage-gap warning by
            # construction; the table shows the cost
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                rec = reconstruct_from_marginals(margs, grid)
            row += f"{rel_l2(rec, refs[s.label], grid):{width}.3e}"
        print(row)


if __name__ == "__main__":
    main()
