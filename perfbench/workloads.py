"""The four workloads: which operations a run makes, in which order.

A run is a fixed sequence generated from (workload, seed, seconds).  Each
workload has a small set of distinct inputs; one round runs a fixed multiset
of them in a seeded order, and a run is a whole number of rounds.  The round
count comes from --seconds and a per-workload round length measured once on
a 2-vCPU machine (ROUND_SECONDS), never from the clock, so every commit runs
the same operations and a faster program changes the times, not which
operation is the tail.  The seed moves continuous parameters (displacements,
widths, angles) and the order; it never changes which kinds of operation run
or how many, so the cost of a round does not depend on it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

import closedforms as cf

WORKLOADS = ("export", "tomography", "quantize", "sampled")

#: Measured seconds per round at the commit that introduced the benchmark.
ROUND_SECONDS = {"export": 3.6, "tomography": 3.4, "quantize": 0.93, "sampled": 1.4}

#: A run holds at least this many timed operations.
MIN_OPS = 20

EXPORT_GRID = ("-8", "8", "256")
SAMPLED_WIGNER_GRID = ("-8", "8", "128")
#: Sample lattice of the file: states, wide enough that |psi| at its edges is
#: below 1e-14 of its peak for every state the seed can draw.
SAMPLE_GRID = (-11.0, 11.0, 128)
TOMO_NDIRS = 4
WEYL_DIM = 20
POLY_SYMBOLS = ("x", "p", "x2", "p2", "xp", "x2p2")


@dataclass
class Input:
    """One distinct operation; `argv` has no --out."""

    kind: str
    argv: list[str]
    check: dict


@dataclass
class Plan:
    inputs: list[Input]
    order: list[int]  # input index of each timed operation
    warmup: list[int]  # input indices run untimed before the timed part
    rounds: int
    sampled: dict  # file name -> closed-form state of a file: input


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _gaussian(rng, span: float, widths: tuple[float, float]):
    x0, p0 = (round(float(v), 3) for v in rng.uniform(-span, span, 2))
    s = round(float(rng.uniform(*widths)), 3)
    return ("gaussian", x0, p0, s)


def _export(rng):
    states = [("hermite", n) for n in (0, 1, 2, 4)]
    states += [_gaussian(rng, 1.5, (0.8, 1.25)) for _ in range(4)]
    xmin, xmax, n = EXPORT_GRID
    inputs = [
        Input("wigner", ["wigner", "--state", cf.spec(s), "--xmin", xmin, "--xmax", xmax, "--n", n],
              {"state": s, "grid": (float(xmin), float(xmax), int(n))})
        for s in states
    ]
    return inputs, list(range(len(inputs))), {}


def _tomography(rng):
    states = [("hermite", n) for n in (1, 2, 3, 4)]
    # the widths over which the tomography bounds were validated (README)
    states += [_gaussian(rng, 1.0, (0.8, 1.2)) for _ in range(4)]
    inputs = [
        Input("tomo", ["tomo", "--state", cf.spec(s), "--ndirs", str(TOMO_NDIRS)],
              {"state": s, "ndirs": TOMO_NDIRS})
        for s in states
    ]
    return inputs, list(range(len(inputs))), {}


def _quantize(rng):
    # coherent states only (s = 1) with |alpha|^2 <= 1, and Hermite levels
    # <= 3, keep the Fock tail beyond WEYL_DIM far below the 1e-10 the
    # program requires
    inputs = []
    for name in POLY_SYMBOLS + ("gauss",) * 3:
        if rng.uniform() < 0.5:
            state = ("hermite", int(rng.integers(0, 4)))
        else:
            state = _gaussian(rng, 1.0, (1.0, 1.0))
        kind = "gauss" if name == "gauss" else "poly"
        inputs.append(Input(kind, ["weyl-check", "--g", name, "--state", cf.spec(state), "--dim", str(WEYL_DIM)],
                            {"state": state, "symbol": name, "dim": WEYL_DIM}))
    return inputs, list(range(len(inputs))), {}


def _sampled(rng):
    states = {"coherent.csv": _gaussian(rng, 1.0, (0.8, 1.2)), "hermite.csv": ("hermite", int(rng.integers(1, 4)))}
    xmin, xmax, n = SAMPLED_WIGNER_GRID
    inputs = []
    for fname, s in states.items():
        inputs.append(Input("wigner", ["wigner", "--state", f"file:{fname}", "--xmin", xmin, "--xmax", xmax, "--n", n],
                            {"state": s, "grid": (float(xmin), float(xmax), int(n)), "file": fname}))
    for fname, s in states.items():
        theta = round(float(rng.uniform(0.0, math.pi)), 4)
        inputs.append(Input("marginal", ["marginal", "--state", f"file:{fname}", "--theta", repr(theta)],
                            {"state": s, "theta": theta, "file": fname}))
    # two Wigner exports per marginal: the median falls among the Wigner
    # operations and the tail among the marginals, away from the jump
    return inputs, [0, 1, 0, 1, 2, 3], states


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    rng = _rng(workload, seed)
    inputs, round_keys, sampled = {"export": _export, "tomography": _tomography,
                                   "quantize": _quantize, "sampled": _sampled}[workload](rng)
    rounds = max(math.ceil(MIN_OPS / len(round_keys)), round(seconds / ROUND_SECONDS[workload]))
    order = []
    for _ in range(rounds):
        order += [round_keys[i] for i in rng.permutation(len(round_keys))]
    warmup = []
    for kind in dict.fromkeys(inp.kind for inp in inputs):
        warmup.append(next(k for k in order if inputs[k].kind == kind))
    return Plan(inputs, order, warmup, rounds, sampled)
