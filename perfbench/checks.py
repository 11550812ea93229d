"""Checks of every operation's outputs against closed forms.

`report_problems` is the strict part: a report that is not strict JSON
(NaN and Infinity are refused) or does not validate against the shipped
schema makes its operation count as failed.  `content_problems` compares the
artifacts with closed forms computed in closedforms.py, never with a stored
copy of an earlier run; a problem there makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import closedforms as cf

#: Max-abs error allowed on Wigner samples: the 1e-8 the program itself
#: holds the integral of a Wigner transform to.
WIGNER_TOL = 1e-8
#: Max-abs error on marginal samples of a sampled state; the band-limited
#: lookup reproduces the closed form to about 2e-12 on these lattices.
MARGINAL_TOL = 1e-9
#: Error allowed on either side of <g(X,P)> = integral g W: the bound the
#: program's verify suite holds the Moyal table to.
MOYAL_TOL = 1e-4
#: Dual spacing of the program's fixed tomography z-grid [-32, 32) with 512
#: points, on which each marginal's transform is interpolated in radius.
TOMO_DZETA = 2 * math.pi / 64.0

#: The JSON report each subcommand writes next to its data files.
REPORT_FILE = {"wigner": "wigner.json", "marginal": "marginal.json", "tomo": "tomo.json",
               "gauss": "weyl_check.json", "poly": "weyl_check.json"}


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def strict_json(text: str):
    return json.loads(text, parse_constant=_refuse_constant)


class Checker:
    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def report_problems(self, text: str, what: str) -> tuple[dict | None, list[str]]:
        try:
            obj = strict_json(text)
        except ValueError as e:
            return None, [f"{what}: not strict JSON ({e})"]
        errors = [f"{what}: {e.message}" for e in self.validator.iter_errors(obj)]
        return (obj if not errors else None), errors

    def content_problems(self, inp, report: dict, out: Path) -> list[str]:
        """Problems of one input's report and artifacts (a workloads.Input)."""
        kind, check = inp.kind, inp.check
        state = tuple(check["state"])
        probs = []
        want_state = f"file:{check['file']}" if "file" in check else cf.spec(state)
        if report.get("state") != want_state:
            probs.append(f"report state {report.get('state')!r} != {want_state!r}")
        if report.get("hbar") != 1.0:
            probs.append(f"report hbar {report.get('hbar')!r} != 1.0")
        if kind == "wigner":
            probs += self._wigner(state, check["grid"], report, out)
        elif kind == "marginal":
            probs += self._marginal(state, check["theta"], report, out)
        elif kind == "tomo":
            probs += self._tomo(state, check["ndirs"], report)
        else:
            probs += self._weyl(state, check["symbol"], check["dim"], report)
        return probs

    @staticmethod
    def _table(path: Path, header: str) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            if first != header:
                raise ValueError(f"{path.name}: header {first!r} != {header!r}")
            return np.loadtxt(fh, delimiter=",", ndmin=2)

    def _wigner(self, state, grid, report, out: Path) -> list[str]:
        lo, hi, n = grid
        dx = (hi - lo) / n
        axis = lo + dx * np.arange(n)
        try:
            t = self._table(out / "wigner.csv", "x,p,f")
            m = np.loadtxt(out / "wigner_matrix.txt", ndmin=2)
        except (OSError, ValueError) as e:
            return [str(e)]
        if t.shape != (n * n, 3) or m.shape != (n, n):
            return [f"wigner shapes {t.shape}, {m.shape} for n={n}"]
        probs = []
        X, P = np.meshgrid(axis, axis, indexing="ij")
        if np.abs(t[:, 0] - X.ravel()).max() > 1e-12 or np.abs(t[:, 1] - P.ravel()).max() > 1e-12:
            probs.append("wigner.csv coordinates are not the requested grid")
        f = t[:, 2]
        err = float(np.abs(f - cf.wigner(state, t[:, 0], t[:, 1])).max())
        if not err <= WIGNER_TOL:
            probs.append(f"wigner.csv differs from the closed form by {err:.3e}")
        if not np.array_equal(m.ravel(), f):
            probs.append("wigner_matrix.txt disagrees with wigner.csv")
        g = {"min": lo, "max": hi, "n": n}
        if report["grid"] != {"x": g, "p": g}:
            probs.append(f"report grid {report['grid']} != {g}")
        if not abs(report["integral"] - 1.0) <= WIGNER_TOL:
            probs.append(f"report integral {report['integral']!r}")
        if report["min_value"] != f.min():
            probs.append(f"report min_value {report['min_value']!r} != {f.min()!r}")
        neg = float(np.maximum(-f, 0.0).sum() * dx * dx)
        if not abs(report["negativity"] - neg) <= 1e-12:
            probs.append(f"report negativity {report['negativity']!r} != {neg!r}")
        return probs

    def _marginal(self, state, theta, report, out: Path) -> list[str]:
        try:
            t = self._table(out / "marginal.csv", "z,g")
        except (OSError, ValueError) as e:
            return [str(e)]
        probs = []
        lo, hi, n = -12.0, 12.0, 192  # the program's default z-grid
        z = lo + (hi - lo) / n * np.arange(n)
        if t.shape != (n, 2) or np.abs(t[:, 0] - z).max() > 1e-12:
            return [f"marginal.csv is not on the default z-grid (shape {t.shape})"]
        err = float(np.abs(t[:, 1] - cf.marginal(state, theta, z)).max())
        if not err <= MARGINAL_TOL:
            probs.append(f"marginal.csv differs from the closed form by {err:.3e}")
        d = report["direction"]
        if not (abs(d["a"] - math.cos(theta)) <= 1e-15 and abs(d["b"] - math.sin(theta)) <= 1e-15
                and abs(d["theta"] - theta) <= 1e-12):
            probs.append(f"report direction {d} for theta {theta}")
        if report["grid"] != {"min": lo, "max": hi, "n": n}:
            probs.append(f"report grid {report['grid']}")
        if not abs(report["integral"] - 1.0) <= WIGNER_TOL:
            probs.append(f"report integral {report['integral']!r}")
        return probs

    @staticmethod
    def _tomo(state, ndirs, report) -> list[str]:
        l2_bound, sup_bound = cf.tomography_bounds(state, ndirs, TOMO_DZETA)
        probs = []
        if report["ndirs"] != ndirs:
            probs.append(f"report ndirs {report['ndirs']}")
        if not report["l2_error"] <= l2_bound:
            probs.append(f"l2_error {report['l2_error']:.3e} above the interpolation bound {l2_bound:.3e}")
        if not report["worst_residual"] <= sup_bound:
            probs.append(f"worst_residual {report['worst_residual']:.3e} above the bound {sup_bound:.3e}")
        probes = [k * math.pi / min(ndirs, 16) for k in range(min(ndirs, 16))]
        if not any(abs(report["worst_theta"] - t) <= 1e-12 for t in probes):
            probs.append(f"worst_theta {report['worst_theta']!r} is not a probe angle")
        return probs

    @staticmethod
    def _weyl(state, symbol, dim, report) -> list[str]:
        want = cf.expectation(symbol, state)
        probs = []
        if report["symbol"] != symbol or report["dim"] != dim:
            probs.append(f"report symbol/dim {report['symbol']}/{report['dim']}")
        for side in ("lhs", "rhs"):
            if not abs(report[side] - want) <= MOYAL_TOL:
                probs.append(f"{side} {report[side]!r} differs from the closed form {want!r}")
        if not abs(report["diff"] - abs(report["lhs"] - report["rhs"])) <= 1e-15:
            probs.append(f"diff {report['diff']!r} != |lhs - rhs|")
        return probs
