"""Command-line front end.

Conventions shared by all subcommands:

  - option precedence is flags > config file > built-in defaults; the config
    file (--config PATH) is flat key=value lines, keys matching the long flag
    names with '-' replaced by '_', '#' starting a comment;
  - main creates --out DIR (default: current directory), writes the handler's
    report there as <subcommand>.json (strict JSON, sorted keys) and prints
    the same text to stdout; log lines go to stderr;
  - usage mistakes (unknown flag/subcommand, malformed numbers) exit 2;
    violated preconditions (bad state spec, unreadable file, out-of-range or
    non-finite values) exit 1 with a diagnostic.

States are named by a mini-grammar: gaussian:x0,p0,sigma | hermite:n |
file:PATH where PATH is a sampled-wavefunction CSV with sidecar.
"""

from __future__ import annotations

import argparse
import cmath
import sys
import warnings
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .numerics import Grid1D, Grid2D, PreconditionError, square_grid
from .serial import read_sampled_csv, write_csv, write_json, write_matrix_txt
from .spin import SpinState, expectations, feynman_choice, nonneg_window, zx_sum_spectrum_report
from .states import DirectionAB, WaveFunction, gaussian_state, oscillator_eigenstate, sampled_state
from .tomography import (
    direction_residuals,
    fan,
    find_violated_direction,
    quantum_marginal,
    rectangle_modification,
    reconstruct_from_marginals,
    smooth_modification,
)
from .verify import format_report, run_verify
from .weyl import moyal_expectation_check, symbol, weyl_quantize
from .wigner import characteristic_function, negative_volume, wigner_transform


class UsageError(Exception):
    pass


REQUIRED = object()

#: (name, converter, default) triples; REQUIRED means the option must come
#: from a flag or the config file.
GLOBAL_OPTS = [("hbar", float, 1.0), ("out", str, ".")]

SUB_OPTS: dict[str, list[tuple[str, Callable, Any]]] = {
    "wigner": [
        ("state", str, REQUIRED),
        ("xmin", float, -8.0),
        ("xmax", float, 8.0),
        ("n", int, 128),
        ("pmin", float, None),
        ("pmax", float, None),
        ("pn", int, None),
    ],
    "charfn": [
        ("state", str, REQUIRED),
        ("amin", float, -4.0),
        ("amax", float, 4.0),
        ("n", int, 64),
    ],
    "marginal": [
        ("state", str, REQUIRED),
        ("theta", float, REQUIRED),
        ("zmin", float, -12.0),
        ("zmax", float, 12.0),
        ("zn", int, 192),
    ],
    "tomo": [
        ("state", str, REQUIRED),
        ("ndirs", int, 64),
    ],
    "tamper": [
        ("state", str, "gaussian:0,0,1"),
        ("kind", str, REQUIRED),
        ("c", float, 0.05),
        ("half_width", float, 1.5),
        ("half_height", float, 1.5),
        ("a", float, 1.0),
        ("b", float, 1.0),
        ("tol", float, 1e-3),
    ],
    "weyl-check": [
        ("state", str, REQUIRED),
        ("g", str, REQUIRED),
        ("dim", int, 64),
        ("dump_matrix", bool, False),
    ],
    "spin": [
        ("state", str, REQUIRED),
        ("t", str, "feynman"),
    ],
    "negativity": [
        ("values", str, None),
        ("state", str, None),
        ("xmin", float, -8.0),
        ("xmax", float, 8.0),
        ("n", int, 128),
    ],
    "verify": [],
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=argparse.SUPPRESS, help="Planck constant (default 1.0)")
    common.add_argument("--out", type=str, default=argparse.SUPPRESS, help="output directory (default .)")
    common.add_argument("--config", type=str, default=argparse.SUPPRESS, help="flat key=value config file")

    p = argparse.ArgumentParser(prog="quasiprob", parents=[common],
                                description="Quasi-probability distributions of 1-D quantum states")
    sub = p.add_subparsers(dest="subcommand", required=True)

    flag_help = {
        "state": "state spec (gaussian:x0,p0,sigma | hermite:n | file:PATH); for spin: c0,c1",
        "theta": "direction angle in radians; the marginal of cos(theta) x + sin(theta) p",
        "ndirs": "number of equally spaced directions",
        "kind": "which marginal-preserving modification: rect | smooth",
        "g": "symbol to quantize: x | p | x2 | p2 | xp | x2p2 | gauss",
        "dim": "oscillator-basis truncation",
        "t": "family parameter: a number, 'feynman' (= <Y>) or 'neg-feynman' (= -<Y>)",
        "values": "comma-separated outcome weights for discrete negativity",
        "dump_matrix": "also write the quantized operator as CSV",
        "tol": "flag the modification when the worst oblique residual exceeds this (default 1e-3)",
    }
    help_txt = {
        "wigner": "phase-space quasi-distribution of a state",
        "charfn": "characteristic function <e^{-i(alpha X + beta P)}> on a grid",
        "marginal": "measured distribution of cos(theta) X + sin(theta) P",
        "tomo": "reconstruct the distribution from marginals and report the error",
        "tamper": "modify a distribution without touching the x/p marginals, then catch it",
        "weyl-check": "compare <g(X,P)> against the phase-space average of g",
        "spin": "Feynman's spin-1/2 quasi-probabilities for a two-amplitude state",
        "negativity": "total negative mass of a distribution or outcome list",
        "verify": "run the full invariant suite (exit 0 only if every check passes)",
    }
    for name, opts in SUB_OPTS.items():
        sp = sub.add_parser(name, parents=[common], help=help_txt[name])
        for opt, conv, _default in opts:
            flag = "--" + opt.replace("_", "-")
            if conv is bool:
                sp.add_argument(flag, action="store_true", default=argparse.SUPPRESS,
                                help=flag_help.get(opt, ""))
            else:
                argtype = str if conv in (str,) else conv
                sp.add_argument(flag, type=argtype, default=argparse.SUPPRESS,
                                help=flag_help.get(opt, ""))
    return p


def parse_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise PreconditionError(f"cannot read config {path}: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreconditionError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def resolve_options(ns: argparse.Namespace, conf: dict[str, str]) -> dict[str, Any]:
    """Apply flag > config > default for the globals plus the subcommand's options."""
    merged: dict[str, Any] = {"subcommand": ns.subcommand}
    for name, conv, default in GLOBAL_OPTS + SUB_OPTS[ns.subcommand]:
        if hasattr(ns, name):
            merged[name] = getattr(ns, name)
        elif name in conf:
            try:
                merged[name] = (conf[name].lower() in ("1", "true", "yes")) if conv is bool else conv(conf[name])
            except ValueError as e:
                raise PreconditionError(f"config value {name}={conf[name]!r} is not a valid {conv.__name__}") from e
        else:
            merged[name] = default
        if isinstance(merged[name], float) and not cmath.isfinite(merged[name]):
            raise PreconditionError(f"--{name.replace('_', '-')} must be finite, got {merged[name]!r}")
    missing = [k for k, v in merged.items() if v is REQUIRED]
    if missing:
        raise UsageError(f"{ns.subcommand}: missing required option(s): " + ", ".join("--" + m.replace("_", "-") for m in missing))
    return merged


def _finite_numbers(parts: list[str], conv: Callable, what: str) -> list:
    """Convert each part with conv; a malformed or non-finite number is a PreconditionError."""
    try:
        vals = [conv(v) for v in parts]
    except ValueError as e:
        raise PreconditionError(f"{what}: {e}") from e
    if not all(cmath.isfinite(v) for v in vals):
        raise PreconditionError(f"{what}: numbers must be finite")
    return vals


def parse_state(spec: str, hbar: float) -> WaveFunction:
    kind, sep, rest = spec.partition(":")
    if kind == "gaussian":
        parts = rest.split(",")
        if not sep or len(parts) != 3:
            raise PreconditionError(f"state spec {spec!r}: expected gaussian:x0,p0,sigma")
        x0, p0, sigma = _finite_numbers(parts, float, f"state spec {spec!r}")
        return gaussian_state(x0, p0, sigma, hbar)
    if kind == "hermite":
        try:
            n = int(rest)
        except ValueError as e:
            raise PreconditionError(f"state spec {spec!r}: expected hermite:n with integer n") from e
        if n < 0:
            raise PreconditionError(f"state spec {spec!r}: level must be >= 0")
        return oscillator_eigenstate(n, hbar)
    if kind == "file":
        if not rest:
            raise PreconditionError(f"state spec {spec!r}: expected file:PATH")
        return sampled_state(read_sampled_csv(rest), hbar, label=f"file:{rest}")
    raise PreconditionError(f"unknown state kind {kind!r} (have gaussian, hermite, file)")


def parse_spin_state(spec: str) -> SpinState:
    parts = spec.split(",")
    if len(parts) != 2:
        raise PreconditionError(f"spin state {spec!r}: expected two comma-separated amplitudes")
    c0, c1 = _finite_numbers([v.strip().replace("i", "j") for v in parts], complex, f"spin state {spec!r}")
    return SpinState(c0, c1)


def _grid1(name: str, lo: float, hi: float, n: int) -> Grid1D:
    try:
        return Grid1D(lo, hi, n)
    except PreconditionError as e:
        raise PreconditionError(f"{name} grid: {e}") from e


def cmd_wigner(o: dict) -> dict:
    psi = parse_state(o["state"], o["hbar"])
    pmin = o["pmin"] if o["pmin"] is not None else o["xmin"]
    pmax = o["pmax"] if o["pmax"] is not None else o["xmax"]
    pn = o["pn"] if o["pn"] is not None else o["n"]
    grid = Grid2D(_grid1("x", o["xmin"], o["xmax"], o["n"]), _grid1("p", pmin, pmax, pn))
    f = wigner_transform(psi, grid)
    d = Path(o["out"])
    write_csv(d / "wigner.csv", ("x", "p", "f"), grid.gx.points[:, None], grid.gp.points, f.values)
    write_matrix_txt(d / "wigner_matrix.txt", f.values)
    report = {
        "kind": "wigner-meta",
        "state": o["state"],
        "hbar": o["hbar"],
        "grid": {
            "x": {"min": grid.gx.min, "max": grid.gx.max, "n": grid.gx.n},
            "p": {"min": grid.gp.min, "max": grid.gp.max, "n": grid.gp.n},
        },
        "negativity": negative_volume(f),
        "integral": f.integral(),
        "min_value": float(f.values.min()),
        "files": {"csv": "wigner.csv", "matrix": "wigner_matrix.txt"},
    }
    return report


def cmd_charfn(o: dict) -> dict:
    psi = parse_state(o["state"], o["hbar"])
    g = _grid1("alpha", o["amin"], o["amax"], o["n"])
    a = g.points[:, None]
    vals = characteristic_function(psi, a, g.points)
    write_csv(Path(o["out"]) / "charfn.csv", ("alpha", "beta", "re", "im"), a, g.points, vals.real, vals.imag)
    origin = characteristic_function(psi, 0.0, 0.0)
    report = {
        "kind": "charfn-meta",
        "state": o["state"],
        "hbar": o["hbar"],
        "grid": {
            "alpha": {"min": g.min, "max": g.max, "n": g.n},
            "beta": {"min": g.min, "max": g.max, "n": g.n},
        },
        "origin_re": origin.real,
        "origin_im": origin.imag,
        "files": {"csv": "charfn.csv"},
    }
    return report


def cmd_marginal(o: dict) -> dict:
    psi = parse_state(o["state"], o["hbar"])
    th = o["theta"]
    dvec = DirectionAB(float(np.cos(th)), float(np.sin(th)))
    zgrid = _grid1("z", o["zmin"], o["zmax"], o["zn"])
    m = quantum_marginal(psi, dvec, zgrid)
    write_csv(Path(o["out"]) / "marginal.csv", ("z", "g"), zgrid.points, m.values)
    report = {
        "kind": "marginal-meta",
        "state": o["state"],
        "hbar": o["hbar"],
        "direction": {"a": dvec.a, "b": dvec.b, "theta": dvec.theta},
        "grid": {"min": zgrid.min, "max": zgrid.max, "n": zgrid.n},
        "integral": m.integral(),
        "files": {"csv": "marginal.csv"},
    }
    return report


def cmd_tomo(o: dict) -> dict:
    psi = parse_state(o["state"], o["hbar"])
    ndirs = o["ndirs"]
    if ndirs < 2:
        raise PreconditionError(f"tomo needs at least 2 directions, got {ndirs}")
    grid = square_grid(-8.0, 8.0, 128)
    zgrid = Grid1D(-32.0, 32.0, 512)
    margs = [quantum_marginal(psi, d, zgrid) for d in fan(ndirs)]
    rec = reconstruct_from_marginals(margs, grid)
    ref = wigner_transform(psi, grid)
    l2 = float(np.sqrt(np.sum((rec.values - ref.values) ** 2) * grid.gx.spacing * grid.gp.spacing))
    probes = [k * np.pi / min(ndirs, 16) for k in range(min(ndirs, 16))]
    with warnings.catch_warnings():
        # probing the reconstruction: its marginals carry the (reported)
        # reconstruction error, so the unit-norm warning is redundant here
        warnings.simplefilter("ignore", UserWarning)
        worst_theta, worst_residual = find_violated_direction(rec, psi, probes)
    report = {
        "kind": "tomo-report",
        "state": o["state"],
        "hbar": o["hbar"],
        "ndirs": ndirs,
        "l2_error": l2,
        "worst_theta": worst_theta,
        "worst_residual": worst_residual,
    }
    return report


def cmd_tamper(o: dict) -> dict:
    psi = parse_state(o["state"], o["hbar"])
    grid = square_grid(-8.0, 8.0, 128)
    f = wigner_transform(psi, grid)
    if o["kind"] == "rect":
        mod = rectangle_modification(f, o["half_width"], o["half_height"], o["c"])
    elif o["kind"] == "smooth":
        mod = smooth_modification(f, o["a"], o["b"], o["c"])
    else:
        raise PreconditionError(f"tamper kind must be rect or smooth, got {o['kind']!r}")
    axis_res = direction_residuals(mod, psi, [0.0, np.pi / 2])
    probes = [k * np.pi / 8 for k in range(1, 8) if k != 4]
    worst_theta, worst_residual = find_violated_direction(mod, psi, probes)
    report = {
        "kind": "tamper-report",
        "state": o["state"],
        "hbar": o["hbar"],
        "modification": o["kind"],
        "c": o["c"],
        "axis_residual_x": float(axis_res[0]),
        "axis_residual_p": float(axis_res[1]),
        "worst_theta": worst_theta,
        "worst_residual": worst_residual,
        "flagged": worst_residual > o["tol"],
    }
    return report


def cmd_weyl_check(o: dict) -> dict:
    psi = parse_state(o["state"], o["hbar"])
    g = symbol(o["g"])
    M = weyl_quantize(g, o["dim"], hbar=psi.hbar)
    lhs, rhs, diff = moyal_expectation_check(g, psi, M)
    report = {
        "kind": "weyl-check",
        "state": o["state"],
        "hbar": o["hbar"],
        "symbol": o["g"],
        "dim": o["dim"],
        "lhs": lhs,
        "rhs": rhs,
        "diff": diff,
    }
    if o["dump_matrix"]:
        k = np.arange(M.shape[0])
        write_csv(Path(o["out"]) / "weyl_matrix.csv", ("i", "j", "re", "im"), k[:, None], k, M.real, M.imag)
    return report


def cmd_spin(o: dict) -> dict:
    st = parse_spin_state(o["state"])
    tspec = o["t"]
    if tspec not in ("feynman", "neg-feynman"):
        what = f"--t must be a number, 'feynman' or 'neg-feynman', got {tspec!r}"
        (tspec,) = _finite_numbers([tspec], float, what)
    f = feynman_choice(st, tspec)
    ex, ey, ez = expectations(st)
    lo, hi = nonneg_window(ez, ex)
    report = {
        "kind": "spin-report",
        "state": o["state"],
        "expectations": {"X": ex, "Y": ey, "Z": ez},
        "f": {"pp": f.fpp, "pm": f.fpm, "mp": f.fmp, "mm": f.fmm},
        "t": f.t,
        "window": {"lo": lo, "hi": hi},
        "nonnegative": f.nonnegative(),
        "zx_report": zx_sum_spectrum_report(f),
    }
    return report


def cmd_negativity(o: dict) -> dict:
    if (o["values"] is None) == (o["state"] is None):
        raise UsageError("negativity: pass exactly one of --values or --state")
    if o["values"] is not None:
        vals = _finite_numbers(o["values"].split(","), float, f"--values {o['values']!r}")
        if not vals:
            raise PreconditionError("--values: empty list")
        report = {
            "kind": "negativity-report",
            "source": "discrete",
            "negative_volume": negative_volume(vals),
            "values": vals,
        }
    else:
        psi = parse_state(o["state"], o["hbar"])
        grid = Grid2D(_grid1("x", o["xmin"], o["xmax"], o["n"]), _grid1("p", o["xmin"], o["xmax"], o["n"]))
        f = wigner_transform(psi, grid)
        report = {
            "kind": "negativity-report",
            "source": "wigner",
            "negative_volume": negative_volume(f),
            "state": o["state"],
            "hbar": o["hbar"],
        }
    return report


def cmd_verify(o: dict) -> dict:
    report = run_verify()
    print(format_report(report), file=sys.stderr)
    # wall-clock measurements stay on stderr: the artifact must be
    # byte-identical across reruns, so budget checks keep only the verdict
    checks = [
        {k: v for k, v in c.items() if not (k == "value" and c["name"].endswith("-runtime-s"))}
        for c in report["checks"]
    ]
    return {"kind": report["kind"], "ok": report["ok"], "checks": checks}


HANDLERS = {
    "wigner": cmd_wigner,
    "charfn": cmd_charfn,
    "marginal": cmd_marginal,
    "tomo": cmd_tomo,
    "tamper": cmd_tamper,
    "weyl-check": cmd_weyl_check,
    "spin": cmd_spin,
    "negativity": cmd_negativity,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        conf = parse_config(ns.config) if hasattr(ns, "config") else {}
        opts = resolve_options(ns, conf)
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        report = HANDLERS[ns.subcommand](opts)
        text = write_json(out / (ns.subcommand.replace("-", "_") + ".json"), report)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1
    sys.stdout.write(text)
    if ns.subcommand == "verify":
        return 0 if report["ok"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
