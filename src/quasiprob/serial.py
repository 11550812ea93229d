"""On-disk formats: CSV tables, whitespace matrix dumps, and JSON reports.

Every CSV starts with a header row.  Numbers are written with repr, the
shortest digit string that round-trips, so identical inputs produce
byte-identical files.  JSON reports carry a "kind" tag and validate against
schemas/outputs.schema.json; write_json sorts keys, appends a newline for
the same reproducibility reason, and refuses NaN and infinities.
"""

from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path

import numpy as np

from .numerics import Grid1D, PreconditionError, SampledFunction1D

SCHEMA_NAME = "outputs.schema.json"


def schema_path() -> Path:
    """Filesystem path of the shipped JSON schema."""
    return Path(str(resources.files("quasiprob") / "schemas" / SCHEMA_NAME))


def write_json(path: str | Path, obj: dict) -> str:
    """Write obj as strict JSON (sorted keys, trailing newline) and return the text.

    numpy scalars and arrays are written as their .tolist() (np.float64 is a
    float already).  A non-finite number is a PreconditionError, raised before
    anything is written.
    """
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=lambda v: v.tolist()) + "\n"
    except ValueError as e:
        raise PreconditionError(f"{Path(path).name}: report holds a non-finite number ({e})") from e
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text


def write_csv(path: str | Path, header: tuple[str, ...], *columns) -> None:
    """Header row, then one row per element of the broadcast columns, in C order.

    Each value is the repr of a Python int or float.  Rows are produced one
    leading-axis slice at a time, so a column given as x[:, None] against p is
    never materialized as a full meshgrid.
    """
    cols = [np.atleast_2d(c) for c in np.broadcast_arrays(*columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in zip(*cols):
            rows = zip(*(b.ravel().tolist() for b in block))
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def write_sampled_csv(path: str | Path, sf: SampledFunction1D) -> None:
    """Complex samples as (index, coordinate, re, im) plus a JSON sidecar.

    The sidecar (same name with .json appended) records the grid and the
    kind "wavefunction", so a reader does not have to re-infer the lattice
    from the coordinates.
    """
    path = Path(path)
    vals = np.asarray(sf.values, dtype=complex)
    write_csv(path, ("index", "coordinate", "re", "im"), np.arange(sf.grid.n), sf.grid.points, vals.real, vals.imag)
    grid = {"min": sf.grid.min, "max": sf.grid.max, "n": sf.grid.n}
    write_json(path.with_suffix(path.suffix + ".json"), {"kind": "wavefunction", "grid": grid})


def read_sampled_csv(path: str | Path) -> SampledFunction1D:
    """Read samples written by write_sampled_csv; the sidecar is optional
    (without it the grid is inferred from the coordinate column)."""
    path = Path(path)
    coords: list[float] = []
    vals: list[complex] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None or [h.strip() for h in header[:4]] != ["index", "coordinate", "re", "im"]:
                raise PreconditionError(f"{path}: expected header index,coordinate,re,im")
            for row in rows:
                if not row:
                    continue
                _, z, re, im = row[:4]  # a short row fails to unpack (ValueError)
                coords.append(float(z))
                vals.append(complex(float(re), float(im)))
    except OSError as e:
        raise PreconditionError(f"cannot read {path}: {e}") from e
    except PreconditionError:  # the header check's own message
        raise
    except (ValueError, csv.Error) as e:
        raise PreconditionError(f"{path}: malformed sample row: {e}") from e
    if len(coords) < 2:
        raise PreconditionError(f"{path}: need at least 2 samples, got {len(coords)}")

    sidecar = path.with_suffix(path.suffix + ".json")
    if sidecar.exists():
        try:
            with open(sidecar, encoding="utf-8") as fh:
                g = json.load(fh)["grid"]
            lo, hi, n = float(g["min"]), float(g["max"]), int(g["n"])
        except (OSError, ValueError, LookupError, TypeError, OverflowError) as e:
            raise PreconditionError(f"{sidecar}: need JSON with grid.min, grid.max and integer grid.n ({e!r})") from e
        grid = Grid1D(lo, hi, n)
    else:
        dx = coords[1] - coords[0]
        grid = Grid1D(coords[0], coords[0] + dx * len(coords), len(coords))
    if grid.n != len(coords):
        raise PreconditionError(f"{path}: sidecar grid n={grid.n} but file has {len(coords)} rows")
    if abs(grid.points[0] - coords[0]) > 1e-9 or abs(grid.points[-1] - coords[-1]) > 1e-9:
        raise PreconditionError(f"{path}: coordinates disagree with the sidecar grid")
    return SampledFunction1D(grid, np.array(vals))


def write_wigner_csv(path: str | Path, matrix_path: str | Path, x, p, values) -> None:
    """wigner.csv, (x, p, f) rows x-major as write_csv writes them, and the
    plotter matrix of f (one whitespace-separated row per line) in one pass.

    Each value of f is formatted once, for both files; each x once per row and
    each p once per call.  f is converted to Python floats one row at a time,
    so the pass holds one row of strings, never a table of all of f.
    """
    pcs = [repr(v) + "," for v in np.asarray(p, dtype=float).tolist()]
    with (
        open(path, "w", encoding="utf-8", newline="\n") as fh,
        open(matrix_path, "w", encoding="utf-8", newline="\n") as mh,
    ):
        fh.write("x,p,f\n")
        for xv, row in zip(np.asarray(x, dtype=float).tolist(), np.asarray(values, dtype=float), strict=True):
            vs = list(map(repr, row.tolist()))
            mh.write(" ".join(vs) + "\n")
            xr = repr(xv) + ","
            fh.write("".join([xr + pc + v + "\n" for pc, v in zip(pcs, vs, strict=True)]))
