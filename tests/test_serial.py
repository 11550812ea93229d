import json

import jsonschema
import numpy as np
import pytest

from quasiprob.numerics import Grid1D, PreconditionError, SampledFunction1D
from quasiprob.serial import (
    load_schema,
    read_sampled_csv,
    schema_path,
    write_csv,
    write_json,
    write_matrix_txt,
    write_sampled_csv,
)
from quasiprob.states import gaussian_state

# tiny literal inputs: signed zero, small, huge and subnormal values
REAL = np.array([[-0.0, 1e-05, 1e16], [5e-324, 0.1, -2.5]])
CPLX = np.array([[complex(1.0, -0.0), complex(1e-05, 1e16)], [complex(5e-324, 0.0), complex(-2.5, 0.1)]])


def test_schema_ships_with_package():
    p = schema_path()
    assert p.exists()
    schema = load_schema()
    assert "$defs" in schema


def test_sampled_csv_roundtrip(tmp_path):
    g = Grid1D(-5.0, 5.0, 64)
    psi = gaussian_state(0.5, -1.0, 1.0)
    f = SampledFunction1D(g, psi(g.points))
    path = tmp_path / "state.csv"
    write_sampled_csv(path, f)
    back = read_sampled_csv(path)
    # repr-based float formatting makes the roundtrip exact
    assert np.array_equal(back.values, f.values)
    assert back.grid.min == g.min
    assert back.grid.n == g.n


def test_sampled_csv_roundtrip_without_sidecar(tmp_path):
    g = Grid1D(-3.0, 3.0, 32)
    f = SampledFunction1D(g, np.exp(-g.points**2))
    path = tmp_path / "state.csv"
    write_sampled_csv(path, f)
    path.with_suffix(".csv.json").unlink()
    back = read_sampled_csv(path)
    assert np.max(np.abs(back.values - f.values)) == 0.0
    assert back.grid.spacing == pytest.approx(g.spacing, rel=1e-15)


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(PreconditionError) as err:
        read_sampled_csv(path)
    assert str(err.value) == f"{path}: expected header index,coordinate,re,im"


def test_read_rejects_missing_file(tmp_path):
    with pytest.raises(PreconditionError):
        read_sampled_csv(tmp_path / "absent.csv")


def test_write_json_is_deterministic(tmp_path):
    doc = {
        "b": np.float64(2.0),
        "a": [np.int64(1), 2.5],
        "nested": {"x": np.array([1.0, 2.0])},
        "flag": np.bool_(True),
        "single": np.float32(0.5),
        "pair": (1, np.int64(2)),
    }
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    write_json(p1, doc)
    write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["b"] == 2.0
    assert loaded["nested"]["x"] == [1.0, 2.0]
    assert loaded["flag"] is True
    assert loaded["single"] == 0.5
    assert loaded["pair"] == [1, 2]


def test_wigner_csv_layout(tmp_path, ground, mid_grid):
    from quasiprob.wigner import wigner_transform

    f = wigner_transform(ground, mid_grid)
    path = tmp_path / "w.csv"
    write_csv(path, ("x", "p", "f"), mid_grid.gx.points[:, None], mid_grid.gp.points, f.values)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,p,f"
    assert len(lines) == 1 + 128 * 128


def test_matrix_txt_plotter_format(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix_txt(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    rows = path.read_text().splitlines()
    assert len(rows) == 2
    assert [float(v) for v in rows[0].split()] == [1.0, 2.0]


def test_marginal_csv_header(tmp_path):
    path = tmp_path / "g.csv"
    write_csv(path, ("z", "g"), np.array([0.0, 1.0]), np.array([0.5, 0.25]))
    lines = path.read_text().splitlines()
    assert lines[0] == "z,g"


def test_schema_rejects_malformed_report():
    schema = load_schema()
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "spin-report"}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "nonsense"}, schema)


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(PreconditionError):
        write_json(path, {"kind": "x", "v": np.float64("nan")})
    assert not path.exists()


def test_write_json_returns_the_text_it_wrote(tmp_path):
    path = tmp_path / "r.json"
    assert write_json(path, {"b": 1, "a": -0.0}) == path.read_text() == '{\n  "a": -0.0,\n  "b": 1\n}\n'


def test_wigner_csv_bytes(tmp_path):
    x, p = Grid1D(-1.0, 1.0, 2).points, Grid1D(0.0, 3.0, 3).points  # n != pn
    path = tmp_path / "wigner.csv"
    write_csv(path, ("x", "p", "f"), x[:, None], p, REAL)
    assert path.read_bytes() == (
        b"x,p,f\n"
        b"-1.0,0.0,-0.0\n-1.0,1.0,1e-05\n-1.0,2.0,1e+16\n"
        b"0.0,0.0,5e-324\n0.0,1.0,0.1\n0.0,2.0,-2.5\n"
    )


def test_matrix_txt_bytes(tmp_path):
    path = tmp_path / "wigner_matrix.txt"
    write_matrix_txt(path, REAL)
    assert path.read_bytes() == b"-0.0 1e-05 1e+16\n5e-324 0.1 -2.5\n"


def test_marginal_csv_bytes(tmp_path):
    path = tmp_path / "marginal.csv"
    write_csv(path, ("z", "g"), REAL[:, 0], REAL[:, 2])
    assert path.read_bytes() == b"z,g\n-0.0,1e+16\n5e-324,-2.5\n"


def test_charfn_csv_bytes(tmp_path):
    a = Grid1D(-1.0, 1.0, 2).points
    path = tmp_path / "charfn.csv"
    write_csv(path, ("alpha", "beta", "re", "im"), a[:, None], a, CPLX.real, CPLX.imag)
    assert path.read_bytes() == (
        b"alpha,beta,re,im\n"
        b"-1.0,-1.0,1.0,-0.0\n-1.0,0.0,1e-05,1e+16\n"
        b"0.0,-1.0,5e-324,0.0\n0.0,0.0,-2.5,0.1\n"
    )


def test_weyl_matrix_csv_bytes(tmp_path):
    k = np.arange(2)
    path = tmp_path / "weyl_matrix.csv"
    write_csv(path, ("i", "j", "re", "im"), k[:, None], k, CPLX.real, CPLX.imag)
    assert path.read_bytes() == (
        b"i,j,re,im\n"
        b"0,0,1.0,-0.0\n0,1,1e-05,1e+16\n"
        b"1,0,5e-324,0.0\n1,1,-2.5,0.1\n"
    )


def test_sampled_csv_and_sidecar_bytes(tmp_path):
    sf = SampledFunction1D(Grid1D(-2.0, 2.0, 4), CPLX.ravel())
    path = tmp_path / "state.csv"
    write_sampled_csv(path, sf, sidecar={"label": "pinned"})
    assert path.read_bytes() == (
        b"index,coordinate,re,im\n"
        b"0,-2.0,1.0,-0.0\n1,-1.0,1e-05,1e+16\n"
        b"2,0.0,5e-324,0.0\n3,1.0,-2.5,0.1\n"
    )
    assert (tmp_path / "state.csv.json").read_bytes() == (
        b'{\n  "grid": {\n    "max": 2.0,\n    "min": -2.0,\n    "n": 4\n  },\n'
        b'  "kind": "wavefunction",\n  "label": "pinned"\n}\n'
    )
