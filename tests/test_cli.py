import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import quasiprob
from quasiprob import cli
from quasiprob.cli import main
from quasiprob.serial import load_schema, write_sampled_csv
from quasiprob.numerics import Grid1D, SampledFunction1D
from quasiprob.states import gaussian_state, oscillator_eigenstate

SCHEMA = load_schema()


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_wigner_subcommand(tmp_path, capsys):
    code, rep = run(
        ["wigner", "--state", "hermite:1", "--xmin", "-6", "--xmax", "6", "--n", "64",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["negativity"] > 0
    assert rep["integral"] == pytest.approx(1.0, abs=1e-8)
    assert (tmp_path / "wigner.csv").exists()
    assert (tmp_path / "wigner_matrix.txt").exists()
    assert (tmp_path / "wigner.json").exists()


def test_spin_subcommand_frozen_output(tmp_path, capsys):
    code, rep = run(["spin", "--state", "1,0", "--out", str(tmp_path)], capsys)
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    f = rep["f"]
    assert (f["pp"], f["pm"], f["mp"], f["mm"]) == (0.5, 0.5, 0.0, 0.0)
    assert rep["t"] == 0.0


def test_spin_t_flag_variants(tmp_path, capsys):
    code, rep = run(
        ["spin", "--state", "0.70710678118654752,0.70710678118654752i", "--t", "neg-feynman",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert rep["t"] == pytest.approx(-1.0)


def test_spin_expectation_rounding_past_minus_one(tmp_path, capsys):
    # this normalized state's <Z> rounds to -1.0000000000000002 unless
    # expectations() brings it back into [-1, 1]
    code, rep = run(
        ["spin", "--state", "2.83276944882399e-16,-0.9405090875956454+0.33976853319577227i",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["expectations"]["Z"] == -1.0


def test_negativity_discrete_exact(tmp_path, capsys):
    code, rep = run(["negativity", "--values", "0.6,-0.1,0.3,0.2", "--out", str(tmp_path)], capsys)
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["negative_volume"] == 0.1


def test_negativity_from_state(tmp_path, capsys):
    code, rep = run(
        ["negativity", "--state", "hermite:1", "--xmin", "-6", "--xmax", "6", "--n", "128",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert rep["negative_volume"] == pytest.approx(2 * np.exp(-0.5) - 1, abs=1e-3)


def test_marginal_subcommand(tmp_path, capsys):
    code, rep = run(
        ["marginal", "--state", "gaussian:0,0,1", "--theta", "0.7853981633974483",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["integral"] == pytest.approx(1.0, abs=1e-8)
    assert (tmp_path / "marginal.csv").exists()


def test_charfn_subcommand(tmp_path, capsys):
    code, rep = run(["charfn", "--state", "gaussian:1,-1,1", "--n", "7", "--out", str(tmp_path)], capsys)
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["origin_re"] == pytest.approx(1.0, abs=1e-10)
    assert rep["origin_im"] == pytest.approx(0.0, abs=1e-10)


def test_weyl_check_subcommand(tmp_path, capsys):
    code, rep = run(
        ["weyl-check", "--g", "gauss", "--state", "hermite:0", "--dim", "32", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["rhs"] == pytest.approx(0.5, abs=1e-5)
    assert rep["diff"] < 1e-5


def test_tamper_subcommand_flags_oblique(tmp_path, capsys):
    code, rep = run(["tamper", "--kind", "smooth", "--c", "0.1", "--out", str(tmp_path)], capsys)
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["axis_residual_x"] < 1e-9
    assert rep["axis_residual_p"] < 1e-9
    assert rep["worst_residual"] > 1e-3
    assert rep["flagged"] is True


def test_tamper_tol_sets_the_flag_threshold(tmp_path, capsys):
    code, rep = run(["tamper", "--kind", "smooth", "--c", "0.1", "--tol", "0.5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert 1e-3 < rep["worst_residual"] < 0.5
    assert rep["flagged"] is False


def test_tol_is_only_a_tamper_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--state", "hermite:0", "--tol", "1e-3", "--out", str(tmp_path)])
    assert exc.value.code == 2


TOMO_ARGS = ["tomo", "--state", "gaussian:0.5,-0.7,0.9", "--ndirs", "16"]


def test_tomo_subcommand(tmp_path, capsys):
    code, rep = run(TOMO_ARGS + ["--out", str(tmp_path)], capsys)
    assert code == 0
    jsonschema.validate(rep, SCHEMA)
    assert rep["l2_error"] < 5e-3
    assert rep["worst_theta"] in [k * np.pi / 16 for k in range(16)]


def test_tomo_one_direction_exits_1(tmp_path, capsys):
    assert main(["tomo", "--state", "hermite:0", "--ndirs", "1", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted(o):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setitem(cli.HANDLERS, "wigner", exhausted)
    assert main(["wigner", "--state", "hermite:0", "--n", "100000", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "wigner.json").exists()


def test_file_state_roundtrip(tmp_path, capsys):
    g = Grid1D(-12.0, 12.0, 384)
    psi = oscillator_eigenstate(0)
    path = tmp_path / "state.csv"
    write_sampled_csv(path, SampledFunction1D(g, psi(g.points)))
    code, rep = run(
        ["wigner", "--state", f"file:{path}", "--xmin", "-6", "--xmax", "6", "--n", "64",
         "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 0
    assert rep["negativity"] < 1e-9


def test_byte_identical_rerun(tmp_path, capsys):
    args = ["wigner", "--state", "hermite:1", "--xmin", "-6", "--xmax", "6", "--n", "48"]
    run(args + ["--out", str(tmp_path / "a")], capsys)
    run(args + ["--out", str(tmp_path / "b")], capsys)
    for name in ("wigner.csv", "wigner_matrix.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ja = json.loads((tmp_path / "a" / "wigner.json").read_text())
    jb = json.loads((tmp_path / "b" / "wigner.json").read_text())
    assert ja == jb
    # at a fixed BLAS thread count the quantization's reduction order is fixed,
    # so reruns match bit for bit
    args = ["weyl-check", "--g", "gauss", "--state", "hermite:0", "--dim", "20", "--dump-matrix"]
    run(args + ["--out", str(tmp_path / "c")], capsys)
    run(args + ["--out", str(tmp_path / "d")], capsys)
    for name in ("weyl_matrix.csv", "weyl_check.json"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
    run(TOMO_ARGS + ["--out", str(tmp_path / "e")], capsys)
    run(TOMO_ARGS + ["--out", str(tmp_path / "f")], capsys)
    assert (tmp_path / "e" / "tomo.json").read_bytes() == (tmp_path / "f" / "tomo.json").read_bytes()


def test_config_file_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\nxmin=-8\nxmax=8\nn=64\nhbar=0.5\n")
    code, rep = run(
        ["wigner", "--state", "hermite:0", "--config", str(conf), "--n", "96",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert rep["grid"]["x"]["n"] == 96  # flag beats config
    assert rep["grid"]["x"]["min"] == -8.0  # config beats default
    assert rep["hbar"] == 0.5


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["wigner"]) == 2


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--state", "hermite:0", "--frobnicate", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_state_file_is_precondition_error(capsys, tmp_path):
    assert main(["wigner", "--state", "file:/absent.csv", "--out", str(tmp_path)]) == 1


SAMPLE_ROWS = "".join(f"{i},{-4.0 + 0.5 * i},0.1,0.0\n" for i in range(16))


@pytest.mark.parametrize(
    "rows,sidecar",
    [
        ("0,-4.0,0.1\n" + SAMPLE_ROWS, None),  # a row with 3 fields
        ("0," + "1" * 200000 + ",0.1,0.0\n" + SAMPLE_ROWS, None),  # field above csv's limit
        (SAMPLE_ROWS, "{not json"),
        (SAMPLE_ROWS, '{"grid": {"min": -4.0, "n": 16}}'),
        (SAMPLE_ROWS, '{"grid": {"min": -4.0, "max": 4.0, "n": "sixteen"}}'),
    ],
    ids=["short-row", "huge-field", "sidecar-not-json", "sidecar-no-max", "sidecar-n-not-int"],
)
def test_malformed_state_file_exits_1(tmp_path, capsys, rows, sidecar):
    path = tmp_path / "state.csv"
    path.write_text("index,coordinate,re,im\n" + rows)
    if sidecar is not None:
        (tmp_path / "state.csv.json").write_text(sidecar)
    code = main(["marginal", "--state", f"file:{path}", "--theta", "0.3", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["marginal", "--theta", "0.5", "--hbar", "0"],
        ["charfn", "--hbar", "-1"],
        ["weyl-check", "--g", "gauss", "--dim", "20", "--hbar", "0"],
        ["weyl-check", "--g", "gauss", "--dim", "20", "--hbar", "-1"],
        ["wigner", "--hbar", "0"],
        ["negativity", "--hbar", "-1"],
        ["tomo", "--ndirs", "4", "--hbar", "0"],
    ],
)
def test_file_state_nonpositive_hbar_exits_1(tmp_path, capsys, argv):
    g = Grid1D(-16.0, 16.0, 256)
    path = tmp_path / "coh.csv"
    write_sampled_csv(path, SampledFunction1D(g, gaussian_state(1.0, 0.5, 1.0)(g.points)))
    out = tmp_path / "out"
    assert main(argv + ["--state", f"file:{path}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: hbar must be positive, got ")
    assert not any(out.iterdir())


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a reference
    src = str(Path(quasiprob.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, quasiprob.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_negativity_requires_exactly_one_source(capsys, tmp_path):
    assert main(["negativity", "--out", str(tmp_path)]) == 2
    assert main(
        ["negativity", "--values", "1", "--state", "hermite:0", "--out", str(tmp_path)]
    ) == 2


def test_malformed_state_spec_is_precondition_error(capsys, tmp_path):
    # flag values that fail module preconditions diagnose and exit 1
    assert main(["wigner", "--state", "gaussian:1", "--out", str(tmp_path)]) == 1


def test_bad_config_path_errors(capsys, tmp_path):
    assert main(
        ["wigner", "--state", "hermite:0", "--config", str(tmp_path / "none.conf"),
         "--out", str(tmp_path)]
    ) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--state", "hermite:1", "--xmin", "-6", "--xmax", "6", "--n", "32"],
        ["charfn", "--state", "gaussian:1,-1,1", "--n", "8"],
        ["marginal", "--state", "hermite:2", "--theta", "0.785"],
        ["weyl-check", "--g", "xp", "--state", "hermite:1", "--dim", "12"],
        ["spin", "--state", "1,0"],
        ["negativity", "--values", "0.6,-0.1,0.3,-0.0,1e-05"],
        TOMO_ARGS,
        ["tamper", "--kind", "rect"],
    ],
)
def test_stdout_repeats_report_file(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    report = tmp_path / (argv[0].replace("-", "_") + ".json")
    assert capsys.readouterr().out.encode() == report.read_bytes()


@pytest.mark.parametrize(
    "argv, conf",
    [
        (["spin", "--state", "1,0", "--t", "nan"], None),
        (["spin", "--state", "nan,1"], None),
        (["negativity", "--values", "nan,1"], None),
        (["marginal", "--state", "hermite:2", "--theta", "nan"], None),
        (["marginal", "--state", "hermite:2"], "theta=nan\n"),
        (["marginal", "--state", "gaussian:0,nan,1", "--theta", "0"], None),
        (["wigner", "--state", "hermite:0", "--hbar", "inf"], None),
    ],
)
def test_non_finite_input_exits_1(tmp_path, capsys, argv, conf):
    out = tmp_path / "out"
    if conf is not None:
        (tmp_path / "run.conf").write_text(conf)
        argv = argv + ["--config", str(tmp_path / "run.conf")]
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    for f in out.rglob("*"):
        assert "nan" not in f.read_text().lower()
