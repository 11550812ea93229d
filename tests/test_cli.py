import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import quasiprob
from quasiprob import cli, tomography, verify
from quasiprob.cli import main
from quasiprob.serial import schema_path, write_sampled_csv
from quasiprob.numerics import Grid1D, PreconditionError, SampledFunction1D
from quasiprob.states import fock_expansion, gaussian_state, oscillator_eigenstate

SCHEMA = json.loads(schema_path().read_text())


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
    # a state's negativity is the one wigner reports
    code, rep = run(
        ["wigner", "--state", "hermite:1", "--xmin", "-6", "--xmax", "6", "--n", "128",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert rep["negativity"] == pytest.approx(2 * np.exp(-0.5) - 1, abs=1e-3)


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


@pytest.mark.parametrize("state,dim", [("hermite:3", "16"), ("hermite:3", "8"), ("hermite:2", "8")])
def test_weyl_check_is_exact_once_the_state_fits(tmp_path, capsys, state, dim):
    # <n| e^{-x^2-p^2} |n> quantizes to ((1-hbar)/(1+hbar))^n / (1+hbar), which
    # is 0 at hbar = 1; with the exact matrix elements a state inside the
    # basis sees no truncation error, even at the smallest --dim it fits in
    code, rep = run(["weyl-check", "--g", "gauss", "--state", state, "--dim", dim, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert abs(rep["lhs"]) < 1e-12


@pytest.mark.parametrize("g,dim", [("gauss", "64"), ("x2p2", "20")])
def test_weyl_matrix_bits_do_not_depend_on_blas_threads(tmp_path, g, dim):
    src = str(Path(quasiprob.__file__).parents[1])
    dumps = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["weyl-check", "--g", g, "--state", "hermite:0", "--dim", dim, "--dump-matrix", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "quasiprob", *argv], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        dumps.append((out / "weyl_matrix.csv").read_bytes())
    assert dumps[0] == dumps[1]


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
    # the quantization's reduction order is fixed, so reruns match bit for bit
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
        ["tomo", "--ndirs", "4", "--hbar", "0"],
        ["tomo", "--ndirs", "4", "--hbar", "-1"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["marginal", "--state", "hermite:0", "--theta", "0.3"],
        ["charfn", "--state", "hermite:2"],
    ],
)
def test_tiny_hbar_fails_on_the_norm_witness(tmp_path, capsys, argv):
    # a state of width sqrt(1e-300) falls between the working grid's points;
    # the marginal integral (3.5e148) or chi(0, 0) (1.76e148) is off 1
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--hbar", "1e-300", "--out", str(out)]) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not 1 within 1e-6" in lines[0]
    assert not any(out.iterdir())


def test_marginal_past_the_fock_cap_exits_1(tmp_path, capsys):
    # a width-0.1 squeeze needs oscillator coefficients beyond n = 2048
    out = tmp_path / "out"
    assert main(["marginal", "--state", "gaussian:0,0,0.1", "--theta", "0.7", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not any(out.iterdir())


@pytest.mark.parametrize("spec", ["gaussian:0.5,-0.3,0.2", "gaussian:0.5,-0.3,2.5", "gaussian:0,0,4"])
def test_marginal_of_narrow_and_wide_states(tmp_path, capsys, spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run(["marginal", "--state", spec, "--theta", "0.7", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["integral"] == pytest.approx(1.0, abs=1e-6)
    if spec == "gaussian:0,0,4":
        assert not caught
        assert capsys.readouterr().err == ""


def test_file_state_tomography_matches_closed_form(tmp_path, capsys):
    g = Grid1D(-16.0, 16.0, 256)
    path = tmp_path / "coh.csv"
    write_sampled_csv(path, SampledFunction1D(g, gaussian_state(1.0, -1.5, 1.0)(g.points)))
    args = ["tomo", "--ndirs", "8"]
    code, sampled = run(args + ["--state", f"file:{path}", "--out", str(tmp_path / "f")], capsys)
    assert code == 0
    code, closed = run(args + ["--state", "gaussian:1,-1.5,1", "--out", str(tmp_path / "g")], capsys)
    assert code == 0
    for key in ("l2_error", "worst_residual"):
        assert abs(sampled[key] - closed[key]) <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--state", "hermite:1"],
        ["wigner", "--state", "gaussian:0,0,1"],
        ["charfn", "--state", "hermite:1"],
        ["marginal", "--state", "hermite:1", "--theta", "0.3"],
        ["tomo", "--state", "hermite:1", "--ndirs", "4"],
    ],
)
def test_huge_hbar_exits_1_with_one_line(tmp_path, capsys, argv):
    # at hbar = 1e300 a Hermite state is 1e150 wide and a Gaussian's shifted
    # copies lie near 1e300, so each witness misses 1 (an integral or chi(0, 0)
    # of 0 to 0.99) and fails with no warning ahead of its line
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--hbar", "1e300", "--out", str(out)]) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not any(out.iterdir())


@pytest.mark.parametrize("hbar, bad", [("1e308", 2994), ("4.6e307", 1704)])
def test_charfn_overflowing_hbar_exits_1_with_one_line(tmp_path, capsys, hbar, bad):
    # beta*hbar and alpha*beta*hbar overflow to inf and chi to NaN, which the
    # |chi| > 1e-10 test of the shift warning cannot see; hbar = 1e300 still
    # gives finite values for this state and exits 0
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["charfn", "--state", "gaussian:0,1,1", "--hbar", hbar, "--out", str(out)]) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: characteristic_function: {bad} non-finite value(s)"]
    assert not (out / "charfn.csv").exists()


@pytest.mark.parametrize("sigma", ["1e-200", "1e-170", "1e200", "1e300"])
@pytest.mark.parametrize("argv", [["wigner"], ["charfn"], ["marginal", "--theta", "0.3"]])
def test_extreme_gaussian_width_exits_1_with_one_line(tmp_path, capsys, argv, sigma):
    # sigma^2 underflows to 0 or overflows to inf, where (pi sigma^2)^(-1/4)
    # would raise ZeroDivisionError or OverflowError
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--state", f"gaussian:0,0,{sigma}", "--out", str(out)]) == 1
    assert not caught
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sigma^2 must be a positive finite double")
    assert not any(out.iterdir())


@pytest.fixture
def searches(monkeypatch):
    """Labels of the states that cli and verify expand, one per coefficient search."""
    calls = []

    def counted(psi):
        calls.append(psi.label)
        return fock_expansion(psi)

    monkeypatch.setattr(cli, "fock_expansion", counted)
    monkeypatch.setattr(verify, "fock_expansion", counted)
    return calls


def test_tomo_searches_the_state_coefficients_once_per_direction_set(tmp_path, capsys, searches):
    # one search serves both direction sets: the fan and the probes of the reconstruction
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the coverage gap of 4 directions
        code, _ = run(["tomo", "--state", "hermite:2", "--ndirs", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert searches == ["hermite:2"]


@pytest.mark.parametrize("kind", ["rect", "smooth"])
def test_tamper_searches_the_state_coefficients_once(tmp_path, capsys, monkeypatch, searches, kind):
    # the axes and the probes are one direction set
    calls = []
    marginals = tomography.quantum_marginal

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return marginals(*args, **kwargs)

    monkeypatch.setattr(tomography, "quantum_marginal", counted)
    code, _ = run(["tamper", "--kind", kind, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert calls == [8]
    assert len(searches) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["marginal", "--state", "hermite:2", "--theta", "0.3"],
        ["weyl-check", "--state", "hermite:2", "--g", "gauss", "--dim", "20"],
    ],
    ids=["marginal", "weyl-check"],
)
def test_state_command_searches_the_state_coefficients_once(tmp_path, capsys, searches, argv):
    code, _ = run(argv + ["--out", str(tmp_path)], capsys)
    assert code == 0
    assert searches == ["hermite:2"]


def test_verify_searches_each_state_once(searches):
    # hermite:3 and the two coherent states serve the displacement check,
    # hermite:3 once at each of hbar = 0.5 and 2
    assert verify.run_verify()["ok"]
    assert sorted(searches) == [
        "gaussian(1.0,-1.5,0.7071067811865476)",
        "gaussian(1.0,-1.5,1.4142135623730951)",
        "gaussian(2.0,3.0,1.0)",
        "hermite:0",
        "hermite:1",
        "hermite:3",
        "hermite:3",
    ]


def _verify(tmp_path, capsys):
    """Exit code, report, stderr lines of an in-process verify; the report is also its stdout."""
    code = main(["verify", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    text = (tmp_path / "verify.json").read_text()
    assert captured.out == text
    rep = json.loads(text)
    jsonschema.validate(rep, SCHEMA)
    return code, rep, captured.err.splitlines()


def test_verify_table_follows_the_report(tmp_path, capsys):
    # one stderr row per check, in the report's order, then the summary;
    # the runtime's value is on its row and nowhere in the report
    code, rep, lines = _verify(tmp_path, capsys)
    assert code == 0 and rep["ok"]
    *rows, summary = lines
    assert len(rows) == len(rep["checks"]) == 30
    runtimes = 0
    for row, c in zip(rows, rep["checks"]):
        mark = "PASS" if c["ok"] else "FAIL"
        if c["name"].endswith("-runtime-s"):
            runtimes += 1
            assert "value" not in c
            value = re.fullmatch(r"\S+  \S+ +value=(\S+)  bound=\S+", row).group(1)
            assert row == f"{mark}  {c['name']:<36s} value={value}  bound={c['tol']:.6e}"
            assert 0.0 <= float(value) <= c["tol"]
        else:
            assert row == f"{mark}  {c['name']:<36s} value={c['value']:.6e}  bound={c['tol']:.6e}"
    assert runtimes == 1
    assert re.fullmatch(r"OK: 30/30 checks passed in \d+\.\ds", summary)


def test_verify_check_that_raises_keeps_the_rows_before_it(tmp_path, capsys, monkeypatch):
    _, full, _ = _verify(tmp_path / "full", capsys)
    transform = verify.wigner_transform
    calls = []

    def third_call_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # inside wigner-hermite3-hbar-dev
            raise PreconditionError("wigner_transform exceeded the 1/(pi hbar) bound")
        return transform(*args, **kwargs)

    monkeypatch.setattr(verify, "wigner_transform", third_call_raises)
    code, rep, lines = _verify(tmp_path / "aborted", capsys)
    assert code == 1 and not rep["ok"]
    assert rep["checks"][:5] == full["checks"][:5]
    assert rep["checks"][5:] == [{"name": "aborted-after-wigner-excited-negativity", "ok": False, "tol": 0.0}]
    assert lines[5] == "FAIL  aborted-after-wigner-excited-negativity: wigner_transform exceeded the 1/(pi hbar) bound"
    assert re.fullmatch(r"FAILED: 5/6 checks passed in \d+\.\ds", lines[6])
    assert len(lines) == 7


def _loaded_after_import(module, package):
    """Sorted names of package's modules loaded by importing module in a fresh interpreter."""
    src = str(Path(quasiprob.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as a reference
    assert _loaded_after_import("quasiprob.cli", "scipy") == "[]\n"


def test_numerics_import_loads_no_other_layer():
    # the package namespace is empty, so a layer loads only what it imports
    assert _loaded_after_import("quasiprob.numerics", "quasiprob") == "['quasiprob', 'quasiprob.numerics']\n"


def test_subcommand_help_lines(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
    text = cli.build_parser().format_help()
    for line in [
        "wigner              phase-space quasi-distribution of a state",
        "charfn              characteristic function <e^{-i(alpha X + beta P)}> on a grid",
        "marginal            measured distribution of cos(theta) X + sin(theta) P",
        "tomo                reconstruct the distribution from marginals and report the error",
        "tamper              modify a distribution without touching the x/p marginals, then catch it",
        "weyl-check          compare <g(X,P)> against the phase-space average of g",
        "spin                Feynman's spin-1/2 quasi-probabilities for a two-amplitude state",
        "negativity          total negative mass of an outcome list",
        "verify              run the full invariant suite (exit 0 only if every check passes)",
    ]:
        assert "\n    " + line + "\n" in text


def test_full_help_text_at_80_columns(monkeypatch, capsys):
    # every option's help string, pinned with argparse's wrapping at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    text = ""
    for argv in [[], ["wigner"], ["charfn"], ["marginal"], ["tomo"], ["tamper"], ["weyl-check"], ["spin"],
                 ["negativity"], ["verify"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        text += "$ quasiprob " + " ".join(argv + ["--help"]) + "\n" + capsys.readouterr().out
    assert text == (Path(__file__).parent / "help_at_80_columns.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv, out_is_file",
    [
        (["wigner", "--state", "hermite:0"], True),
        (["negativity", "--values", ""], False),
        (["negativity", "--values", ","], False),
    ],
)
def test_unusable_out_or_values_exits_1_with_one_line(tmp_path, capsys, argv, out_is_file):
    out = tmp_path / "out"
    if out_is_file:
        out.write_text("kept\n")
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not list(tmp_path.rglob("*.json"))
    if out_is_file:
        assert out.read_text() == "kept\n"


def test_weyl_check_refuses_a_dim_where_the_laguerre_start_underflows(tmp_path, capsys):
    code = main(["weyl-check", "--g", "x2p2", "--state", "hermite:0", "--dim", "300", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "N <= 232" in lines[0]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built once; a usage error after a successful call still
    # exits 2, and calls in sequence print what fresh processes print
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["weyl-check", "--g", "xp", "--state", "hermite:1", "--dim", "12"],
        ["spin", "--state", "1,0", "--t", "0.5"],
    ]
    in_process = []
    for k, argv in enumerate(calls):
        assert main(argv + ["--out", str(tmp_path / f"in{k}")]) == 0
        in_process.append(capsys.readouterr().out)
    assert main(["negativity", "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["spin", "--state", "1,0", "--dim", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()
    src = str(Path(quasiprob.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for k, argv in enumerate(calls):
        proc = subprocess.run([sys.executable, "-m", "quasiprob", *argv, "--out", str(tmp_path / f"fresh{k}")],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == in_process[k]


def test_negativity_requires_exactly_one_source(capsys, tmp_path):
    assert main(["negativity", "--out", str(tmp_path)]) == 2
    # --values is the one source; argparse rejects --state as an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["negativity", "--values", "1", "--state", "hermite:0", "--out", str(tmp_path)])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("value, dumped", [("1", True), ("TRUE", True), ("yes", True),
                                           ("0", False), ("False", False), ("NO", False)])
def test_config_bool_spellings(tmp_path, capsys, value, dumped):
    (tmp_path / "run.conf").write_text(f"dump_matrix={value}\n")
    argv = ["weyl-check", "--g", "x", "--state", "hermite:0", "--dim", "8", "--config", str(tmp_path / "run.conf")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "weyl_matrix.csv").exists() == dumped


@pytest.mark.parametrize(
    "argv, files, reason",
    [
        (["wigner", "--state", "hermite:x"], {}, "expected hermite:n with integer n"),
        (["wigner", "--state", "hermite:-1"], {}, "level must be >= 0"),
        (["wigner", "--state", "file:"], {}, "expected file:PATH"),
        (["wigner", "--state", "foo:1"], {}, "unknown state kind 'foo'"),
        (["spin", "--state", "1"], {}, "expected two comma-separated amplitudes"),
        (["wigner", "--state", "hermite:0", "--n", "1"], {}, "x grid: grid needs n >= 2"),
        (["charfn", "--state", "hermite:0", "--amin", "1", "--amax", "1"], {}, "alpha grid: grid needs min < max"),
        (["tamper", "--kind", "bogus"], {}, "tamper kind must be rect or smooth"),
        (["tamper", "--kind", "rect", "--half-width", "20"], {}, "rectangle exceeds the grid"),
        (["tamper", "--kind", "rect", "--half-width", "-1"], {}, "rectangle half-sizes must be positive"),
        (["tamper", "--kind", "smooth", "--a", "-1"], {}, "decay rates a, b must be positive"),
        (["marginal", "--theta", "0.3", "--state", "file:{d}/s.csv"],
         {"s.csv": "index,coordinate,re,im\n0,-4.0,0.1,0.0\n"}, "need at least 2 samples, got 1"),
        (["marginal", "--theta", "0.3", "--state", "file:{d}/s.csv"],
         {"s.csv": "index,coordinate,re,im\n" + SAMPLE_ROWS, "s.csv.json": '{"grid": {"min": -4.0, "max": 4.0, "n": 15}}'},
         "sidecar grid n=15 but file has 16 rows"),
        (["marginal", "--theta", "0.3", "--state", "file:{d}/s.csv"],
         {"s.csv": "index,coordinate,re,im\n" + SAMPLE_ROWS, "s.csv.json": '{"grid": {"min": -3.0, "max": 5.0, "n": 16}}'},
         "coordinates disagree with the sidecar grid"),
        (["wigner", "--state", "hermite:0", "--config", "{d}/run.conf"], {"run.conf": "n\n"}, "expected key=value"),
        (["wigner", "--state", "hermite:0", "--config", "{d}/run.conf"], {"run.conf": "n=abc\n"},
         "config value n='abc' is not a valid int"),
        (["weyl-check", "--g", "x", "--state", "hermite:0", "--dim", "8", "--config", "{d}/run.conf"],
         {"run.conf": "dump_matrix=maybe\n"}, "config value dump_matrix='maybe' is not a valid bool"),
        (["weyl-check", "--g", "x", "--state", "hermite:0", "--dim", "8", "--config", "{d}/run.conf"],
         {"run.conf": "dump-matrx=yes\n"}, "config key(s) not options of weyl-check: dump_matrx"),
        (["spin", "--state", "1,0", "--config", "{d}/run.conf"], {"run.conf": "tol=1e-9\n"},
         "config key(s) not options of spin: tol"),
    ],
    ids=[
        "hermite-not-int", "hermite-negative", "file-no-path", "unknown-kind", "spin-one-amplitude",
        "grid-n-1", "charfn-empty-window", "tamper-bogus-kind", "tamper-rect-too-wide", "tamper-rect-negative",
        "tamper-smooth-negative-a", "file-one-row", "file-sidecar-n", "file-sidecar-coordinates",
        "config-no-equals", "config-n-not-int", "config-bool-not-a-spelling", "config-misspelled-key",
        "config-key-of-another-subcommand",
    ],
)
def test_one_line_errors_exit_1(tmp_path, capsys, argv, files, reason):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert main([a.replace("{d}", str(tmp_path)) for a in argv] + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0], captured.err
    assert not list(out.rglob("*"))
