"""One benchmark run of quasiprob, from the root of a source checkout.

    python3 perfbench/run.py --workload export --seed 1 --seconds 20 --trace 0

The program is imported from ./src and driven through quasiprob.cli.main.
A run measures set-up time in fresh interpreters, writes the sampled-state
files a workload needs, runs the workload's operations in one worker process
(one client, closed loop, warm-up first), then checks every operation's
outputs against closed forms.  With --trace 0 it reports the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced worker.  Progress
and a readable summary go to stderr; the last line of stdout is the result:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

The exit code is 0 when the outputs were correct, 1 when they were not
(including an input on which no operation succeeded), and 2 when the run
could not be made (no program to benchmark, bad arguments, a worker that
died).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

import closedforms as cf
from checks import REPORT_FILE, Checker
from worker import digest
from workloads import SAMPLE_GRID, WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "quasiprob" / "schemas" / "outputs.schema.json"
WORK = ROOT / ".perfbench-work"

#: BLAS/OpenMP threads in every process the benchmark starts (nproc is 2 on
#: the reference machine); one thread keeps operations from competing.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters per run for setup_s; the run reports their median.
SETUP_STARTS = 5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import quasiprob.cli\n"
    "quasiprob.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers timed by self time per operation, in ms.
SELF_TIMED = (
    "serial.write_wigner_csv",
    "serial.write_matrix_txt",
    "serial.read_sampled_csv",
    "tomography.marginal_of_quasi",
    "tomography.reconstruct_from_marginals",
    "wigner.characteristic_function",
    "wigner.wigner_transform",
    "states.evaluate",
    "states.hermite_functions",
    "weyl.weyl_quantize_many",
    "weyl.fock_coefficients",
    "numerics.ft_core",
)
PER_LAYER_UNITS = {f"{name}.self_ms": "ms" for name in SELF_TIMED}
PER_LAYER_UNITS.update({
    "serial.bytes_written": "bytes",
    "wigner.characteristic_function.points": "count",
    "states.evaluate.points": "count",
    "tomography.quantum_marginal.calls": "count",
    "cli.overhead_ms": "ms",
    "setup.import_numpy_ms": "ms",
    "setup.import_scipy_ms": "ms",
    "setup.import_quasiprob_ms": "ms",
})


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({v: str(THREADS) for v in THREAD_VARS})
    return env


def measure_setup(work: Path, trace: bool) -> tuple[float, dict]:
    """Median import-and-parser time over fresh interpreters; with trace,
    also the median self import time per top-level package (-X importtime)."""
    times, imports = [], defaultdict(list)
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", SETUP_CODE]
    for _ in range(SETUP_STARTS):
        p = subprocess.run(argv, cwd=work, env=child_env(), capture_output=True, text=True, timeout=60)
        if p.returncode != 0:
            raise RuntimeError(f"importing quasiprob.cli failed:\n{p.stderr}")
        times.append(float(p.stdout.split()[-1]))
        if trace:
            per_pkg = defaultdict(int)
            for line in p.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[0].split(":")[1].strip().isdigit():
                    per_pkg[parts[2].strip().split(".")[0]] += int(parts[0].split(":")[1])
            for pkg in ("numpy", "scipy", "quasiprob"):
                imports[pkg].append(per_pkg[pkg] / 1000.0)
    return statistics.median(times), {pkg: statistics.median(v) for pkg, v in imports.items()}


def write_sampled_state(path: Path, state) -> None:
    """A sampled wave-function CSV with its grid sidecar, in the format
    quasiprob.serial reads, sampled from the closed form."""
    lo, hi, n = SAMPLE_GRID
    x = lo + (hi - lo) / n * np.arange(n)
    v = cf.psi(state, x)
    rows = ["index,coordinate,re,im"]
    rows += [f"{i},{float(x[i])!r},{float(v[i].real)!r},{float(v[i].imag)!r}" for i in range(n)]
    path.write_text("\n".join(rows) + "\n")
    sidecar = {"grid": {"max": hi, "min": lo, "n": n}, "kind": "wavefunction"}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def tail_rank(n: int) -> int:
    """0-based rank of the tail latency: the sample with ten beyond it."""
    return n - 11 if n >= 20 else n - 1


def round_throughput(lat: list[float], per_round: int) -> float:
    """Median over the run's rounds of operations per second of wall time.

    Every round holds the workload's whole mix, so each rate is the
    workload's; the median keeps a burst of load on the shared host, which
    slows a few rounds, from pulling the run's figure as a mean over all
    operations would.
    """
    return statistics.median(per_round / sum(lat[i:i + per_round]) for i in range(0, len(lat), per_round))


def check_outputs(plan_inputs, ops, stdout, work: Path) -> tuple[set, list]:
    """Keys whose report failed the strict checks, and content problems.

    The files of the last operation on each input stay on disk and are
    checked in full; every other operation on that input must have written
    byte-identical artifacts and stdout, which its digest shows.
    """
    checker = Checker(SCHEMA)
    failed_keys, problems = set(), []
    by_key = defaultdict(list)
    for op in ops:
        if op["rc"] == 0:
            by_key[op["key"]].append(op)
    for key in sorted({op["key"] for op in ops} - by_key.keys()):
        problems.append(f"input {key} ({' '.join(plan_inputs[key].argv)}): every operation failed, "
                        f"so its outputs could not be checked")
    for key, key_ops in sorted(by_key.items()):
        inp = plan_inputs[key]
        what = f"input {key} ({' '.join(inp.argv)})"
        out = work / "out" / str(key)
        text = stdout[str(key)]
        ref = digest(text, out)
        if ref != key_ops[-1]["digest"]:
            problems.append(f"{what}: artifacts on disk changed after the run")
        reruns = sum(op["digest"] != ref for op in key_ops)
        if reruns:
            problems.append(f"{what}: {reruns} rerun(s) wrote different artifacts")
        report, errs = checker.report_problems(text, "stdout report")
        try:
            file_text = (out / REPORT_FILE[inp.kind]).read_text(encoding="utf-8")
        except OSError as e:
            file_report, file_errs = None, [str(e)]
        else:
            file_report, file_errs = checker.report_problems(file_text, REPORT_FILE[inp.kind])
        if errs or file_errs:
            failed_keys.add(key)
            problems.append(f"{what}: no report passed the strict checks, so its outputs could not be checked")
            log(f"{what}: " + "; ".join(errs + file_errs))
            continue
        if report != file_report:
            problems.append(f"{what}: stdout report differs from {REPORT_FILE[inp.kind]}")
        problems += [f"{what}: {p}" for p in checker.content_problems(inp, report, out)]
    return failed_keys, problems


def per_layer(trace: dict, nops: int, imports: dict) -> dict:
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    m = {f"{name}.self_ms": 1000.0 * self_s.get(name, 0.0) / nops for name in SELF_TIMED}
    m["serial.bytes_written"] = counts.get("serial.bytes_written", 0) / nops
    m["wigner.characteristic_function.points"] = counts.get("wigner.characteristic_function.points", 0) / nops
    m["states.evaluate.points"] = counts.get("states.evaluate.points", 0) / nops
    m["tomography.quantum_marginal.calls"] = calls.get("tomography.quantum_marginal", 0) / nops
    m["cli.overhead_ms"] = 1000.0 * sum(v for k, v in self_s.items() if k.startswith("cli.")) / nops
    for pkg in ("numpy", "scipy", "quasiprob"):
        m[f"setup.import_{pkg}_ms"] = imports[pkg]
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "quasiprob" / "cli.py").is_file() or not SCHEMA.is_file():
        log(f"no quasiprob source under {SRC}; run from the root of a source checkout")
        return 2
    try:
        import jsonschema  # noqa: F401
    except ImportError:
        log("the jsonschema package is needed to validate reports")
        return 2

    plan = make_plan(args.workload, args.seed, args.seconds)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s, imports = measure_setup(work, bool(args.trace))
        for fname, state in plan.sampled.items():
            write_sampled_state(work / fname, state)
        spec = {
            "src": str(SRC),
            "trace": args.trace,
            "inputs": [inp.argv for inp in plan.inputs],
            "order": plan.order,
            "warmup": plan.warmup,
            "rounds": plan.rounds,
        }
        (work / "plan.json").write_text(json.dumps(spec))
        p = subprocess.run([sys.executable, str(HERE / "worker.py"), "plan.json", "result.json"],
                           cwd=work, env=child_env(), timeout=170)
        if p.returncode != 0:
            log(f"worker exited with {p.returncode}")
            return 2
        result = json.loads((work / "result.json").read_text())
        ops = result["ops"]
        failed_keys, problems = check_outputs(plan.inputs, ops, result["stdout"], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run or result is left in it

    n = len(ops)
    failed = sum(op["rc"] != 0 or op["key"] in failed_keys for op in ops)
    lat = sorted(op["latency_s"] for op in ops)
    per_round = len(plan.order) // plan.rounds
    if args.trace:
        metrics = per_layer(result["trace"], n, imports)
        units = PER_LAYER_UNITS
        log(f"traced latency: p50 {1000 * statistics.median(lat):.2f} ms, mean {1000 * statistics.fmean(lat):.2f} ms")
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_ops": round_throughput([op["latency_s"] for op in ops], per_round),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_tail_ms": 1000.0 * lat[tail_rank(n)],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END
    rank = tail_rank(n)
    log(f"workload {args.workload} seed {args.seed}: {n} operations in {plan.rounds} rounds ({sum(lat):.1f} s), "
        f"tail = p{100.0 * (rank + 1) / n:g} ({n - 1 - rank} beyond), threads {THREADS}, nproc {os.cpu_count()}")
    for kind in dict.fromkeys(inp.kind for inp in plan.inputs):
        kl = [op["latency_s"] for op in ops if plan.inputs[op["key"]].kind == kind]
        log(f"  {kind}: {len(kl)} operations, median {1000 * statistics.median(kl):.2f} ms")
    for name, value in metrics.items():
        log(f"  {name:45s} {value:14.4f} {units[name]}")
    for prob in problems:
        log(f"INCORRECT: {prob}")
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
