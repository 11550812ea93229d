"""Self-agreement: two sets of runs of the same code must agree.

    python3 perfbench/selfagree.py [--runs 10] [--workloads export,quantize]

For every workload this makes two sets of --runs untraced runs (set A with
seeds 1..R, set B with seeds 101..100+R), interleaving the sets so that a
drift in machine load falls on both.  For each end-to-end metric it prints
both medians, their quartiles, the spread of each set (interquartile range
over median), the difference of the medians and the metric's bound from
BENCHMARK.json.  Runs last BENCHMARK.json's run_seconds.  A metric agrees
when the two medians differ by no more than the bound, in either direction,
and each spread is within the bound.  setup_s is held to the first test
only: it is a half-second cold start, sampled for a few seconds of each run,
so its spread is the host's drift in speed between runs, which more starts
per run do not remove (see README.md).  It also checks that both sets failed
the same share of operations.  All run results are written to
.perfbench-work/selfagree.json.
Exit code 0 when every metric on every workload agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    results = {}
    ok = True
    out = ROOT / ".perfbench-work" / "selfagree.json"
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        t0 = time.time()
        for i in range(1, args.runs + 1):
            for name, seed in (("A", i), ("B", 100 + i)) if i % 2 else (("B", 100 + i), ("A", i)):
                sets[name].append(one_run(workload, seed, bench["run_seconds"]))
        results[workload] = sets
        out.parent.mkdir(exist_ok=True)  # run.py removes it when it is empty
        out.write_text(json.dumps(results, indent=1))
        print(f"\n{workload}: {args.runs} runs per set, {time.time() - t0:.0f} s")
        shares = {k: {(r["failed"], r["attempted"]) for r in v} for k, v in sets.items()}
        fail_share = {k: {f / a for f, a in v} for k, v in shares.items()}
        if fail_share["A"] != fail_share["B"] or len(fail_share["A"]) != 1:
            ok = False
            print(f"  failed share differs: {shares}")
        if not all(r["correct"] for v in sets.values() for r in v):
            ok = False
            print("  some run reported incorrect outputs")
        print(f"  {'metric':16s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} {'B q1':>10s} {'B med':>10s} {'B q3':>10s}"
              f" {'sprA':>6s} {'sprB':>6s} {'diff':>7s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            name = m["name"]
            a = spread([r["metrics"][name]["value"] for r in sets["A"]])
            b = spread([r["metrics"][name]["value"] for r in sets["B"]])
            diff = (b[1] - a[1]) / a[1]
            agree = abs(diff) <= m["bound"] and (name == "setup_s" or max(a[3], b[3]) <= m["bound"])
            ok &= agree
            print(f"  {name:16s} {a[0]:10.4g} {a[1]:10.4g} {a[2]:10.4g} {b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g}"
                  f" {a[3]:6.3f} {b[3]:6.3f} {diff:+7.3f} {m['bound']:6.2f} {'ok' if agree else 'DISAGREE'}")
        sys.stdout.flush()
    print(f"\n{'all metrics agree' if ok else 'DISAGREEMENT'}; runs in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
