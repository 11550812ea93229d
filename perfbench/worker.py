"""Runs one workload's operations through quasiprob.cli.main, nothing else.

    python3 worker.py PLAN.json RESULT.json

Started by run.py in a fresh process whose working directory is the run's
scratch directory, so its peak resident memory is that of the operations.
Each operation runs in-process with stdout captured; clearing its output
directory, hashing what it wrote and collecting garbage happen outside the
timed interval.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

#: Stop starting rounds after this long, so a run always ends in time.
DEADLINE_S = 140.0


def digest(stdout: str, out: Path) -> str:
    h = hashlib.sha256(stdout.encode())
    for f in sorted(out.iterdir()):
        h.update(b"\0" + f.name.encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; ru_maxrss can carry the parent's resident
    set across a vfork-and-exec, so it is only the fallback.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, plan["src"])
    from quasiprob import cli

    tracer = None
    if plan["trace"]:
        from layertrace import Tracer, install

        tracer = Tracer()
        install(tracer)

    def run(key: int) -> dict:
        out = Path("out") / str(key)
        shutil.rmtree(out, ignore_errors=True)
        argv = plan["inputs"][key] + ["--out", str(out)]
        buf = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash fails this operation, not the run
            rc = 1
            print(f"{' '.join(argv)}: {type(e).__name__}: {e}", file=sys.stderr)
        dt = time.perf_counter() - t0
        text = buf.getvalue()
        return {"key": key, "rc": rc, "latency_s": dt, "digest": digest(text, out) if out.is_dir() else "",
                "stdout": text}

    for key in plan["warmup"]:
        run(key)
    if tracer:
        tracer.reset()
    ops, last_stdout = [], {}
    per_round = len(plan["order"]) // plan["rounds"]
    start = time.perf_counter()
    for i, key in enumerate(plan["order"]):
        if i % per_round == 0 and time.perf_counter() - start > DEADLINE_S:
            break
        rec = run(key)
        last_stdout[key] = rec.pop("stdout")
        ops.append(rec)
    result = {
        "ops": ops,
        "stdout": last_stdout,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer:
        result["trace"] = {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls), "counts": dict(tracer.counts)}
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
