"""pottsgas benchmark.

    python3 bench/run.py --workload {sample,couple,screen,lattice} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout (it imports ``src/pottsgas``).
Each workload runs in fresh worker processes with POTTSGAS_THREADS=1 and one
BLAS thread.  ``--trace 0`` sets up SETUP_REPEATS times (the median is
``setup_s``) and times the ops untraced; their times are scaled to the
reference speed by a calibration kernel timed next to each op (README.md).
``--trace 1`` times the ops untraced and then traced, and reports the
per-layer metrics.  The metric names and
units come from BENCHMARK.json.  The full report, with the run context, goes
to bench/out/; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sample", "couple", "screen", "lattice")
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170  # for all workers of one run together
THREAD_ENV = {
    "POTTSGAS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    env = {**os.environ, **THREAD_ENV}
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), mode,
           repr(started)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pottsgas" / "__init__.py").is_file():
        print(f"no pottsgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            res = spawn(args.workload, args.seed, args.seconds, "trace", deadline)
            declared = spec["per_layer"]
            values = res["layer"]
            correct = res["failed"] == 0 and not res["traced_outputs_differ"]
        else:
            setups = [spawn(args.workload, args.seed, args.seconds, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            res = spawn(args.workload, args.seed, args.seconds, "run", deadline)
            setups.append(res["setup_s"])
            res["setup_samples_s"] = setups
            declared = spec["end_to_end"]
            values = {**res, "setup_s": statistics.median(setups)}
            correct = res["failed"] == 0
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    undeclared = set(res.get("layer", {})) - {m["name"] for m in declared}
    if undeclared:
        print(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    res["context"].update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu_model(), "nproc": os.cpu_count(),
        "threads": THREAD_ENV, "git_commit": git_commit(),
    })
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    report = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"metrics": metrics, "correct": correct, **res}, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in res["raw"].items()))
    if res["known_failures"]:
        print(f"{args.workload} known defect: {res['known_failures'][0]}")
    for failure in res["failures"]:
        print(f"{args.workload} FAILED op {failure}")
    print(f"report: {report.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
