"""Write bench/reference.json: every workload's op outputs at the default
seed and the benchmark's run length.  Run it at the commit whose outputs the
benchmark checks against; it refuses to record a run with a failed op.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys

from run import THREAD_ENV

os.environ.update(THREAD_ENV)  # before numpy is imported

import worker  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    seconds = json.loads((worker.BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ref = {}
    for name, workload in wl.WORKLOADS.items():
        ctx = workload.setup(wl.NullTracer(), wl.DEFAULT_SEED)
        rec = wl.Recorder()
        workload.run(ctx, wl.DEFAULT_SEED, seconds, rec)
        failed = [(k, op.error or op.failures) for k, op in enumerate(rec.ops) if op.failed]
        if failed:
            print(f"{name}: not recording failed ops {failed[:3]}", file=sys.stderr)
            return 1
        ref[name] = {"seed": wl.DEFAULT_SEED, "seconds": seconds,
                     "ops": [[op.kind, wl.plain(op.output)] for op in rec.ops],
                     "summary": wl.plain(rec.summary)}
        print(f"{name}: {len(rec.ops)} ops")
    (worker.BENCH / "reference.json").write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
