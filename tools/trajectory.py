"""Print the performance trajectory recorded in the ``BENCH_*.json`` files at
the repository root: per file, workload and end-to-end metric, the parent's
and the change's medians and how many of their pairs of runs the change won.

    python3 tools/trajectory.py    # every root BENCH_*.json, oldest first

Each file compares a parent commit with the commit that adds the file, over
alternated runs of ``bench/run.py``.  A file's commit is taken from ``git log
--diff-filter=A`` when git has it (not in a shallow clone); files without
one come last, by name.  The end-to-end metrics are those ``BENCHMARK.json`` declares, and all
of them are better lower.

The files keep their runs in three shapes, read as they are:

- ``workloads.<w>.metrics.<m>`` holds ``parent`` and ``change`` summaries,
  each with a ``median``, and the runs of each side in pair order, as their
  ``runs`` or as the entry's ``values``;
- ``workloads.<w>.<m>`` holds the runs of each side as the lists ``parent``
  and ``change``, beside ``parent_median`` and ``change_median``;
- ``workloads.<w>`` is a list of pairs, each with a ``parent`` and a
  ``change`` run holding every metric.

The pairs won are the file's own count where it keeps one, under any of the
names the files use; else they are counted from the runs, as the pairs whose
change run is lower; else ``-``.  A workload that records no end-to-end
metric (a traced pass of per-layer spans) is left out.  A file with an entry
in none of these shapes, or with no end-to-end metric at all, is an error.
The reader only reports: a slower change is printed, never failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
METRICS = tuple(m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"])
WIN_KEYS = ("change_wins", "change_lower", "change_lower_in", "change_lower_in_pairs",
            "change_lower_pairs", "change_lower_rounds")


class Row(NamedTuple):
    workload: str
    metric: str
    parent: float  # median
    change: float  # median
    won: int | None
    pairs: int | None


def _won(parent_runs, change_runs) -> int | None:
    """Pairs whose change run is lower, or None without runs of both sides."""
    if not parent_runs or not change_runs or len(parent_runs) != len(change_runs):
        return None
    return sum(c < p for p, c in zip(parent_runs, change_runs))


def _row(workload: str, metric: str, parent_median, change_median, parent_runs, change_runs,
         entry: dict) -> Row:
    if not all(isinstance(v, (int, float)) for v in (parent_median, change_median)):
        raise ValueError(f"{workload}.{metric}: no parent and change median")
    own = next((entry[k] for k in WIN_KEYS if k in entry), None)
    won = own if own is not None else _won(parent_runs, change_runs)
    pairs = len(parent_runs) if parent_runs else None
    return Row(workload, metric, float(parent_median), float(change_median), won, pairs)


def _workload(name: str, entry) -> list[Row]:
    """The rows of one workload entry, in ``METRICS`` order."""
    if isinstance(entry, list):  # pairs of runs
        if not all(isinstance(p, dict) and "parent" in p and "change" in p for p in entry):
            raise ValueError(f"{name}: a pair without a parent and a change run")
        rows = []
        for m in METRICS:
            if all(m in p["parent"] and m in p["change"] for p in entry):
                runs = [p["parent"][m] for p in entry], [p["change"][m] for p in entry]
                rows.append(_row(name, m, statistics.median(runs[0]), statistics.median(runs[1]),
                                 *runs, {}))
        return rows
    if not isinstance(entry, dict):
        raise ValueError(f"{name}: neither a list of pairs nor a mapping")
    if "metrics" in entry:  # summaries per side
        rows = []
        for m in METRICS:
            if m in entry["metrics"]:
                x = entry["metrics"][m]
                sides = [x.get(side) if isinstance(x.get(side), dict) else {}
                         for side in ("parent", "change")]
                values = x.get("values") or {}
                runs = [s.get("runs") or values.get(side) for s, side in zip(sides, ("parent", "change"))]
                rows.append(_row(name, m, sides[0].get("median"), sides[1].get("median"), *runs, x))
        return rows
    return [_row(name, m, entry[m].get("parent_median"), entry[m].get("change_median"),
                 entry[m].get("parent"), entry[m].get("change"), entry[m])
            for m in METRICS if isinstance(entry.get(m), dict)]


def read(path) -> list[Row]:
    """The rows of one ``BENCH_*.json`` file, workload by workload; raises
    ValueError on a file this reader cannot read."""
    data = json.loads(Path(path).read_text())
    workloads = data.get("workloads") if isinstance(data, dict) else None
    if not isinstance(workloads, dict):
        raise ValueError(f"{path}: no workloads mapping")
    try:
        rows = [row for name, entry in workloads.items() for row in _workload(name, entry)]
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err
    if not rows:
        raise ValueError(f"{path}: no end-to-end metric")
    return rows


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True, text=True, check=True).stdout


def added_in() -> dict[str, str]:
    """Per root ``BENCH_*.json`` file name, the short hash of the commit
    that added it, oldest first; empty without git or in a shallow clone,
    whose oldest commit seems to add every file."""
    try:
        if _git("rev-parse", "--is-shallow-repository").strip() != "false":
            return {}
        log = _git("log", "--reverse", "--diff-filter=A", "--format=%x00%h", "--name-only", "--",
                   "BENCH_*.json")
    except (OSError, subprocess.CalledProcessError):
        return {}
    commits = {}
    for block in log.split("\0")[1:]:
        commit, *names = block.split()
        for name in names:
            commits.setdefault(name, commit)
    return commits


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def main() -> int:
    commits = added_in()
    order = {name: k for k, name in enumerate(commits)}
    for path in sorted(REPO.glob("BENCH_*.json"), key=lambda p: (order.get(p.name, len(order)), p.name)):
        data = json.loads(path.read_text())
        parent = str(data.get("parent_commit") or "?")[:7]
        print(f"{path.name}: parent {parent}, change {commits.get(path.name, '?')}")
        for row in read(path):
            won = "-" if row.won is None else f"{row.won}/{row.pairs or '?'}"
            ratio = row.change / row.parent - 1.0 if row.parent else float("nan")
            print(f"  {row.workload:<28} {row.metric:<12} {_fmt(row.parent):>10} {_fmt(row.change):>10}"
                  f" {ratio:+8.1%}  won {won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
