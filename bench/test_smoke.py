"""Smoke test of the benchmark: every workload at reduced size (--seconds 1)
untraced and traced, on the default seed so the reference check runs too.
Each run must be correct and report exactly the metrics BENCHMARK.json
declares, under names made of letters, digits, ``_``, ``.`` and ``-``.
Takes about two minutes.

    python3 bench/test_smoke.py        or        pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check(workload: str, trace: int):
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
        if not trace:
            assert got["value"] > 0, m["name"]


def test_sample():
    check("sample", 0)
    check("sample", 1)


def test_couple():
    check("couple", 0)
    check("couple", 1)


def test_screen():
    check("screen", 0)
    check("screen", 1)


def test_lattice():
    check("lattice", 0)
    check("lattice", 1)


def test_refuses_without_sources():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(Path(tmp), "--workload", "sample", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    for test in (test_refuses_without_sources, test_sample, test_couple, test_screen, test_lattice):
        test()
        print(f"{test.__name__}: ok", flush=True)
