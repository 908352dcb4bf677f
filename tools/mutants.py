"""Run the mutant catalogue: each mutant must be killed by the tests it names.

    python3 tools/mutants.py                # every mutant in tools/mutants.json
    python3 tools/mutants.py NAME [NAME..]  # only these
    python3 tools/mutants.py --list         # names, files and tests; runs nothing
    python3 tools/mutants.py --check        # old texts and test ids only; runs no test

A mutant is a file under the repository, an exact text that occurs in it once,
the text that replaces it, and the tests that should kill it.  The runner
copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary directory
(under ``$TMPDIR``), runs each distinct test list once on the unmutated copy,
which must pass, then applies each mutant in turn and runs its tests with
``-x -m "not slow" --hypothesis-seed=0``, so that a kill that rests on a
drawn example is drawn again on every run.  A pytest exit of 1 kills the
mutant, 0 lets it survive; any other exit (a test that no longer exists, a
collection error) or an old text that is missing or not unique is an error.

A mutant listed with ``survives`` and its reason is expected to survive; the
run fails on a survivor that is not listed, and on any error.  A listed
survivor that gets killed is reported, so that its listing can be dropped.

``--check`` runs in seconds: it verifies in the checkout that each mutant's
old text occurs exactly once in its file and that every test it names
collects, so that a change which rewrites a mutated line or renames a test
fails at once rather than in the full run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().with_name("mutants.json")
TIMEOUT_S = 1800


def run_tests(tree: Path, tests: list[str]) -> tuple[int, float]:
    """pytest's exit code on ``tests`` in ``tree`` (-1 on a timeout) and the
    wall time it took."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        rc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        rc = -1
    return rc, time.perf_counter() - start


def collects(tests: list[str]) -> bool:
    """Whether pytest, in the checkout, collects every one of ``tests``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def check(mutants: list[dict]) -> int:
    """The number of mutants whose old text is missing or not unique, plus
    the number of named tests that do not collect; prints each."""
    failures = 0
    for m in mutants:
        count = (REPO / m["file"]).read_text().count(m["old"])
        if count != 1:
            print(f"{m['name']}: error: old text found {count} times in {m['file']}")
            failures += 1
    tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
    if not collects(tests):
        for test in tests:
            if not collects([test]):
                print(f"error: {test} does not collect")
                failures += 1
    print(f"{len(mutants)} mutants, {len(tests)} test ids checked, {failures} failures")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="list the catalogue and exit")
    parser.add_argument("--check", action="store_true",
                        help="check old texts and test ids in the checkout; run no test")
    args = parser.parse_args()
    catalogue = json.loads(CATALOGUE.read_text())
    unknown = set(args.names) - {m["name"] for m in catalogue}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    mutants = [m for m in catalogue if not args.names or m["name"] in args.names]
    if args.list:
        for m in mutants:
            tag = "  (listed survivor)" if "survives" in m else ""
            print(f"{m['name']}: {m['file']} -> {' '.join(m['tests'])}{tag}")
        return 0
    if args.check:
        return 1 if check(mutants) else 0

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, tree / part, ignore=ignore)
        shutil.copy(REPO / "pyproject.toml", tree)

        for tests in dict.fromkeys(tuple(m["tests"]) for m in mutants):
            rc, secs = run_tests(tree, list(tests))
            print(f"baseline {' '.join(tests)}: exit {rc} in {secs:.0f} s", flush=True)
            if rc != 0:
                print("  error: the tests do not pass without a mutant")
                failures += 1
        if failures:
            return 1

        for m in mutants:
            path = tree / m["file"]
            original = path.read_text()
            count = original.count(m["old"])
            if count != 1:
                print(f"{m['name']}: error: old text found {count} times in {m['file']}")
                failures += 1
                continue
            path.write_text(original.replace(m["old"], m["new"]))
            try:
                rc, secs = run_tests(tree, m["tests"])
            finally:
                path.write_text(original)
            listed = "survives" in m
            if rc == 1:
                note = "  (listed as a survivor: drop the listing)" if listed else ""
                print(f"{m['name']}: killed in {secs:.0f} s{note}", flush=True)
            elif rc == 0:
                print(f"{m['name']}: survived in {secs:.0f} s"
                      + ("  (listed)" if listed else "  error: not listed as a survivor"),
                      flush=True)
                failures += not listed
            else:
                print(f"{m['name']}: error: pytest exit {rc} in {secs:.0f} s", flush=True)
                failures += 1
    print(f"{len(mutants)} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
