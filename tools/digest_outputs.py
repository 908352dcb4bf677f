"""Print one sha256 per family of seeded outputs, floats written as hex, so
that two revisions can be checked for bit-identical results.

    python3 tools/digest_outputs.py              # the checkout holding this script
    python3 tools/digest_outputs.py --rev REV    # REV, checked out in a temporary git worktree

Families:

- ``sample.seed0``, ``sample.seed7``: the benchmark's ``sample`` chain
  (``bench/workloads.py``) over its 190 blocks of 200 proposals; after each
  block its accepted count, energy, mobile ids and their positions and
  species.
- ``criterion10``: the 200 seeded screenings and stopping-set verifications
  of criterion 10 (``tests/test_acceptance.py``); per run the peel history,
  the final region, the verification report and both chains.
- ``criterion11``: the 100 coupled screenings of criterion 11's
  ``percolation_stats`` ensemble; per run the peel history, the final
  region, the branch and theta counts, the row counters and both chains,
  then the ensemble's statistics.
- ``lattice.seed0``: the 42 op outputs of the benchmark's seed-0 ``lattice``
  run at 10 seconds.
- ``criteria5_6``: acceptance criteria 5 and 6 as ``tests/test_acceptance.py``
  runs them; the interior field, iterations and residual of each of
  criterion 5's 9 minimizations, then criterion 6's 20 coercivity
  eigenvalues with their verdicts and its 3 decay fits.

A chain is its live particles' positions, species and frozen flags in slot
order, its mobile ids and its energy.  This is a tool, not a test gate:
the floats are bit-reproducible on one platform only.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def hexed(x):
    """JSON-shaped copy with every float as ``float.hex`` and every dict as
    a list of [key, value] pairs sorted by key."""
    import numpy as np

    if isinstance(x, np.ndarray):
        x = x.tolist()
    elif isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return sorted([hexed(k), hexed(v)] for k, v in x.items())
    if isinstance(x, (list, tuple, set, frozenset)):
        items = [hexed(v) for v in x]
        return sorted(items) if isinstance(x, (set, frozenset)) else items
    return x


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.items = 0

    def add(self, value):
        self.sha.update(json.dumps(hexed(value)).encode())
        self.sha.update(b"\n")
        self.items += 1


def chain(system) -> list:
    live = system.alive.nonzero()[0]
    return [live, system.pos[live], system.spin[live], system.frozen[live],
            system.mobile_ids, system.energy]


def peels(partition) -> list:
    return [partition.history, partition.lambda_cubes]


def sample(wl, sim, seed: int) -> Digest:
    out = Digest()
    workload = wl.Sample()
    ctx = workload.setup(wl.NullTracer(), seed)
    system = copy.deepcopy(ctx["system"])
    for _ in range(workload.n_ops(10)):
        accepted = sim.metropolis_sweep(system, ctx["kernel"], n_moves=workload.THIN)
        ids = system.mobile_ids
        out.add([accepted, system.energy, ids, system.pos[ids], system.spin[ids]])
    return out


def criterion10(np, sim, scr, fx) -> Digest:
    out = Digest()
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0, n_plus=5)
    phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, beta=1.0,
                            zeta=0.6, t=0.0)
    ladder = scr.LadderSpec(zeta=0.6, d=2, c_star=2.0)
    corners = [(0, 0), (0, 4), (4, 0), (4, 4), (0, 2), (2, 0), (4, 2), (2, 4)]
    for k in range(200):
        kind = ("identical", "polymer", "perturb")[k % 3]
        seed = 1000 + k
        pair = fx.make_identical_pair(region, phase, seed, ladder=ladder)
        if kind == "polymer":
            rng = np.random.default_rng(seed)
            cube = corners[int(rng.integers(0, len(corners)))]
            fx.inject_polymer(pair, [cube], into_first=bool(rng.integers(0, 2)))
        partition = scr.run_screening(pair)
        report = scr.verify_stopping(pair, partition, n_replays=4 if kind == "perturb" else 2,
                                     seed=2000 + k)
        out.add([peels(partition), report, chain(pair.sys1), chain(pair.sys2)])
    return out


def criterion11(wl, sim, scr, fx, cpl, mf) -> Digest:
    out = Digest()
    sol4 = mf.rescale(mf.common_tangent(3), 4.0)
    region = sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0, n_plus=5)
    phase = sim.PhaseTarget(rho_ref=sol4.minimizers[-1], lambda_beta=sol4.lambda_beta,
                            beta=4.0, zeta=2.0, t=0.03)
    ladder = scr.LadderSpec(zeta=2.0, d=2, c_star=0.65)
    pairs, runs = [], []

    def build(seed):
        pairs.append(fx.make_mismatched_pair(region, phase, seed, ladder=ladder))
        return pairs[-1]

    with wl.capture(cpl, "run_coupled_screening", runs):
        stats = cpl.percolation_stats(build, n_runs=100, margins=[0, 1, 2],
                                      kernel=sim.MoveKernel(), seed=11_000)
    for (partition, run), pair in zip(runs, pairs):
        out.add([peels(partition), vars(run), chain(pair.sys1), chain(pair.sys2)])
    out.add(stats)
    return out


def lattice(wl) -> Digest:
    out = Digest()
    workload = wl.Lattice()
    rec = wl.Recorder()
    workload.run(workload.setup(wl.NullTracer(), 0), 0, 10, rec)
    for op in rec.ops:
        out.add([op.kind, op.output, op.error, op.known])
    return out


def criteria5_6(wl, mf, lat, root: Path) -> Digest:
    import contextlib
    import importlib.util
    import io

    out = Digest()
    spec = importlib.util.spec_from_file_location("test_acceptance",
                                                  root / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    sol3 = mf.common_tangent(3)
    minimized, curvatures, fits = [], [], []
    with contextlib.redirect_stdout(io.StringIO()):
        with wl.capture(lat, "minimize", minimized):
            acceptance.test_criterion_5_lp_perfect_boundary(sol3)
        with wl.capture(lat, "hessian_coercivity", curvatures), \
                wl.capture(lat, "decay_experiment", fits):
            acceptance.test_criterion_6_lp_coercivity_and_decay(sol3)
    for res in minimized:
        out.add([res.field.interior, res.iterations, res.residual])
    for value in curvatures + [vars(fit) for fit in fits]:
        out.add(value)
    return out


def dump(root: Path):
    """Print the digests of the checkout at ``root``, importing its
    ``src`` and ``bench``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import numpy as np
    import workloads as wl

    from pottsgas import coupling as cpl
    from pottsgas import fixtures as fx
    from pottsgas import lattice as lat
    from pottsgas import meanfield as mf
    from pottsgas import screening as scr
    from pottsgas import simulate as sim

    families = {
        "sample.seed0": lambda: sample(wl, sim, 0),
        "sample.seed7": lambda: sample(wl, sim, 7),
        "criterion10": lambda: criterion10(np, sim, scr, fx),
        "criterion11": lambda: criterion11(wl, sim, scr, fx, cpl, mf),
        "lattice.seed0": lambda: lattice(wl),
        "criteria5_6": lambda: criteria5_6(wl, mf, lat, root),
    }
    for name, run in families.items():
        digest = run()
        print(f"{name:14s} {digest.sha.hexdigest()}  ({digest.items} items)", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", help="dump this git revision, checked out in a temporary worktree")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="the checkout to dump (default: the one holding this script)")
    args = parser.parse_args()
    if args.rev is None:
        dump(args.root.resolve())
        return
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(args.root), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.rev], check=True)
        try:
            subprocess.run([sys.executable, __file__, "--root", str(tree)], check=True)
        finally:
            subprocess.run(["git", "-C", str(args.root), "worktree", "remove", "--force", str(tree)],
                           check=True)


if __name__ == "__main__":
    main()
