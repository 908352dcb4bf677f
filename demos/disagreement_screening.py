"""Stopping-set screening and the coupled percolation experiment: identical
pairs stop immediately with an all-good shell, a hand-placed polymer confines
the bad cubes, and mismatched boundaries give an exponentially decaying
disagreement probability.

Run:  python3 demos/disagreement_screening.py
"""

import numpy as np

from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import meanfield as mf
from pottsgas import screening as scr
from pottsgas import simulate as sim

print("=== static screening on constructed pairs ===\n")
region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0, n_plus=5)
phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, beta=1.0, zeta=0.6, t=0.0)
ladder = scr.LadderSpec(zeta=0.6, d=2, c_star=2.0)

pair = fx.make_identical_pair(region, phase, seed=0, ladder=ladder)
part = scr.run_screening(pair)
shell = part.outer_shell()
print(f"identical pair: stopped after {len(part.history)} peels, "
      f"{len(part.lambda_cubes)} cubes kept, shell all good: "
      f"{all(part.status[c] == 'good' for c in shell)}")
report = scr.verify_stopping(pair, part, seed=1)
print(f"verification: replay {report['replay_ok']}, shell {report['shell_ok']}, "
      f"audit {report['audit_ok']}\n")

pair2 = fx.make_identical_pair(region, phase, seed=2, ladder=ladder)
fx.inject_polymer(pair2, [(4, 4)])
part2 = scr.run_screening(pair2)
bad = sorted(c for c, s in part2.status.items() if s == "bad" and c in part2.interior)
print(f"far polymer at (4,4): bad interior cubes {bad} (confined to its neighborhood)")
print(f"final region keeps {len(part2.lambda_cubes)} cubes; "
      f"verification ok: {scr.verify_stopping(pair2, part2, seed=3)['ok']}\n")

print("=== coupled runs with mismatched boundaries ===\n")
sol = mf.rescale(mf.common_tangent(3), 4.0)
region3 = sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0, n_plus=5)
phase3 = sim.PhaseTarget(rho_ref=sol.minimizers[-1], lambda_beta=sol.lambda_beta,
                         beta=4.0, zeta=2.0, t=0.03)
ladder3 = scr.LadderSpec(zeta=2.0, d=2, c_star=0.65)
kernel = sim.MoveKernel()


def build(seed):
    return fx.make_mismatched_pair(region3, phase3, seed, ladder=ladder3)


out = cpl.percolation_stats(build, n_runs=12, margins=[0, 1, 2], kernel=kernel, seed=100)
print(f"containment of the centered target by the stopped region, per distance margin:")
for m, p in out["containment"].items():
    print(f"  margin {m}: {p:.3f}")
print(f"agreement on the centered target: {out['agreement']}")
print(f"exponential fit: c1 = {out['c1']:.3f}, c2 = {out['c2']:.3f}, "
      f"r^2 = {out['r_squared']:.3f}")
print(f"surrogate coupling failure rate eps_hat = {out['eps_hat_mean']:.3f}")

print("\n=== the chain bound on polymer families ===\n")
g1 = scr.Polymer(support=frozenset({(0, 0)}))
g2 = scr.Polymer(support=frozenset({(3, 3), (3, 4)}))
fam = scr.PolymerSet([g1, g2])
rng = np.random.default_rng(1)
weights = [rng.uniform(0, scr.PolymerSet.bound(g, 1.0, 1.0, 1.0, 2)) for g in fam.polymers]
print(f"admissible weights {np.round(weights, 4).tolist()}: "
      f"chain bound holds on every sub-family: "
      f"{scr.peierls_chain_check(fam, weights)}")
