"""Sample the gas restricted to one phase's accuracy window and check the
chain against the exactly enumerable single-cell law.

Run:  python3 demos/restricted_sampler.py
"""

import math

import numpy as np

from pottsgas import fixtures as fx
from pottsgas import meanfield as mf
from pottsgas import simulate as sim

print("=== exact check on the single-cell system ===\n")
region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)
phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=1.5 + math.log(1.5),
                        beta=1.0, zeta=0.626, t=0.0)
exact = sim.poisson_window_weights(region, phase)
print(f"window: counts 4..8 per species, {len(exact)} occupancy states")

system = sim.ParticleSystem(region, phase, seed=1)
system.seed_phase_configuration()
kernel = sim.MoveKernel()
counts = {st: 0 for st in exact}
n_samples = 4000
for _ in range(n_samples):
    sim.metropolis_sweep(system, kernel, n_moves=40, audit=False)
    counts[tuple(int(v) for v in system.counts[0, 0])] += 1
print("state  exact    sampled")
for st in sorted(exact)[:8]:
    print(f"{st}  {exact[st]:.4f}   {counts[st] / n_samples:.4f}")
print("...\n")

print("=== an interacting chain in the uniform phase ===\n")
sol = mf.rescale(mf.common_tangent(3), 4.0)
region2 = sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)
phase2 = sim.PhaseTarget(rho_ref=sol.minimizers[-1], lambda_beta=sol.lambda_beta,
                         beta=4.0, zeta=2.0, t=1.0)
system2 = sim.ParticleSystem(region2, phase2, seed=3)
fx.fill_boundary(system2, seed=4)
system2.seed_phase_configuration()
system2.energy = system2.total_energy()
kernel2 = sim.MoveKernel()
accepted = sim.metropolis_sweep(system2, kernel2, n_moves=20_000)
obs = sim.measure_observables(system2, references=[phase2.rho_ref],
                              balls=[((0.0, 0.0), 3.0)])
print(f"accepted {accepted} of 20000 moves; still in the window: {system2.in_ensemble()}")
print(f"energy-audit drift (max): "
      f"{max(system2.audit_log) if system2.audit_log else 0.0:.2e}")
print(f"phase-indicator field:\n{obs['eta']}")
ball_pos, ball_spin = obs["balls"][0]
print(f"boundary particles within 3.0 of the box corner: {len(ball_spin)}")
