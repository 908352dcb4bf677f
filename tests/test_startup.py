import os
import subprocess
import sys
from pathlib import Path

import pottsgas

# the set-up of every benchmark workload and of the sample, couple, screen
# and lattice paths: module imports, the mean-field solution, the pair table,
# a lattice kernel, a seeded chain with one sweep, the energy audit and one
# audited sweep that crosses an audit, and a coupled pair
SETUP = """
import sys

from pottsgas import coupling, fixtures, kernels, lattice, meanfield, screening, simulate

sol = meanfield.common_tangent(3, 4.0)
kernels.PairPotential(0.2, 2)
lattice.build_kernel(lattice.LatticeSpec(d=2, ell=1.0, shape=(16, 16), gamma=0.05, S=3))
region = simulate.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0,
                            n_plus=5)
phase = simulate.PhaseTarget(rho_ref=sol.minimizers[-1], lambda_beta=sol.lambda_beta,
                             beta=4.0, zeta=2.0, t=1.0)
system = simulate.ParticleSystem(region, phase, seed=1)
fixtures.fill_boundary(system, seed=2)
system.seed_phase_configuration()
simulate.metropolis_sweep(system, simulate.MoveKernel(), n_moves=200, audit=False)
system.total_energy()
system.audit_every = 10
simulate.metropolis_sweep(system, simulate.MoveKernel(), n_moves=200)
assert system.audit_log, "the audited sweep crossed no audit"
system.remove_particles(system.mobile_ids[:5])
fixtures.make_mismatched_pair(region, phase, 3,
                              ladder=screening.LadderSpec(zeta=2.0, d=2, c_star=0.65))
# the scipy subpackages and numpy.ma, if loaded, by their first two name parts
print(" ".join(sorted({".".join(name.split(".")[:2]) for name in sys.modules
                       if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]})))
"""


def test_setup_path_imports_no_scipy():
    # scipy.integrate and scipy.spatial alone took 0.3-0.5 s of a 0.7 s
    # start-up; only transport's exact_transport, custom lattice profiles
    # and critical_spin_counts (when first called) import scipy.  numpy.ma, which
    # np.unique loads on its first call, costs 16 ms
    src = str(Path(pottsgas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SETUP], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "", f"modules loaded during set-up: {proc.stdout.strip()}"
