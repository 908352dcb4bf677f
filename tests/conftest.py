"""Fixtures shared across test modules."""

import math

import numpy as np
import pytest

from pottsgas import simulate as sim


@pytest.fixture(scope="session")
def enumeration_chain():
    """(exact law, tally) of the seeded single-cell two-species chain at
    t = 0 that criterion 9 and ``test_stationary_law_matches_enumeration``
    both check: the window-truncated Poisson law of the cell's occupancy,
    and how often the chain sits in each occupancy over 25,000 samples taken
    every 40 proposals (one million proposals).  The tangent value puts the
    Poisson rate (= 6) mid-window.  Run once per session."""
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=1.5 + math.log(1.5),
                            beta=1.0, zeta=0.626, t=0.0)
    exact = sim.poisson_window_weights(region, phase)
    system = sim.ParticleSystem(region, phase, seed=123)
    system.seed_phase_configuration()
    kernel = sim.MoveKernel()
    thin, n_samples = 40, 25_000
    counts = {st: 0 for st in exact}
    for _ in range(n_samples):
        sim.metropolis_sweep(system, kernel, n_moves=thin, audit=False)
        counts[tuple(int(v) for v in system.counts[0, 0])] += 1
    return exact, counts
