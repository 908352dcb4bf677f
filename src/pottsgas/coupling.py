"""Coupled resampling of two boundary-conditioned chains along the screening
iteration, and the percolation statistics of the stopped sets.

At each peel the region content is redrawn by one of three couplings chosen
from the pair outside the region: an independent product when polymers touch
the shell, the identity coupling when the boundary data agree on a collar of
one interaction range, and otherwise a practical surrogate for the
finite-size coupling: independent resampling away from the screening shell
plus common-random-number sweeps with shared acceptance uniforms near it.
The surrogate's agreement quality is never assumed; its empirical failure
rate is measured and reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import simulate
from .lattice import _log_linear_fit
from .screening import CubePartition, PairedState, classify_and_peel, touching
from .simulate import (
    MoveKernel,
    ParticleSystem,
    RowContext,
    TwinRows,
    apply_move,
    draw_move_uniforms,
)

__all__ = [
    "choose_branch",
    "coupled_update",
    "run_coupled_screening",
    "CoupledRunStats",
    "percolation_stats",
    "crn_sweep",
    "copy_region",
]


def choose_branch(pair: PairedState, partition: CubePartition) -> str:
    """Branch selection from the pair outside the running region: 'product'
    when polymers touch the shell, 'diagonal' when the boundary data agree on
    the one-range collar, else 'qt'."""
    poly = pair.polymer_cubes()
    if any(c in poly for c in partition.outer_shell()):
        return "product"
    return "diagonal" if pair.agree(partition.range_collar()) else "qt"


def copy_region(dst: ParticleSystem, src: ParticleSystem, cells: list):
    """Make dst's mobile content on the cells identical to src's."""
    cell_set = set(map(tuple, cells))
    dst.remove_particles(dst.mobile_in(cell_set))
    ids = src.mobile_in(cell_set)
    dst.add_particles(src.pos[ids], src.spin[ids])


def reinit_identical(pair: PairedState, cells: list, rng):
    """Replace both chains' content on the cells with one shared draw at the
    rounded reference counts: the common start of the surrogate coupling."""
    cell_set = set(map(tuple, cells))
    pos, spin = pair.sys1.draw_uniform(sorted(cell_set), pair.sys1.reference_counts, rng)
    for system in (pair.sys1, pair.sys2):
        system.remove_particles(system.mobile_in(cell_set))
        system.add_particles(pos, spin)


def crn_sweep(pair: PairedState, kernel: MoveKernel, cells: list, n_moves: int,
              rng) -> dict:
    """Common-random-number sweep on both chains: one shared row of
    uniforms per proposal resolves to a per-chain move, and a shared
    acceptance uniform maximally couples each accept decision.  While the
    chains stay aligned, each row is resolved once for both
    (``simulate.TwinRows``); they end as with each row resolved alone."""
    active = [tuple(c) for c in cells]
    rows1, rows2 = RowContext(pair.sys1, active), RowContext(pair.sys2, active)
    loc1 = pair.sys1.mobile_in(active)
    loc2 = pair.sys2.mobile_in(active)
    twins = TwinRows(pair.sys1, pair.sys2, loc1, loc2)
    acc1 = acc2 = 0
    for draws in draw_move_uniforms(rng, n_moves, pair.region.d).tolist():
        if apply_move(pair.sys1, kernel, draws, rows1, loc1, twins):
            acc1 += 1
        if apply_move(pair.sys2, kernel, draws, rows2, loc2, twins):
            acc2 += 1
    return {"accepted": (acc1, acc2), "aligned": twins.aligned_rows, "reused": twins.reused}


@dataclass
class CoupledRunStats:
    branches: list = field(default_factory=list)
    theta_checks: int = 0
    theta_failures: int = 0
    # rows of the crn_sweep calls: all, swept while aligned, decisions reused
    crn_rows: int = 0
    aligned_rows: int = 0
    reused_rows: int = 0

    @property
    def eps_hat(self) -> float:
        if self.theta_checks == 0:
            return 0.0
        return self.theta_failures / self.theta_checks


HALO_RINGS = 2  # running-region cube rings around the screening set that one update resamples


def _cube_rings(base: set, lam: set, rings: int) -> set:
    out = set(base)
    for _ in range(rings):
        out |= touching(out) & lam
    return out


def coupled_update(pair: PairedState, partition: CubePartition, kernel: MoveKernel,
                   sigma: list, rng1, rng2, sweeps: int = 1,
                   stats: CoupledRunStats | None = None) -> str:
    """Resample the region content relevant to the upcoming peel, with the
    branch chosen from the pair outside the running region.

    The identity and product branches act on the halo of the screening set
    (content farther away is untouched: the classification never reads it and
    the halo is wide enough that its sweeps cannot either).  The third branch
    re-initializes the halo identically in both chains from a shared stream
    and runs common-random-number sweeps; disagreement then enters only
    through the genuinely differing environment, and the observed failure
    rate of the agreement events over the screening set and its first ring is
    recorded.  ``sweeps`` (at least 1) scales the moves per update.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    lattice, lam = partition.lattice, partition.lambda_cubes
    sigma_set = set(sigma)
    halo = _cube_rings(sigma_set, lam, HALO_RINGS)
    # cube by cube, C order within a cube: the order drives birth picks
    halo_cells = list(map(tuple, lattice.cells[lattice.cube_rows(sorted(halo))].tolist()))
    branch = choose_branch(pair, partition)
    n_moves = max(1, sweeps * _estimate_moves(pair, halo_cells))

    independent = branch == "product"
    if branch == "qt":
        halo_shell = touching(halo) & (partition.interior | partition.collar)
        independent = bool(pair.polymer_cubes() & halo_shell)

    # metropolis_sweep is looked up on its module at call time, so a wrapper
    # installed on simulate.metropolis_sweep also sees these sweeps
    if branch == "diagonal":
        simulate.metropolis_sweep(pair.sys1, kernel, n_moves, halo_cells, rng1, audit=False)
        copy_region(pair.sys2, pair.sys1, halo_cells)
    elif independent:
        for system, rng in ((pair.sys1, rng1), (pair.sys2, rng2)):
            simulate.metropolis_sweep(system, kernel, n_moves, halo_cells, rng, audit=False)
    else:
        reinit_identical(pair, halo_cells, rng1)
        sweep = crn_sweep(pair, kernel, halo_cells, n_moves, rng1)
        if stats is not None:
            stats.crn_rows += n_moves
            stats.aligned_rows += sweep["aligned"]
            stats.reused_rows += sweep["reused"]
            held = partition.held(pair, sorted(_cube_rings(sigma_set, lam, 1)))
            stats.theta_checks += len(held)
            stats.theta_failures += int(np.count_nonzero(~held))
    if stats is not None:
        stats.branches.append(branch)
    return branch


def _estimate_moves(pair: PairedState, cells: list) -> int:
    vol = pair.region.cell_volume
    expected = float(np.sum(pair.sys1.phase.rho_ref)) * vol * len(cells)
    return int(math.ceil(expected))


def run_coupled_screening(pair: PairedState, kernel: MoveKernel, seed: int = 0,
                          sweeps: int = 1) -> tuple[CubePartition, CoupledRunStats]:
    """Drive the screening with coupled resampling of the running region at
    every step."""
    partition = CubePartition(pair.region)
    stats = CoupledRunStats()
    rng1 = np.random.default_rng((seed, 1))
    rng2 = np.random.default_rng((seed, 2))
    while True:
        sel = partition.select_next(pair.polymer_cubes())
        if sel is None:
            break
        chosen, sigma = sel
        coupled_update(pair, partition, kernel, sigma, rng1, rng2, sweeps=sweeps, stats=stats)
        classify_and_peel(partition, pair, chosen, sigma)
    return partition, stats


# ---------------------------------------------------------------------------
# percolation statistics


def _delta_cubes(n_plus: int, d: int, margin: int) -> set:
    return set(itertools.product(range(margin, n_plus - margin), repeat=d))


def percolation_stats(make_pair, n_runs: int, margins: list, kernel: MoveKernel,
                      seed: int = 0, sweeps: int = 1) -> dict:
    """Ensemble of coupled screenings: estimates, per distance (cube margins
    from the box edge), the probability that the stopped region still covers
    the centered target and the probability that the chains agree there, then
    fits log(1 - p) of the containment against the distance.

    ``make_pair(seed)`` must build a fresh PairedState.  All-contained
    distances are excluded from the fit; if fewer than two distances remain,
    or log(1 - p) is the same at all of them, the decay floor was reached:
    ``decay_floor`` is True and ``c1``, ``c2`` and ``r_squared`` are None.
    ``n_runs`` must be at least 1 and every margin at least 0.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be at least 1, got {n_runs}")
    if min(margins, default=0) < 0:
        raise ValueError(f"margins must be at least 0, got {margins}")
    contain = {m: 0 for m in margins}
    agree = {m: 0 for m in margins}
    eps_hats = []
    for k in range(n_runs):
        pair = make_pair(seed + 1000 * k)
        region = pair.region
        partition, stats = run_coupled_screening(pair, kernel, seed=seed + 1000 * k, sweeps=sweeps)
        eps_hats.append(stats.eps_hat)
        lattice = partition.lattice
        for m in margins:
            delta = _delta_cubes(region.n_plus, region.d, m)
            if delta and delta <= partition.lambda_cubes:
                contain[m] += 1
            if delta and pair.agree(lattice.cells[lattice.cube_rows(delta)]):
                agree[m] += 1
    out = {
        "n_runs": n_runs,
        "containment": {m: contain[m] / n_runs for m in margins},
        "agreement": {m: agree[m] / n_runs for m in margins},
        "eps_hat_mean": float(np.mean(eps_hats)),
        "decay_floor": False,
        "c1": None,
        "c2": None,
        "r_squared": None,
    }
    xs, ys = [], []
    for m in margins:
        p = out["containment"][m]
        if p < 1.0:
            xs.append(float(m))  # dist(Delta, Lambda^c) in units of the cube side
            ys.append(math.log(1.0 - p))
    fit = _log_linear_fit(xs, ys)
    if fit is None:
        out["decay_floor"] = True
    else:
        out["c1"], out["c2"], out["r_squared"] = fit
    return out
