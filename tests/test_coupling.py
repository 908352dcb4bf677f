import math

import numpy as np
import pytest

from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import meanfield as mf
from pottsgas import screening as scr
from pottsgas import simulate as sim


@pytest.fixture(scope="module")
def sol4():
    return mf.rescale(mf.common_tangent(3), 4.0)


def perc_region():
    return sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0, n_plus=5)


def perc_phase(sol4, t=0.03):
    return sim.PhaseTarget(rho_ref=sol4.minimizers[-1], lambda_beta=sol4.lambda_beta,
                           beta=4.0, zeta=2.0, t=t)


def perc_ladder():
    return scr.LadderSpec(zeta=2.0, d=2, c_star=0.65)


def test_choose_branch_cases(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    ladder = perc_ladder()
    ident = fx.make_identical_pair(region, phase, 1, ladder=ladder)
    part = scr.CubePartition(region)
    assert cpl.choose_branch(ident, part) == "diagonal"

    mism = fx.make_mismatched_pair(region, phase, 2, ladder=ladder)
    assert cpl.choose_branch(mism, scr.CubePartition(region)) == "qt"

    poly = fx.make_identical_pair(region, phase, 3, ladder=ladder)
    fx.inject_polymer(poly, [(0, 0)])  # interior cube in the shell of Lambda_0?
    part3 = scr.CubePartition(region)
    # (0,0) belongs to the region itself, not its outer shell, so the branch
    # stays diagonal until the shell contains a polymer cube
    assert cpl.choose_branch(poly, part3) == "diagonal"
    part3.lambda_cubes.discard((0, 0))  # now (0,0) is in the shell
    assert cpl.choose_branch(poly, part3) == "product"


def test_copy_region_makes_cells_identical(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    a = fx.make_mismatched_pair(region, phase, 5, ladder=perc_ladder())
    cells = [(0, 0), (0, 1), (1, 0)]
    cpl.copy_region(a.sys2, a.sys1, cells)
    for cell in cells:
        assert scr._cell_signature(a.sys1, cell) == scr._cell_signature(a.sys2, cell)


def _scan_mobile_in(system, cells):
    # the hand-written scan that ParticleSystem.mobile_in replaces
    return [i for i in system.mobile_ids
            if tuple(c - system.w for c in system.cell_of[i]) in cells]


def test_mobile_in_and_cell_particles_track_the_cell_index(sol4):
    region = perc_region()
    pair = fx.make_mismatched_pair(region, perc_phase(sol4), 8, ladder=perc_ladder())
    s1, s2 = pair.sys1, pair.sys2
    n = region.cells_per_axis
    rng = np.random.default_rng(4)
    all_cells = [tuple(c) for c in np.ndindex(n, n)]

    def check(system):
        for _ in range(5):
            pick = rng.choice(len(all_cells), int(rng.integers(1, len(all_cells))), replace=False)
            cells = [all_cells[k] for k in pick]
            expected = _scan_mobile_in(system, set(cells))
            assert system.mobile_in(set(cells)) == expected
            assert system.mobile_in(frozenset(cells)) == expected
        # cell_particles against a position scan over every live particle
        live = np.flatnonzero(system.alive)
        home = np.floor(system.pos[live] / region.ell_minus).astype(int)
        for cell in [(0, 0), (n - 1, 3), (-1, 2), (n, n)]:
            pos, spin = system.cell_particles(cell)
            ids = live[np.all(home == cell, axis=1)]
            assert sorted(map(tuple, pos)) == sorted(map(tuple, system.pos[ids]))
            assert sorted(spin) == sorted(system.spin[ids])

    check(s1)
    before_ids = set(s1.mobile_ids)
    before_cell = {i: s1.cell_of[i] for i in s1.mobile_ids}
    # births, deaths and displacements long enough to cross cells
    sim.metropolis_sweep(s1, sim.MoveKernel(step=3.0), n_moves=3000, audit=False)
    after_ids = set(s1.mobile_ids)
    assert before_ids - after_ids and after_ids - before_ids
    assert any(s1.cell_of[i] != before_cell[i] for i in before_ids & after_ids)
    check(s1)
    cpl.copy_region(s2, s1, all_cells[::3])
    check(s2)


def test_reinit_identical(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    pair = fx.make_mismatched_pair(region, phase, 6, ladder=perc_ladder())
    cells = [(2, 2), (2, 3), (3, 2), (3, 3)]
    rng = np.random.default_rng(0)
    cpl.reinit_identical(pair, cells, rng)
    vol = region.cell_volume
    target = np.round(phase.rho_ref * vol).astype(int)
    for cell in cells:
        assert scr._cell_signature(pair.sys1, cell) == scr._cell_signature(pair.sys2, cell)
        assert np.array_equal(scr._cell_counts(pair.sys1, cell), target)


def test_diagonal_branch_preserves_equality(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    pair = fx.make_identical_pair(region, phase, 7, ladder=perc_ladder())
    kernel = sim.MoveKernel()
    part, stats = cpl.run_coupled_screening(pair, kernel, seed=7, sweeps=1)
    assert set(stats.branches) == {"diagonal"}
    # the chains remain equal on every interior cell
    cpc = scr._cells_per_cube(region)
    for cube in part.interior:
        for cell in scr._cube_cells(cube, cpc):
            assert scr._cell_signature(pair.sys1, cell) == scr._cell_signature(pair.sys2, cell)


def test_crn_marginal_matches_exact_kernel():
    # one-cell two-species system at t=0: the per-move transition law of each
    # CRN-coupled chain equals the single-chain kernel
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=1.5 + math.log(1.5),
                            beta=1.0, zeta=0.626, t=0.0)
    kernel = sim.MoveKernel()
    states, P = cpl.exact_occupancy_kernel(region, phase, kernel)
    index = {st: i for i, st in enumerate(states)}

    s1 = sim.ParticleSystem(region, phase, seed=11)
    s2 = sim.ParticleSystem(region, phase, seed=12)
    s1.seed_phase_configuration()
    s2.seed_phase_configuration()
    pair = scr.PairedState(s1, s2, ladder=scr.LadderSpec(zeta=0.626, d=2))
    rng = np.random.default_rng(123)
    active = [(0, 0)]
    active_set = frozenset(active)
    loc1 = list(s1.mobile_ids)
    loc2 = list(s2.mobile_ids)
    volume = region.cell_volume
    n_moves = 1_000_000
    counts1 = np.zeros_like(P)
    visits1 = np.zeros(len(states))
    for _ in range(n_moves):
        draws = sim.draw_move_uniforms(rng, 2)
        st1 = tuple(int(v) for v in s1.counts[0, 0])
        m1 = sim.build_move(s1, kernel, draws, active, loc1)
        if m1 is not None:
            sim.apply_move(s1, m1, draws[-1], active_set, loc1, volume)
        m2 = sim.build_move(s2, kernel, draws, active, loc2)
        if m2 is not None:
            sim.apply_move(s2, m2, draws[-1], active_set, loc2, volume)
        new1 = tuple(int(v) for v in s1.counts[0, 0])
        i = index[st1]
        visits1[i] += 1
        counts1[i, index[new1]] += 1
    # entrywise comparison with a three-standard-error statistical allowance
    # on top of the contracted 1e-3
    for i in range(len(states)):
        if visits1[i] == 0:
            continue
        emp = counts1[i] / visits1[i]
        se = np.sqrt(np.maximum(P[i] * (1 - P[i]), 1e-12) / visits1[i])
        assert np.all(np.abs(emp - P[i]) <= 1e-3 + 3.0 * se), (states[i],)


def test_eps_hat_decreases_with_gamma(sol4):
    # the surrogate coupling's agreement-failure rate falls as the range
    # grows (fixed seeds; the averaging of cell densities drives the trend)
    means = []
    for gamma in (0.5, 0.3, 0.2):
        inv = 1.0 / gamma
        region = sim.SimRegion(d=2, S=3, gamma=gamma, ell0=inv / 2, ell_minus=inv,
                               ell_plus=2 * inv, n_plus=2)
        phase = sim.PhaseTarget(rho_ref=sol4.minimizers[-1], lambda_beta=sol4.lambda_beta,
                                beta=4.0, zeta=2.0, t=0.03)
        ladder = scr.LadderSpec(zeta=1.0, d=2, c_star=0.65)
        kernel = sim.MoveKernel()
        eps = []
        for k in range(16):
            pair = fx.make_mismatched_pair(region, phase, seed=700 + k, ladder=ladder)
            _, stats = cpl.run_coupled_screening(pair, kernel, seed=700 + k, sweeps=1)
            if stats.theta_checks:
                eps.append(stats.eps_hat)
        means.append(float(np.mean(eps)))
    assert means[0] > means[1] > means[2], means
    assert all(m < 1 for m in means)


def test_percolation_identical_boundaries_agree(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    ladder = perc_ladder()
    kernel = sim.MoveKernel()

    def build(seed):
        return fx.make_identical_pair(region, phase, seed, ladder=ladder)

    out = cpl.percolation_stats(build, n_runs=6, margins=[0, 1, 2], kernel=kernel, seed=10)
    assert all(v == 1.0 for v in out["agreement"].values())


@pytest.mark.slow
def test_percolation_mismatched_decay(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    ladder = perc_ladder()
    kernel = sim.MoveKernel()

    def build(seed):
        return fx.make_mismatched_pair(region, phase, seed, ladder=ladder)

    out = cpl.percolation_stats(build, n_runs=24, margins=[0, 1, 2], kernel=kernel, seed=40)
    c = out["containment"]
    assert c[0] <= c[1] <= c[2]  # containment grows with the distance margin
    assert not out["decay_floor"]
    assert out["c2"] is not None and out["c2"] > 0
    assert out["eps_hat_mean"] < 1.0


def test_exact_kernel_rows_stochastic():
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=0.9, beta=1.0,
                            zeta=0.626, t=0.0)
    kernel = sim.MoveKernel()
    states, P = cpl.exact_occupancy_kernel(region, phase, kernel)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P >= 0)
    # stationarity of the closed-form law under the kernel (detailed balance)
    weights = sim.poisson_window_weights(region, phase)
    pi = np.array([weights[st] for st in states])
    assert np.max(np.abs(pi @ P - pi)) < 1e-12
