import copy
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import meanfield as mf
from pottsgas import screening as scr
from pottsgas import simulate as sim
from pottsgas.simulate import MoveKernel, occupancy_window


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
    part3.peel((-1, -1), [(0, 0)], {(0, 0): "bad"})  # now (0,0) is in the shell
    assert cpl.choose_branch(poly, part3) == "product"


def test_copy_region_makes_cells_identical(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    a = fx.make_mismatched_pair(region, phase, 5, ladder=perc_ladder())
    cells = [(0, 0), (0, 1), (1, 0)]
    cpl.copy_region(a.sys2, a.sys1, cells)
    assert a.agree(cells)


def _home_cell(system, i):
    return tuple(int(c) for c in np.floor(system.pos[i] / system.region.ell_minus))


def _scan_mobile_in(system, cells):
    # mobile ids whose cell, read off the position, is in the set
    return [i for i in system.mobile_ids if _home_cell(system, i) in cells]


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
    before_cell = {i: _home_cell(s1, i) for i in s1.mobile_ids}
    # births, deaths and displacements long enough to cross cells
    sim.metropolis_sweep(s1, sim.MoveKernel(step=3.0), n_moves=3000, audit=False)
    after_ids = set(s1.mobile_ids)
    assert before_ids - after_ids and after_ids - before_ids
    assert any(_home_cell(s1, i) != before_cell[i] for i in before_ids & after_ids)
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
    assert pair.agree(cells)
    for cell in cells:
        assert np.array_equal(pair.sys1.counts[cell], target)


def _assert_energy_exact(pair):
    for system in (pair.sys1, pair.sys2):
        fresh = system.total_energy()
        assert abs(system.energy - fresh) <= 1e-9 * max(abs(fresh), 1.0)


def test_bulk_edits_keep_the_running_energy_exact(sol4):
    # every edit outside the Metropolis moves leaves energy equal to a fresh
    # total_energy(), so an audited sweep afterwards measures true drift
    region = sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)
    pair = fx.make_mismatched_pair(region, perc_phase(sol4, t=1.0), 5, ladder=perc_ladder())
    lam = scr.CubePartition(region).lambda_cubes
    cpl.reinit_identical(pair, [(1, 1), (1, 2), (2, 1), (2, 2)], np.random.default_rng(0))
    _assert_energy_exact(pair)
    cpl.copy_region(pair.sys2, pair.sys1, [(0, 0), (0, 1), (3, 3)])
    _assert_energy_exact(pair)
    scr._default_perturbation(pair, lam, np.random.default_rng(1))
    _assert_energy_exact(pair)
    # an edit followed directly by an audited sweep, with no read in between
    scr._default_perturbation(pair, lam, np.random.default_rng(2))
    for system in (pair.sys1, pair.sys2):
        system.audit_every = 50
        sim.metropolis_sweep(system, sim.MoveKernel(), n_moves=600)
        drifts = np.array(system.audit_log)
        assert len(drifts) and np.all(drifts <= 1e-7 * max(abs(system.energy), 1.0))


def test_diagonal_branch_preserves_equality(sol4):
    region = perc_region()
    phase = perc_phase(sol4)
    pair = fx.make_identical_pair(region, phase, 7, ladder=perc_ladder())
    kernel = sim.MoveKernel()
    part, stats = cpl.run_coupled_screening(pair, kernel, seed=7, sweeps=1)
    assert set(stats.branches) == {"diagonal"}
    # the chains remain equal on every interior cell
    assert pair.agree(part.lattice.cells[part.lattice.cube_rows(part.interior)])


def test_run_stats_count_the_crn_rows(sol4):
    # CoupledRunStats sums crn_sweep's counts over a run: every row of every
    # common-random-number sweep, the rows swept aligned and the rows reused
    pair = fx.make_mismatched_pair(perc_region(), perc_phase(sol4), 11, ladder=perc_ladder())
    crn_sweep, sweeps = cpl.crn_sweep, []

    def counted(pair, kernel, cells, n_moves, rng):
        out = crn_sweep(pair, kernel, cells, n_moves, rng)
        sweeps.append((n_moves, out["aligned"], out["reused"]))
        return out

    with mock.patch.object(cpl, "crn_sweep", counted):
        _, stats = cpl.run_coupled_screening(pair, sim.MoveKernel(), seed=11)
    assert 0 < len(sweeps) <= stats.branches.count("qt")
    assert [stats.crn_rows, stats.aligned_rows, stats.reused_rows] == np.sum(sweeps, axis=0).tolist()
    assert 0 < stats.reused_rows <= stats.aligned_rows <= stats.crn_rows


def exact_occupancy_kernel(region, phase, kernel: MoveKernel) -> tuple[list, np.ndarray]:
    """Transition matrix of the single-chain dynamics on the occupancy
    numbers of a one-cell system at t = 0 (positions integrate out)."""
    if phase.t != 0.0:
        raise ValueError("closed-form kernel requires t = 0")
    if region.cells_per_axis != 1:
        raise ValueError("one-cell system required")
    vol = region.cell_volume
    S = region.S
    lo, hi = occupancy_window(phase, vol)
    states = list(itertools.product(*[range(lo[s], hi[s] + 1) for s in range(S)]))
    index = {st: i for i, st in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    m = phase.neighbor_sum
    for st in states:
        i = index[st]
        n = sum(st)
        for s in range(S):
            # birth of species s
            dh = float(m[s] - phase.lambda_beta)
            a = min(1.0, vol * S / (n + 1) * math.exp(-phase.beta * dh))
            target = tuple(st[k] + (k == s) for k in range(S))
            p = kernel.p_birth / S * (a if target in index else 0.0)
            if target in index:
                P[i, index[target]] += p
            # death of species s: pick a uniform particle of that species
            if n > 0 and st[s] > 0:
                dh_d = -float(m[s] - phase.lambda_beta)
                a_d = min(1.0, n / (vol * S) * math.exp(-phase.beta * dh_d))
                target_d = tuple(st[k] - (k == s) for k in range(S))
                if target_d in index:
                    P[i, index[target_d]] += kernel.p_death * st[s] / n * a_d
            # flips s -> s2
            if st[s] > 0:
                for s2 in range(S):
                    if s2 == s:
                        continue
                    dh_f = float(m[s2] - m[s])
                    a_f = min(1.0, math.exp(-phase.beta * dh_f))
                    tgt = list(st)
                    tgt[s] -= 1
                    tgt[s2] += 1
                    tgt = tuple(tgt)
                    if tgt in index:
                        P[i, index[tgt]] += (
                            kernel.p_flip * st[s] / n / (S - 1) * a_f
                        )
        P[i, i] += 1.0 - P[i].sum()
    return states, P


def test_crn_marginal_matches_exact_kernel():
    # one-cell two-species system at t=0: the per-move transition law of each
    # chain of a CRN pair equals the single-chain kernel.  The chains start
    # from one configuration and share the rows through the pair's TwinRows,
    # so while they stay aligned the second chain takes over the first
    # chain's proposal, and its decision wherever their blocks are twin:
    # its law checks those shared decisions
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=1.5 + math.log(1.5),
                            beta=1.0, zeta=0.626, t=0.0)
    kernel = sim.MoveKernel()
    states, P = exact_occupancy_kernel(region, phase, kernel)
    index = {st: i for i, st in enumerate(states)}

    s1 = sim.ParticleSystem(region, phase, seed=11)
    s2 = sim.ParticleSystem(region, phase, seed=12)
    s1.seed_phase_configuration()
    s2.add_particles(s1.pos[s1.mobile_ids], s1.spin[s1.mobile_ids])
    pair = scr.PairedState(s1, s2, ladder=scr.LadderSpec(zeta=0.626, d=2))
    rng = np.random.default_rng(123)
    active = [(0, 0)]
    chains = [(pair.sys1, list(pair.sys1.mobile_ids)), (pair.sys2, list(pair.sys2.mobile_ids))]
    twins = sim.TwinRows(pair.sys1, pair.sys2, chains[0][1], chains[1][1])
    rows = [sim.RowContext(system, active) for system, _ in chains]
    n_moves = 1_000_000
    counts = np.zeros((2,) + P.shape)
    for _ in range(100):  # in blocks, to bound memory; the stream is the same
        for draws in sim.draw_move_uniforms(rng, n_moves // 100, 2).tolist():
            for k, (system, loc) in enumerate(chains):
                i = index[tuple(system.counts[0, 0].tolist())]
                sim.apply_move(system, kernel, draws, rows[k], loc, twins)
                counts[k, i, index[tuple(system.counts[0, 0].tolist())]] += 1
    assert twins.reused > n_moves // 2
    # entrywise comparison with a three-standard-error statistical allowance
    # on top of the contracted 1e-3
    for k in range(2):
        visits = counts[k].sum(axis=1)
        for i in np.flatnonzero(visits):
            emp = counts[k, i] / visits[i]
            se = np.sqrt(np.maximum(P[i] * (1 - P[i]), 1e-12) / visits[i])
            assert np.all(np.abs(emp - P[i]) <= 1e-3 + 3.0 * se), (k, states[i])


# ---------------------------------------------------------------------------
# twin rows: crn_sweep against the two-call loop


def twin_region():
    # 4x4 interior cells of 12 particles, rows grown past CAP; the blocks
    # of the four central cells stay off the collar
    return sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=4)


def twin_pair(start, t, seed=5):
    """A pair whose cells start fully twin, partly twin (equal interiors,
    other collars) or fully different; or twin contents under another
    ``lambda_beta``; or twin contents whose equal local ids hold duplicate
    particles (equal position and spin) at other places of one cell row."""
    region = twin_region()
    phase = sim.PhaseTarget(rho_ref=np.full(3, 1.0), lambda_beta=1.5, beta=1.0, zeta=0.75, t=t)
    if start == "different":
        return fx.make_pair(region, phase, (seed, seed + 1), (seed + 2, seed + 3))
    if start == "partly":
        return fx.make_mismatched_pair(region, phase, seed)
    pair = fx.make_identical_pair(region, phase, seed)
    if start == "lambda":
        # lam stays 1.5: only the reference energy's tangent value differs.
        # The second chain holds the same particles, under its own phase
        other = fx.make_identical_pair(region, dataclasses.replace(phase, lambda_beta=1.25), seed)
        pair = scr.PairedState(pair.sys1, other.sys2)
    elif start == "duplicates":
        # each chain drops its particle y at (5, 5), and the swap-removal
        # moves the last duplicate a2 of cell (1, 1) into y's local slot:
        # local ids end ..., a2, a1, b in the first chain and ..., a1, a2, b
        # in the second, over one cell row ..., a1, b, a2
        a, b, y = [3.0, 3.0], [3.5, 3.5], [5.0, 5.0]
        for system, batch, drop in ((pair.sys1, [y, a, b, a], -4), (pair.sys2, [a, y, b, a], -3)):
            system.add_particles(batch, [0, 0, 1, 0])
            system.remove_particles([system.mobile_ids[drop]])
            system.energy  # resolve it: reused energy changes must then match bit for bit
    return pair


def two_call_loop(pair, kernel, cells, n_moves, rng):
    """The reference for crn_sweep: each chain decides each row on its own."""
    active = [tuple(c) for c in cells]
    rows1, rows2 = sim.RowContext(pair.sys1, active), sim.RowContext(pair.sys2, active)
    loc1 = pair.sys1.mobile_in(active)
    loc2 = pair.sys2.mobile_in(active)
    for draws in sim.draw_move_uniforms(rng, n_moves, pair.region.d):
        sim.apply_move(pair.sys1, kernel, draws, rows1, loc1)
        sim.apply_move(pair.sys2, kernel, draws, rows2, loc2)


def full_state(system):
    """Every attribute but the stamps, arrays and floats by their bits."""
    out = {}
    for name, value in vars(system).items():
        if name in ("stamp", "cell_stamps", "_region", "_phase", "potential"):
            continue
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = value.hex()
        elif name == "rng":
            value = value.bit_generator.state
        out[name] = value
    return out


def twin_oracle(a, b):
    """Per extended cell, whether both rows list equal (position, spin)
    pairs in the same order: a loop over cells and particles."""
    out = []
    for c in range(len(a.fill)):
        rows = [[(tuple(s.pos[i].tolist()), int(s.spin[i])) for i in s.members[c, : s.fill[c]]]
                for s in (a, b)]
        out.append(rows[0] == rows[1])
    return np.array(out)


@pytest.mark.parametrize("t", [0.0, 0.03, 1.0])
@pytest.mark.parametrize("start", ["twin", "partly", "different", "lambda", "duplicates"])
def test_crn_sweep_matches_two_call_loop(start, t):
    pair = twin_pair(start, t)
    ref = copy.deepcopy(pair)
    kernel = sim.MoveKernel()
    cells = list(np.ndindex(4, 4))
    out = cpl.crn_sweep(pair, kernel, cells, 1500, np.random.default_rng(17))
    two_call_loop(ref, kernel, cells, 1500, np.random.default_rng(17))
    for got, want in ((pair.sys1, ref.sys1), (pair.sys2, ref.sys2)):
        assert full_state(got) == full_state(want)
    # a twin start stays aligned and reuses all but a few rows; a partly
    # twin one reuses rows too (its interior blocks are twin); the other
    # starts are never aligned
    assert out["reused"] <= out["aligned"] <= 1500
    if start in ("different", "lambda", "duplicates"):
        assert out["aligned"] == out["reused"] == 0
    else:
        assert out["reused"] > (1000 if start == "twin" else 0)


@pytest.mark.parametrize("start", ["twin", "partly"])
def test_crn_sweep_keeps_a_known_energy_exact(start):
    # at t > 0 the first chain's unknown energy lets the bound accept rows
    # with a NaN change; the second chain, whose energy is known, must decide
    # such rows itself and end as the two-call loop leaves it
    pair = twin_pair(start, 0.03)
    pair.sys2.energy  # resolve it
    ref = copy.deepcopy(pair)
    kernel = sim.MoveKernel()
    cells = list(np.ndindex(4, 4))
    out = cpl.crn_sweep(pair, kernel, cells, 1500, np.random.default_rng(17))
    two_call_loop(ref, kernel, cells, 1500, np.random.default_rng(17))
    for got, want in ((pair.sys1, ref.sys1), (pair.sys2, ref.sys2)):
        assert full_state(got) == full_state(want)
    assert math.isnan(pair.sys1._energy) and math.isfinite(pair.sys2._energy)
    assert out["reused"] > 0


@pytest.mark.parametrize("t", [0.03, 1.0])
@pytest.mark.parametrize("start", ["twin", "partly", "different"])
def test_twin_flags_imply_twin_rows(start, t):
    # the flags, built once, start out as the loop oracle and claim no cell
    # that it denies while the chains stay aligned; a different start is
    # never aligned and flags nothing
    pair = twin_pair(start, t)
    kernel = sim.MoveKernel()
    active = list(np.ndindex(4, 4))
    loc = [s.mobile_in(active) for s in (pair.sys1, pair.sys2)]
    twins = sim.TwinRows(pair.sys1, pair.sys2, *loc)
    assert twins.aligned == (start != "different")
    assert np.array_equal(twins.cells, twin_oracle(pair.sys1, pair.sys2))
    assert twins.cells.any() == twins.aligned
    assert np.array_equal(twins.blocks, whole_blocks(pair.sys1, twins.cells))
    flags = twins.cells.copy(), twins.blocks.copy()
    contexts = [sim.RowContext(s, active) for s in (pair.sys1, pair.sys2)]
    checked = 0
    rows = sim.draw_move_uniforms(np.random.default_rng(3), 400, 2).tolist()
    for k, draws in enumerate(rows):
        for system, context, local in zip((pair.sys1, pair.sys2), contexts, loc):
            sim.apply_move(system, kernel, draws, context, local, twins)
        if k % 20 == 19 and twins.aligned:
            assert not np.any(twins.cells & ~twin_oracle(pair.sys1, pair.sys2)), k
            checked += 1
    assert np.array_equal(twins.cells, flags[0]) and np.array_equal(twins.blocks, flags[1])
    assert checked > 0 or start == "different"
    assert np.array_equal(pair.sys1.twin_cells(pair.sys2), twin_oracle(pair.sys1, pair.sys2))


def whole_blocks(system, cells):
    """Per extended cell, whether it is interior and every cell of its
    block is flagged in ``cells``."""
    out = np.zeros_like(cells)
    for cell in np.ndindex(*(system.n_int,) * system.region.d):
        c = system.flat_cell(cell)
        out[c] = cells[c + system._ball].all()
    return out


@pytest.mark.parametrize("differ", ["ratio"])
def test_twin_rows_decide_apart_when_proposals_differ(differ):
    # equal blocks around cell (1, 1), but one more local particle in the
    # second chain, far off in cell (3, 3): a birth in (1, 1) has the same
    # pair sum but another proposal ratio.  The pair is not aligned, so each
    # chain proposes and decides the row on its own
    region = twin_region()
    phase = sim.PhaseTarget(rho_ref=np.full(3, 1.0), lambda_beta=1.5, beta=1.0, zeta=5.0, t=1.0)
    pair = fx.make_identical_pair(region, phase, 5)
    pair.sys2.add_particles([[7.0, 7.0]], [0])
    active = list(np.ndindex(4, 4))
    loc = [s.mobile_in(active) for s in (pair.sys1, pair.sys2)]
    contexts = [sim.RowContext(s, active) for s in (pair.sys1, pair.sys2)]
    twins = sim.TwinRows(pair.sys1, pair.sys2, *loc)
    assert not twins.aligned and not twins.cells.any()
    row = [0.0, (active.index((1, 1)) + 0.5) / len(active), 0.25, 0.75, 0.9]
    thresholds = []
    for system, rows, local in zip((pair.sys1, pair.sys2), contexts, loc):
        move = sim._propose(system, MoveKernel(), row + [0.0], rows, local)
        dh = sim._metropolis(system, move, 0.0, None)[1]
        thresholds.append(move.ratio * math.exp(-phase.beta * dh))
    assert 1.0 > thresholds[0] > thresholds[1]
    row.append(math.sqrt(thresholds[0] * thresholds[1]))
    got = tuple(sim.apply_move(system, MoveKernel(), row, rows, local, twins)
                for system, rows, local in zip((pair.sys1, pair.sys2), contexts, loc))
    assert got == (True, False)
    assert twins.aligned_rows == twins.reused == 0


def test_twin_cells_matches_per_cell_loop():
    pair = twin_pair("partly", 0.03)
    a, b = pair.sys1, pair.sys2
    assert np.array_equal(a.twin_cells(b), twin_oracle(a, b))
    # rows of a member table wider than the other's, and reordered rows
    a.add_particles(np.full((20, 2), 2.5) + np.linspace(0.0, 1.0, 20)[:, None], [0] * 20)
    assert a.members.shape[1] > b.members.shape[1]
    b.remove_particles(b.mobile_in({(0, 0)})[:1])
    assert np.array_equal(a.twin_cells(b), twin_oracle(a, b))
    assert np.array_equal(b.twin_cells(a), twin_oracle(b, a))
    ids = a.mobile_in({(2, 2)})
    pos, spin = a.pos[ids[:2]].copy(), a.spin[ids[:2]].copy()
    a.remove_particles(ids[:2])
    a.add_particles(pos[::-1], spin[::-1])  # same particles, other filing order
    want = twin_oracle(a, b)
    assert np.array_equal(a.twin_cells(b), want)
    assert not want[a.flat_cell((2, 2))]


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


def test_percolation_margins_beyond_the_box_report_a_decay_floor(sol4):
    # with n_plus = 2 a margin of 1 or more leaves no target cube, so the
    # containment is 0 at every margin and every log(1 - p) is 0: a flat line
    # is no decay, not a perfect fit with c2 = -0.0 and r_squared = 1
    region = sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)
    phase = perc_phase(sol4)

    def build(seed):
        return fx.make_mismatched_pair(region, phase, seed, ladder=perc_ladder())

    out = cpl.percolation_stats(build, n_runs=1, margins=[1, 2], kernel=sim.MoveKernel(), seed=3)
    assert out["containment"] == {1: 0.0, 2: 0.0}
    assert out["decay_floor"] is True
    assert out["c1"] is None and out["c2"] is None and out["r_squared"] is None


def test_percolation_stats_rejects_fewer_than_one_run():
    # n_runs = 0 divided by zero in the containment estimate
    with pytest.raises(ValueError, match="n_runs"):
        cpl.percolation_stats(lambda seed: None, n_runs=0, margins=[0], kernel=sim.MoveKernel())


def test_percolation_stats_rejects_a_negative_margin():
    # a margin below -1 names cubes beyond the partition's grid, which has
    # no cells for them; the CLI already rejects every margin below 0
    with pytest.raises(ValueError, match="margins"):
        cpl.percolation_stats(lambda seed: None, n_runs=1, margins=[0, -2],
                              kernel=sim.MoveKernel())


def test_coupled_screening_rejects_fewer_than_one_sweep(sol4):
    # sweeps = 0 ran one move per peel through max(1, sweeps * moves)
    pair = fx.make_mismatched_pair(perc_region(), perc_phase(sol4), 3, ladder=perc_ladder())
    with pytest.raises(ValueError, match="sweeps"):
        cpl.run_coupled_screening(pair, sim.MoveKernel(), seed=3, sweeps=0)


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
    states, P = exact_occupancy_kernel(region, phase, kernel)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P >= 0)
    # stationarity of the closed-form law under the kernel (detailed balance)
    weights = sim.poisson_window_weights(region, phase)
    pi = np.array([weights[st] for st in states])
    assert np.max(np.abs(pi @ P - pi)) < 1e-12
