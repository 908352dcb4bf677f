import math

import numpy as np
import pytest

from pottsgas import fixtures as fx
from pottsgas import screening as scr
from pottsgas import simulate as sim


def verify_region():
    # cube side 4 cells, audit ball = one cell: the age-chain geometry is the
    # pigeonhole-safe one
    return sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0, n_plus=5)


def verify_phase():
    # integer per-cell reference counts make exact-agreement fixtures possible
    return sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, beta=1.0, zeta=0.6, t=0.0)


def make_ladder():
    return scr.LadderSpec(zeta=0.6, d=2, c_star=2.0)


def identical_pair(seed=0):
    return fx.make_identical_pair(verify_region(), verify_phase(), seed, ladder=make_ladder())


def test_ladder_levels_and_bins():
    lad = scr.LadderSpec(zeta=0.5, d=2, c_star=2.0)
    assert lad.m_bar == 6
    assert lad.c_acc == 4.0
    z = lad.levels
    assert z[0] == 0.5
    assert np.allclose(z, 0.5 * 4.0 ** (-np.arange(7.0)))
    # the worked case: b just above zeta_3 falls in [zeta_3, zeta_2) -> 2
    assert lad.bin_deviation(z[3] * 1.0001) == 2
    assert lad.bin_deviation(z[2]) == 0  # at or above the coarsest rung
    assert lad.bin_deviation(z[6] * 0.5) == lad.m_bar  # below the bottom rung
    assert lad.bin_deviation(z[5] * 1.0001) == 4
    strict = scr.LadderSpec(zeta=0.5, d=2, strict=True)
    assert strict.ball_fraction == 1e-10


def test_polymer_validation():
    with pytest.raises(ValueError):
        scr.Polymer(support=frozenset())
    with pytest.raises(ValueError):
        scr.Polymer(support=frozenset({(0, 0), (3, 3)}))  # disconnected
    p1 = scr.Polymer(support=frozenset({(0, 0), (0, 1)}))
    p2 = scr.Polymer(support=frozenset({(1, 2)}))  # touches p1 diagonally
    with pytest.raises(ValueError):
        scr.PolymerSet([p1, p2])
    far = scr.Polymer(support=frozenset({(4, 4)}))
    ps = scr.PolymerSet([p1, far])
    assert ps.cubes() == {(0, 0), (0, 1), (4, 4)}
    with pytest.raises(ValueError):
        scr.PolymerSet([far], weights=[1.5], zeta=1.0, ell_minus=1.0)


def test_k_function_deep_interior():
    pair = identical_pair()
    part = scr.CubePartition(pair.region)
    # cells of the central cube are more than one ball radius from the
    # complement of the full region
    kv = scr.k_function(pair, part.lambda_cubes, (10, 10))
    assert kv == pair.ladder.m_bar + 1


def test_k_function_boundary_difference():
    pair = fx.make_mismatched_pair(verify_region(), verify_phase(), 3, ladder=make_ladder())
    part = scr.CubePartition(pair.region)
    # a cell at the box corner sees the differing collars
    kv = scr.k_function(pair, part.lambda_cubes, (0, 0))
    assert kv == 0


def test_k_function_equal_boundary_bins_deviation():
    pair = identical_pair()
    part = scr.CubePartition(pair.region)
    # cell at the edge: sees the collar, configs equal, deviation zero
    kv = scr.k_function(pair, part.lambda_cubes, (0, 0))
    assert kv == pair.ladder.m_bar  # capped at the bottom rung


def test_theta_event_cases():
    pair = identical_pair()
    assert scr.theta_event(pair, (5, 5), 0)  # index 0 is the whole space
    assert scr.theta_event(pair, (5, 5), pair.ladder.m_bar + 1)  # equal + exact counts
    # perturb one chain's cell content: equality fails for positive index
    pair.sys1._insert(np.array([5.2, 5.7]), 0, frozen=False)
    assert not scr.theta_event(pair, (5, 5), 3)
    assert scr.theta_event(pair, (5, 5), 0)


def test_theta_event_threshold_edge():
    # equal cells whose deviation sits between two rungs pass below and fail
    # above: ladder 4.8 * 4^-n has rungs 4.8, 1.2, 0.3, ... and the crafted
    # deviation is exactly 1.0
    ladder = scr.LadderSpec(zeta=4.8, d=2, c_star=2.0)
    pair = fx.make_identical_pair(verify_region(), verify_phase(), 0, ladder=ladder)
    cell = (7, 7)
    extra = np.array([7.3, 7.6])
    pair.sys1._insert(extra.copy(), 0, frozen=False)
    pair.sys2._insert(extra.copy(), 0, frozen=False)
    assert ladder.levels[1] >= 1.0 > ladder.levels[2]
    assert scr.theta_event(pair, cell, 2)  # threshold is rung 1 = 1.2
    assert not scr.theta_event(pair, cell, 3)  # threshold is rung 2 = 0.3


def test_k_function_inner_ball_variant():
    # wider cubes so the two ball radii (2 and 0.8 cells) straddle the
    # distance-1 corner: the outer ball reaches the differing collar with
    # positive area, the inner one stays inside the region
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=8.0, n_plus=2)
    pair = fx.make_mismatched_pair(region, verify_phase(), 21,
                                   ladder=scr.LadderSpec(zeta=0.6, d=2, c_star=2.0))
    part = scr.CubePartition(region)
    assert scr.k_function(pair, part.lambda_cubes, (0, 0), inner_ball=True) == 0
    outer = scr.k_function(pair, part.lambda_cubes, (1, 1))
    inner = scr.k_function(pair, part.lambda_cubes, (1, 1), inner_ball=True)
    assert outer == 0
    assert inner == pair.ladder.m_bar + 1


def test_identical_pair_stops_good_with_audit():
    pair = identical_pair()
    part = scr.run_screening(pair)
    assert part.stopped
    assert part.lambda_cubes  # nonempty stopped region
    shell = part.outer_shell(part.lambda_cubes)
    assert all(part.status[c] == "good" for c in shell)
    report = scr.verify_stopping(pair, part, seed=5)
    assert report["ok"], report["failures"]
    assert report["shell_ok"] is True


def test_far_polymer_confines_bad_cubes():
    pair = identical_pair(seed=2)
    fx.inject_polymer(pair, [(4, 4)])
    part = scr.run_screening(pair)
    assert part.stopped and part.lambda_cubes
    bad = [c for c, st in part.status.items() if st == "bad" and c in part.interior]
    # bad interior cubes only in the polymer's neighborhood
    for c in bad:
        assert max(abs(c[0] - 4), abs(c[1] - 4)) <= 1
    report = scr.verify_stopping(pair, part, seed=6)
    assert report["ok"], report["failures"]
    # the polymer stays away from the final region
    assert (4, 4) not in part.lambda_cubes


def test_replay_measurability_under_perturbation():
    pair = identical_pair(seed=4)
    part = scr.run_screening(pair)
    report = scr.verify_stopping(pair, part, n_replays=5, seed=11)
    assert report["replay_ok"]


def test_verify_stopping_leaves_the_pair_untouched():
    pair = identical_pair(seed=4)
    fx.inject_polymer(pair, [(0, 4)])
    part = scr.run_screening(pair)

    def state(system):
        return (system.pos.copy(), system.spin.copy(), system.alive.copy(),
                system.counts.copy(), list(system.mobile_ids), system.energy)

    before = [state(pair.sys1), state(pair.sys2)]
    clones = []

    def perturb(clone, lambda_cubes, rng):
        clones.append(clone)
        scr._default_perturbation(clone, lambda_cubes, rng)

    report = scr.verify_stopping(pair, part, perturb=perturb, n_replays=3, seed=2)
    assert report["replay_ok"]
    for old, system in zip(before, (pair.sys1, pair.sys2)):
        new = state(system)
        for a, b in zip(old[:4], new[:4]):
            assert np.array_equal(a, b)
        assert old[4:] == new[4:]
    assert len(clones) == 3
    for clone in clones:
        assert clone.sys1.region is clone.sys2.region
        for mine, theirs in ((clone.sys1, pair.sys1), (clone.sys2, pair.sys2)):
            for name in ("pos", "spin", "alive", "frozen", "counts"):
                assert not np.shares_memory(getattr(mine, name), getattr(theirs, name))


@pytest.mark.parametrize("geometry", ["criterion10", "criterion11"])
def test_range_collar_cells_match_brute_force(geometry):
    if geometry == "criterion10":
        region = verify_region()
    else:
        region = sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0,
                               n_plus=5)
    cpc = scr._cells_per_cube(region)
    rng_len = 1.0 / region.gamma
    n = region.cells_per_axis
    margin = int(math.ceil(rng_len / region.ell_minus)) + 2
    every = list(np.ndindex(n + 2 * margin, n + 2 * margin))
    cubes = list(np.ndindex(region.n_plus, region.n_plus))
    rng = np.random.default_rng(1)
    saw_frozen = False
    for _ in range(12):
        pick = rng.choice(len(cubes), int(rng.integers(1, len(cubes) + 1)), replace=False)
        lam = {cubes[k] for k in pick}
        expected = []
        for raw in every:
            cell = tuple(int(c) - margin for c in raw)
            if scr._cube_of_cell(cell, cpc) in lam:
                continue
            lo = scr._cell_corner(cell, region.ell_minus)
            if scr._boxes_gap(lo, lo + region.ell_minus, lam, region.ell_plus) <= rng_len:
                expected.append(cell)
        got = scr._range_collar_cells(region, lam)
        assert got == sorted(expected)
        saw_frozen |= any(not all(0 <= c < n for c in cell) for cell in got)
    assert saw_frozen
    assert scr._range_collar_cells(region, set()) == []


def test_screening_determinism():
    hists = []
    for _ in range(2):
        pair = identical_pair(seed=9)
        part = scr.run_screening(pair)
        hists.append([(h["selected"], tuple(h["sigma"]), tuple(sorted(h["statuses"].items())))
                      for h in part.history])
    assert hists[0] == hists[1]


def test_every_screening_set_touches_a_bad_cube():
    pair = fx.make_mismatched_pair(verify_region(), verify_phase(), 8, ladder=make_ladder())
    part = scr.run_screening(pair)
    # reconstruct the status map as of each step
    status = {c: "bad" for c in part.collar}
    for h in part.history:
        sel = h["selected"]
        assert status.get(sel) == "bad"  # selection is always a bad cube
        # the screening set hugs the selected (bad) cube
        for q in h["sigma"]:
            assert max(abs(q[0] - sel[0]), abs(q[1] - sel[1])) <= 1
        status.update(h["statuses"])


def test_k_locality_outside_ball():
    # content beyond the audit ball leaves the index unchanged
    pair = fx.make_mismatched_pair(verify_region(), verify_phase(), 12, ladder=make_ladder())
    part = scr.CubePartition(pair.region)
    cell = (0, 0)
    base = scr.k_function(pair, part.lambda_cubes, cell)
    # both chains gain one far-away boundary particle (outside the ball of
    # radius 1 around the cell corner)
    far_pos = np.array([10.0, -1.5])
    pair.sys1._insert(far_pos, 0, frozen=True)
    pair.sys2._insert(far_pos + 0.1, 1, frozen=True)
    assert scr.k_function(pair, part.lambda_cubes, cell) == base


def test_m_function_bound_on_good_cubes():
    pair = identical_pair(seed=14)
    part = scr.run_screening(pair)
    M = scr.m_function(part, pair)
    m_bar = pair.ladder.m_bar
    for h in part.history:
        for q in h["sigma"]:
            if h["statuses"][q] != "good":
                continue
            for cell in scr._cube_cells(q, 4):
                v = M[cell]
                assert math.isinf(v) or v < m_bar - 2


def test_stopped_sequence_raises_on_extra_step():
    pair = identical_pair(seed=15)
    part = scr.run_screening(pair)
    with pytest.raises(RuntimeError):
        part.select_next(set())


def test_peierls_chain_check():
    g1 = scr.Polymer(support=frozenset({(0, 0)}))
    g2 = scr.Polymer(support=frozenset({(3, 3), (3, 4)}))
    g3 = scr.Polymer(support=frozenset({(0, 4)}))
    fam = scr.PolymerSet([g1, g2, g3])
    # empty family passes vacuously
    assert scr.peierls_chain_check(scr.PolymerSet([]), [])
    # single polymer at maximal weight: ratio w/(1+w) <= w
    cap = scr.PolymerSet.bound(g1, 1.0, 1.0, 1.0, 2)
    assert scr.peierls_chain_check(scr.PolymerSet([g1]), [cap])
    # random admissible weights over all subsets
    rng = np.random.default_rng(0)
    for _ in range(5):
        ws = [rng.uniform(0, scr.PolymerSet.bound(g, 1.0, 1.0, 1.0, 2)) for g in fam.polymers]
        assert scr.peierls_chain_check(fam, ws)
    with pytest.raises(ValueError):
        scr.peierls_chain_check(fam, [2.0, 0.0, 0.0])


def test_history_csv(tmp_path):
    pair = identical_pair(seed=16)
    part = scr.run_screening(pair)
    p = tmp_path / "history.csv"
    scr.history_to_csv(part, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "step,selected,sigma_cube,status"
    assert len(lines) == 1 + sum(len(h["sigma"]) for h in part.history)
