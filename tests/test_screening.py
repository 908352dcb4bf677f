import copy
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import meanfield as mf
from pottsgas import screening as scr
from pottsgas import simulate as sim


def verify_region():
    # cube side 4 cells, audit ball = one cell: the age-chain geometry is the
    # pigeonhole-safe one
    return sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0, n_plus=5)


def geometry_region(geometry):
    if geometry == "criterion10":
        return verify_region()
    return sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0, n_plus=5)


def verify_phase():
    # integer per-cell reference counts make exact-agreement fixtures possible
    return sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, beta=1.0, zeta=0.6, t=0.0)


def make_ladder():
    return scr.LadderSpec(zeta=0.6, d=2, c_star=2.0)


def _cube_of_cell(cell, cpc):
    return tuple(c // cpc for c in cell)


def _cell_corner(cell, ell):
    return np.asarray(cell, dtype=float) * ell


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


def test_ladder_levels_follow_their_fields():
    lad = scr.LadderSpec(zeta=0.5, d=2, c_star=2.0)
    assert lad.levels is lad.levels  # built once per field values
    with pytest.raises(ValueError):
        lad.levels[0] = 1.0
    lad.zeta = 0.8
    assert np.array_equal(lad.levels, 0.8 * 4.0 ** (-np.arange(7.0)))
    assert lad.bin_deviation(0.8 * 4.0**-3) == 2  # [zeta_3, zeta_2)
    lad.c_star = 1.0
    assert np.array_equal(lad.levels, 0.8 * 2.0 ** (-np.arange(7.0)))
    lad.d = 3
    assert np.array_equal(lad.levels, 0.8 * 2.0 ** (-np.arange(11.0)))
    assert lad.bin_deviation(0.8 * 2.0**-10) == 9  # [zeta_10, zeta_9)
    assert lad.bin_deviation(0.8 * 2.0**-11) == 10 == lad.m_bar


def test_polymer_validation():
    with pytest.raises(ValueError):
        scr.Polymer(support=frozenset())
    with pytest.raises(ValueError):
        scr.Polymer(support=frozenset({(0, 0), (3, 3)}))  # disconnected
    scr.Polymer(support=frozenset({(0, 0), (1, 1), (2, 0)}))  # connected through corners
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
    pair.sys1.add_particles([[5.2, 5.7]], [0])
    assert not scr.theta_event(pair, (5, 5), 3)
    assert scr.theta_event(pair, (5, 5), 0)


def test_theta_event_threshold_edge():
    # equal cells whose deviation sits between two rungs pass below and fail
    # above: ladder 4.8 * 4^-n has rungs 4.8, 1.2, 0.3, ... and the crafted
    # deviation is exactly 1.0
    ladder = scr.LadderSpec(zeta=4.8, d=2, c_star=2.0)
    pair = fx.make_identical_pair(verify_region(), verify_phase(), 0, ladder=ladder)
    cell = (7, 7)
    pair.sys1.add_particles([[7.3, 7.6]], [0])
    pair.sys2.add_particles([[7.3, 7.6]], [0])
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


POLYMER_CORNERS = [(0, 0), (0, 4), (4, 0), (4, 4), (0, 2), (2, 0), (4, 2), (2, 4)]


def _content_by_cell(system):
    # (positions, spins) of every cell of the box and the collar, filing order
    w, n = system.w, system.n_int
    return {cell: system.cell_particles(cell)
            for cell in itertools.product(range(-w, n + w), repeat=system.region.d)}


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.one_of(st.none(), st.sampled_from(POLYMER_CORNERS)),
       st.booleans(), st.integers(0, 10_000))
@example(4, None, False, 11)
def test_replay_measurability_under_perturbation(seed, corner, into_first, verify_seed):
    pair = identical_pair(seed=seed)
    if corner is not None:
        fx.inject_polymer(pair, [corner], into_first=into_first)
    part = scr.run_screening(pair)
    report = scr.verify_stopping(pair, part, n_replays=5, seed=verify_seed)
    assert report["replay_ok"]
    # the perturbation touches the mobile content of the final region only
    region_cells = {c for cube in part.lambda_cubes
                    for c in scr._cube_cells(cube, scr._cells_per_cube(pair.region))}
    clone = copy.deepcopy(pair)
    scr._default_perturbation(clone, part.lambda_cubes, np.random.default_rng(verify_seed))
    for before, after in ((pair.sys1, clone.sys1), (pair.sys2, clone.sys2)):
        old, new = _content_by_cell(before), _content_by_cell(after)
        for cell in old:
            if cell not in region_cells:
                assert np.array_equal(old[cell][0], new[cell][0])
                assert np.array_equal(old[cell][1], new[cell][1])


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


def _boxes_gap(lo, hi, cubes, side):
    # distance from the box [lo, hi] to the union of coarse cubes, one cube
    # at a time
    best = math.inf
    for cube in cubes:
        clo = np.asarray(cube, dtype=float) * side
        chi = clo + side
        gap = np.maximum(np.maximum(clo - hi, lo - chi), 0.0)
        best = min(best, float(np.sqrt(np.sum(gap**2))))
    return best


@pytest.mark.parametrize("geometry", ["criterion10", "criterion11"])
def test_range_collar_cells_match_brute_force(geometry):
    region = geometry_region(geometry)
    cpc = scr._cells_per_cube(region)
    rng_len = 1.0 / region.gamma
    n, w = region.cells_per_axis, region.collar_cells
    # every cell that can hold a particle: the box and its frozen collar
    every = list(np.ndindex(n + 2 * w, n + 2 * w))
    cubes = list(np.ndindex(region.n_plus, region.n_plus))
    rng = np.random.default_rng(1)
    saw_frozen = False
    for _ in range(12):
        pick = rng.choice(len(cubes), int(rng.integers(1, len(cubes) + 1)), replace=False)
        lam = {cubes[k] for k in pick}
        expected = []
        for raw in every:
            cell = tuple(int(c) - w for c in raw)
            if _cube_of_cell(cell, cpc) in lam:
                continue
            lo = _cell_corner(cell, region.ell_minus)
            if _boxes_gap(lo, lo + region.ell_minus, lam, region.ell_plus) <= rng_len:
                expected.append(cell)
        got = scr._range_collar_cells(region, lam)
        assert got == sorted(expected)
        assert all(-w <= c < n + w for cell in got for c in cell)
        saw_frozen |= any(not all(0 <= c < n for c in cell) for cell in got)
    assert saw_frozen
    assert scr._range_collar_cells(region, set()) == []


@given(st.integers(1, 3).flatmap(
    lambda d: st.sets(st.tuples(*[st.integers(-2, 3)] * d), max_size=6)))
def test_touching_matches_the_pair_loop(cubes):
    expected = set()
    if cubes:
        d = len(next(iter(cubes)))
        expected = {c for c in itertools.product(range(-3, 5), repeat=d)
                    if any(max(abs(a - b) for a, b in zip(c, q)) <= 1 for q in cubes)}
    assert scr._touching(cubes) == expected


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
    pair.sys1.add_boundary([far_pos], [0])
    pair.sys2.add_boundary([far_pos + 0.1], [1])
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


# ---------------------------------------------------------------------------
# property tests against the per-offset loops, on both benchmark geometries


def _signature(system, cell, x=None, radius=None):
    pos, spin = system.cell_particles(cell)
    rows = []
    for p, s in zip(pos, spin):
        if x is not None and np.linalg.norm(p - x) > radius:
            continue
        rows.append(tuple(p) + (int(s),))
    return tuple(sorted(rows))


def _oracle_deviation(system, cell):
    _, spin = system.cell_particles(cell)
    counts = np.zeros(system.region.S, dtype=np.int64)
    for s in spin:
        counts[int(s)] += 1
    return float(np.max(np.abs(counts / system.region.cell_volume - system.phase.rho_ref)))


def k_oracle(pair, lambda_cubes, cell, inner_ball=False):
    region, ladder = pair.region, pair.ladder
    ell = region.ell_minus
    cpc = scr._cells_per_cube(region)
    frac = ladder.inner_ball_fraction if inner_ball else ladder.ball_fraction
    r = frac * region.ell_plus
    x = _cell_corner(cell, ell)
    reach = int(math.ceil(r / ell)) + 1
    near = []
    for off in itertools.product(range(-reach, reach + 1), repeat=region.d):
        c = tuple(cell[k] + off[k] for k in range(region.d))
        lo = _cell_corner(c, ell)
        gap = np.maximum(np.maximum(lo - x, x - (lo + ell)), 0.0)
        if float(np.sqrt(np.sum(gap**2))) > r or _cube_of_cell(c, cpc) in lambda_cubes:
            continue
        near.append(c)
    if not near:
        return ladder.m_bar + 1
    for c in near:
        if _signature(pair.sys1, c, x, r) != _signature(pair.sys2, c, x, r):
            return 0
    return bin_oracle(ladder, max(0.0, *(_oracle_deviation(pair.sys1, c) for c in near)))


def bin_oracle(ladder, b):
    # the rung loop: 0 at or above zeta_2, m_bar below the bottom rung, else
    # the first m with b in [zeta_{m+1}, zeta_m), m_bar if there is none
    z = ladder.levels
    if b >= z[2]:
        return 0
    if b < z[ladder.m_bar]:
        return ladder.m_bar
    for m in range(2, ladder.m_bar):
        if z[m + 1] <= b < z[m]:
            return m
    return ladder.m_bar


def theta_oracle(pair, cell, k_value):
    if k_value == 0:
        return True
    if _signature(pair.sys1, cell) != _signature(pair.sys2, cell):
        return False
    level = min(k_value - 1, pair.ladder.m_bar)
    return _oracle_deviation(pair.sys1, cell) <= pair.ladder.levels[level] + 1e-12


def m_oracle(partition, pair):
    region = pair.region
    cpc = scr._cells_per_cube(region)
    ell = region.ell_minus
    r = pair.ladder.ball_fraction * region.ell_plus
    M, age = {}, {}
    for c in partition.collar:
        age[c] = -1
        for cell in scr._cube_cells(c, cpc):
            M[cell] = math.inf
    for n, step in enumerate(partition.history):
        older = set(age)
        for q in step["sigma"]:
            for cell in scr._cube_cells(q, cpc):
                if step["statuses"][q] == "bad":
                    M[cell] = math.inf
                    continue
                x = _cell_corner(cell, ell)
                best = None
                reach = int(math.ceil(r / ell)) + 1
                for off in itertools.product(range(-reach, reach + 1), repeat=region.d):
                    y_cell = tuple(cell[k] + off[k] for k in range(region.d))
                    y = _cell_corner(y_cell, ell)
                    if float(np.linalg.norm(y - x)) > r + 1e-12:
                        continue
                    if _cube_of_cell(y_cell, cpc) not in older:
                        continue
                    val = M.get(y_cell, math.inf)
                    best = val if best is None else max(best, val)
                M[cell] = 0.0 if best is None else 1.0 + best
        for q in step["sigma"]:
            age[q] = n
    return M


@functools.lru_cache(maxsize=None)
def geometry_pair(geometry, seed, same_boundary, same_interior):
    # pairs are cached across examples, so the tests below never mutate one
    region = geometry_region(geometry)
    if geometry == "criterion10":
        phase, ladder = verify_phase(), make_ladder()
    else:
        sol4 = mf.rescale(mf.common_tangent(3), 4.0)
        phase = sim.PhaseTarget(rho_ref=sol4.minimizers[-1], lambda_beta=sol4.lambda_beta,
                                beta=4.0, zeta=2.0, t=0.03)
        ladder = scr.LadderSpec(zeta=2.0, d=2, c_star=0.65)
    pair = fx.make_pair(region, phase, (seed, seed if same_boundary else seed + 13),
                        (seed + 7, seed + 7 if same_interior else seed + 8), ladder=ladder)
    # the same extra particles in both chains spread the cell deviations
    # over the ladder rungs
    rng = np.random.default_rng(seed)
    for _ in range(region.cells_per_axis * 3):
        r = rng.random(region.d) * region.side
        s = int(rng.integers(region.S))
        pair.sys1.add_particles([r], [s])
        pair.sys2.add_particles([r], [s])
    return pair


@st.composite
def screening_case(draw):
    geometry = draw(st.sampled_from(["criterion10", "criterion11"]))
    pair = geometry_pair(geometry, draw(st.integers(0, 2)), draw(st.booleans()),
                         draw(st.booleans()))
    # a drawn ladder puts the cell deviations on every rung
    ladder = scr.LadderSpec(zeta=draw(st.floats(0.005, 5.0)), d=2,
                            c_star=draw(st.sampled_from([0.65, 2.0])))
    pair = dataclasses.replace(pair, ladder=ladder)
    region = pair.region
    cubes = sorted(np.ndindex(region.n_plus, region.n_plus))
    lam = set(draw(st.sets(st.sampled_from(cubes))))
    # cells of the box and of the frozen collar ring
    w, n = region.collar_cells, region.cells_per_axis
    cell = st.tuples(st.integers(-w, n + w - 1), st.integers(-w, n + w - 1))
    return pair, lam, draw(st.lists(cell, min_size=40, max_size=40))


PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(screening_case(), st.booleans())
def test_k_function_matches_the_offset_loop(case, inner_ball):
    pair, lam, cells = case
    for cell in cells:
        assert scr.k_function(pair, lam, cell, inner_ball) == k_oracle(pair, lam, cell, inner_ball)


@PROPERTY
@given(screening_case())
def test_theta_event_matches_the_offset_loop(case):
    pair, _, cells = case
    for cell in cells:
        for k_value in range(pair.ladder.m_bar + 2):
            assert scr.theta_event(pair, cell, k_value) == theta_oracle(pair, cell, k_value)


@st.composite
def batch_case(draw):
    geometry = draw(st.sampled_from(["criterion10", "criterion11"]))
    pair = geometry_pair(geometry, draw(st.integers(0, 2)), draw(st.booleans()),
                         draw(st.booleans()))
    region = pair.region
    # c_star <= 0.5 gives rungs that do not decrease; a power-of-two c_acc
    # puts a drawn deviation of the pair exactly on a drawn rung
    c_star = draw(st.sampled_from([0.25, 0.5, 0.65, 2.0]))
    if c_star != 0.65 and draw(st.booleans()):
        _, dev = pair.cell_table()
        b = draw(st.sampled_from(sorted(set(dev[dev > 0].tolist()))))
        zeta = b * (2.0 * c_star) ** draw(st.integers(0, 2**region.d + 2))
    else:
        zeta = draw(st.floats(0.005, 5.0))
    pair = dataclasses.replace(pair, ladder=scr.LadderSpec(zeta=zeta, d=2, c_star=c_star))
    cubes = sorted(np.ndindex(region.n_plus, region.n_plus))
    lam = draw(st.one_of(st.just(set()), st.just(set(cubes)), st.sets(st.sampled_from(cubes))))
    # one cube's cells (box or collar), or cells of the box, the collar and
    # beyond the extended grid
    w, n = region.collar_cells, region.cells_per_axis
    cpc = scr._cells_per_cube(region)
    if draw(st.booleans()):
        cube = draw(st.tuples(*[st.integers(-1, region.n_plus)] * 2))
        cells = list(itertools.product(*[range(c * cpc, (c + 1) * cpc) for c in cube]))
    else:
        cell = st.tuples(*[st.integers(-w - 3, n + w + 2)] * 2)
        cells = draw(st.lists(cell, min_size=1, max_size=30))
    return pair, lam, cells


@PROPERTY
@given(batch_case(), st.booleans(), st.data())
def test_batched_k_and_theta_match_the_per_cell_oracles(case, inner_ball, data):
    pair, lam, cells = case
    ladder = pair.ladder
    k = scr.k_values(pair, lam, cells, inner_ball)
    assert k.tolist() == [k_oracle(pair, lam, cell, inner_ball) for cell in cells]
    drawn = data.draw(st.lists(st.integers(0, ladder.m_bar + 1), min_size=len(cells),
                               max_size=len(cells)))
    for ks in (k, drawn):
        got = scr.theta_events(pair, cells, ks)
        assert got.tolist() == [theta_oracle(pair, c, int(v)) for c, v in zip(cells, ks)]
    # every deviation of the pair, and the rungs themselves
    _, dev = pair.cell_table()
    for b in (dev, ladder.levels):
        assert ladder.bin_deviations(b).tolist() == [bin_oracle(ladder, x) for x in b]


@settings(max_examples=6, deadline=None)
@given(screening_case())
def test_m_function_matches_the_offset_loop(case):
    pair = case[0]
    partition = scr.run_screening(pair)
    assert scr.m_function(partition, pair) == m_oracle(partition, pair)


@PROPERTY
@given(screening_case(), st.data())
def test_k_function_is_invariant_under_species_relabelling(case, data):
    pair, lam, cells = case
    perm = np.array(data.draw(st.permutations(range(pair.region.S))))
    # species s becomes perm[s] in both chains and in rho_ref
    relabelled = copy.deepcopy(pair)
    rho_ref = np.empty_like(pair.sys1.phase.rho_ref)
    rho_ref[perm] = pair.sys1.phase.rho_ref
    phase = dataclasses.replace(pair.sys1.phase, rho_ref=rho_ref)
    for system in (relabelled.sys1, relabelled.sys2):
        system.spin[:] = perm[system.spin]
        system.phase = phase
    for cell in cells:
        assert scr.k_function(relabelled, lam, cell) == scr.k_function(pair, lam, cell)


# ---------------------------------------------------------------------------
# the cube-lattice tables against the set-based geometry they replace: a
# fresh cube grid per call for the running region, flat cells per call, and
# the outer shell as a set difference of touching cubes


def set_in_cubes(cubes, cube_set):
    d = cubes.shape[-1]
    marked = np.array(list(cube_set), dtype=np.int64).reshape(-1, d)
    both = np.concatenate([cubes.reshape(-1, d), marked])
    lo = both.min(axis=0, initial=0)
    grid = np.zeros(both.max(axis=0, initial=0) - lo + 1, dtype=bool)
    grid[tuple((marked - lo).T)] = True
    return grid[tuple(np.moveaxis(cubes - lo, -1, 0))]


def set_k_values(pair, lambda_cubes, cells, inner_ball=False):
    region, ladder = pair.region, pair.ladder
    d, ell = region.d, region.ell_minus
    cpc = scr._cells_per_cube(region)
    frac = ladder.inner_ball_fraction if inner_ball else ladder.ball_fraction
    r = frac * region.ell_plus
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, d)
    balls = cells[:, None] + scr._ball_offsets(d, ell, r, ell)
    near = ~set_in_cubes(balls // cpc, lambda_cubes)
    same, dev = pair.cell_table()
    flat = pair.sys1.flat_cells(balls).reshape(near.shape)
    worst = np.where(near, dev[flat], -np.inf).max(axis=1)
    k = np.where(near.any(axis=1), ladder.bin_deviations(worst), ladder.m_bar + 1)
    differ = near & ~same[flat]
    for i in np.flatnonzero(differ.any(axis=1)):
        if not scr._agree(pair, map(tuple, balls[i, differ[i]].tolist()),
                          _cell_corner(cells[i], ell), r):
            k[i] = 0
    return k


def set_theta_events(pair, cells, k):
    k = np.asarray(k, dtype=np.int64)
    same, dev = pair.cell_table()
    c = pair.sys1.flat_cells(cells)
    rung = pair.ladder.levels[np.minimum(k - 1, pair.ladder.m_bar)]
    return (k == 0) | (same[c] & (dev[c] <= rung + 1e-12))


def set_outer_shell(partition, cube_set):
    return sorted((scr._touching(cube_set) - cube_set) & (partition.interior | partition.collar))


def set_run_screening(pair):
    part = scr.CubePartition(pair.region)
    cpc = scr._cells_per_cube(pair.region)
    poly = pair.polymer_cubes()
    while True:
        bad = [c for c in set_outer_shell(part, part.lambda_cubes) if part.status.get(c) == "bad"]
        if not part.lambda_cubes or not bad:
            return part
        chosen = next((c for c in bad if c in poly), bad[0])
        sigma = sorted(scr._touching([chosen]) & part.lambda_cubes)
        statuses = {}
        for q in sigma:
            cells = list(scr._cube_cells(q, cpc))
            held = set_theta_events(pair, cells, set_k_values(pair, part.lambda_cubes, cells))
            statuses[q] = "good" if held.all() and chosen not in poly and q not in poly else "bad"
        part.peel(chosen, sigma, statuses)


@st.composite
def table_case(draw):
    geometry = draw(st.sampled_from(["criterion10", "criterion11"]))
    pair = geometry_pair(geometry, draw(st.integers(0, 2)), draw(st.booleans()),
                         draw(st.booleans()))
    pair = dataclasses.replace(pair, ladder=scr.LadderSpec(
        zeta=draw(st.floats(0.005, 5.0)), d=2, c_star=draw(st.sampled_from([0.65, 2.0]))))
    region = pair.region
    box = sorted(np.ndindex(region.n_plus, region.n_plus))
    grid = sorted(itertools.product(range(-1, region.n_plus + 1), repeat=2))
    lam = draw(st.one_of(st.just(set()), st.just(set(box)), st.sets(st.sampled_from(box))))
    # whole cubes of the box and its collar, and cells of the box, the
    # frozen collar and beyond the extended grid
    cubes = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))
    w, n = region.collar_cells, region.cells_per_axis
    cells = draw(st.lists(st.tuples(*[st.integers(-w - 3, n + w + 2)] * 2), min_size=1,
                          max_size=30))
    return pair, lam, cubes, cells


@PROPERTY
@given(table_case(), st.booleans())
def test_lattice_tables_match_the_set_based_geometry(case, inner_ball):
    pair, lam, cubes, cells = case
    cpc = scr._cells_per_cube(pair.region)
    cube_cells = [c for q in cubes for c in scr._cube_cells(q, cpc)]
    for batch in (cells, cube_cells):
        k = scr.k_values(pair, lam, batch, inner_ball)
        assert k.tolist() == set_k_values(pair, lam, batch, inner_ball).tolist()
        assert (scr.theta_events(pair, batch, k).tolist()
                == set_theta_events(pair, batch, k).tolist())
    # the table path the screening takes: whole cubes, the outer ball
    expected = set_theta_events(pair, cube_cells, set_k_values(pair, lam, cube_cells))
    assert scr._held(pair, lam, cubes).tolist() == expected.tolist()
    partition = scr.CubePartition(pair.region)
    assert partition.outer_shell(lam) == set_outer_shell(partition, lam)


@settings(max_examples=10, deadline=None)
@given(table_case(), st.data())
def test_screening_history_matches_the_set_based_run(case, data):
    pair = copy.deepcopy(case[0])
    if data.draw(st.booleans()):
        cube = data.draw(st.sampled_from(sorted(np.ndindex(pair.region.n_plus, pair.region.n_plus))))
        fx.inject_polymer(pair, [cube], into_first=data.draw(st.booleans()))
    assert scr.run_screening(pair).history == set_run_screening(pair).history


# ---------------------------------------------------------------------------
# the pair's cell table against the per-cell agreement and deviation, after
# every kind of edit


def _check_table(pair):
    # every cell of the extended grid plus one ring of cells off it
    same, dev = pair.cell_table()
    w, n = pair.sys1.w, pair.sys1.n_int
    for cell in itertools.product(range(-w - 1, n + w + 1), repeat=pair.region.d):
        c = pair.sys1.flat_cell(cell)
        assert same[c] == (_signature(pair.sys1, cell) == _signature(pair.sys2, cell)), cell
        assert dev[c] == _oracle_deviation(pair.sys1, cell), cell


@functools.lru_cache(maxsize=None)
def wide_phase(geometry):
    # a window no edit leaves, so every forced move is accepted
    if geometry == "criterion10":
        rho_ref = verify_phase().rho_ref
    else:
        rho_ref = mf.rescale(mf.common_tangent(3), 4.0).minimizers[-1]
    return sim.PhaseTarget(rho_ref=rho_ref, lambda_beta=0.5, beta=1.0, zeta=50.0, t=0.0)


MOVE_U = {"birth": 0.1, "death": 0.35, "displace_within": 0.6, "displace_across": 0.6,
          "flip": 0.9}


def _forced_move(system, kind, rng):
    # one apply_move of the given kind on a random site, accepted
    region = system.region
    d, ell = region.d, region.ell_minus
    kernel = sim.MoveKernel(p_birth=0.25, p_death=0.25, p_move=0.25, p_flip=0.25,
                            step=2.0 * region.side)
    active = sim._default_active(system)
    local = system.mobile_in(frozenset(active))
    row = rng.random(d + 4)
    row[0], row[-1] = MOVE_U[kind], 0.0
    i = local[int(row[1] * len(local))]
    if kind.startswith("displace"):
        here = np.floor(system.pos[i] / ell)
        there = here if kind == "displace_within" else \
            (here + rng.integers(1, system.n_int, d)) % system.n_int
        target = (there + 0.25 + 0.5 * rng.random(d)) * ell
        row[2:-2] = ((target - system.pos[i]) / kernel.step + 1.0) / 2.0
    volume = len(active) * region.cell_volume
    assert sim.apply_move(system, kernel, row, active, frozenset(active), local, volume)
    if kind.startswith("displace"):
        assert np.array_equal(np.floor(system.pos[i] / ell), there)


def _random_cells(pair, rng):
    n = pair.sys1.n_int
    lo = rng.integers(0, n - 3, pair.region.d)
    return [tuple(lo + off) for off in np.ndindex(3, 2)]


def _edit(pair, kind, rng):
    # one edit of the given kind, returning the pair to read next
    system = (pair.sys1, pair.sys2)[int(rng.integers(2))]
    region = pair.region
    if kind in MOVE_U:
        _forced_move(system, kind, rng)
    elif kind == "add_particles":
        r = rng.random((2, region.d)) * region.side
        s = rng.integers(0, region.S, 2)
        for chain in (pair.sys1, pair.sys2)[: int(rng.integers(1, 3))]:
            chain.add_particles(r, s)
    elif kind == "remove_particles":
        ids = system.mobile_ids
        system.remove_particles([ids[k] for k in rng.choice(len(ids), 3, replace=False)])
    elif kind == "copy_region":
        cpl.copy_region(pair.sys2, pair.sys1, _random_cells(pair, rng))
    elif kind == "reinit_identical":
        cpl.reinit_identical(pair, _random_cells(pair, rng), rng)
    else:  # deepcopy_perturbation: the clone inherits the original's table
        pair = copy.deepcopy(pair)
        cubes = sorted(np.ndindex(*(region.n_plus,) * region.d))
        lam = {cubes[k] for k in rng.choice(len(cubes), 4, replace=False)}
        scr._default_perturbation(pair, lam, rng)
    return pair


EDITS = [*MOVE_U, "add_particles", "remove_particles", "copy_region", "reinit_identical",
         "deepcopy_perturbation"]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["criterion10", "criterion11"]), st.integers(0, 10_000),
       st.booleans(), st.lists(st.sampled_from(EDITS), min_size=1, max_size=6))
@example("criterion10", 0, True, EDITS)
@example("criterion11", 1, True, EDITS)
@example("criterion10", 2, False, EDITS[::-1])
def test_cell_table_matches_the_cell_loop_after_every_edit(geometry, seed, identical, edits):
    region = geometry_region(geometry)
    boundary = (seed, seed if identical else seed + 13)
    pair = fx.make_pair(region, wide_phase(geometry), boundary, (seed + 7, seed + 7))
    rng = np.random.default_rng(seed)
    _check_table(pair)
    for kind in edits:
        stamps = (pair.sys1.stamp, pair.sys2.stamp)
        pair.cell_table()  # the next read must not return this one
        pair = _edit(pair, kind, rng)
        assert (pair.sys1.stamp, pair.sys2.stamp) != stamps, kind
        _check_table(pair)


def test_k_function_ignores_a_difference_outside_the_corner_ball():
    # the chains differ on a cell the ball around its corner meets, but only
    # beyond the ball: the whole cell disagrees, its part in the ball agrees
    pair = identical_pair(seed=3)
    cell, lam = (8, 8), set()
    ell = pair.region.ell_minus
    r = pair.ladder.ball_fraction * pair.region.ell_plus
    far = np.array([8.9, 8.8]) * ell
    assert np.linalg.norm(far - _cell_corner(cell, ell)) > r
    pair.sys2.add_particles([far], [0])
    same, _ = pair.cell_table()
    assert not same[pair.sys1.flat_cell(cell)]
    kv = scr.k_function(pair, lam, cell)
    assert kv != 0
    assert kv == k_oracle(pair, lam, cell)
    # the same difference inside the ball sets the index to 0
    pair.sys1.add_particles([[8.1 * ell, 8.2 * ell]], [1])
    assert scr.k_function(pair, lam, cell) == 0 == k_oracle(pair, lam, cell)
