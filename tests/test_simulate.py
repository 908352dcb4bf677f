import copy
import dataclasses
import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from pottsgas import fixtures as fx
from pottsgas import screening as scr
from pottsgas import simulate as sim
from pottsgas.kernels import PairPotential

# ---------------------------------------------------------------------------
# oracles: direct forms of the energies and densities that the sampler keeps
# incrementally or reads off its cell index


@functools.lru_cache(maxsize=None)
def _potential(gamma: float, d: int) -> PairPotential:
    return PairPotential(gamma, d)


def pair_potential(r, r_prime, gamma: float, d: int | None = None) -> float:
    """Finite-range repulsion V(r, r') between unlike species: the two-step
    self-convolution of the scaled base profile, zero beyond 1/gamma."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rp = np.atleast_1d(np.asarray(r_prime, dtype=float))
    if d is None:
        d = len(r)
    return float(_potential(gamma, d)(np.linalg.norm(rp - r)))


def config_energy(positions, spins, lam: float, gamma: float) -> float:
    """Energy of a finite configuration: half the sum of unlike-species pair
    potentials minus lam times the particle count.  Quadratic scan."""
    spins = np.asarray(spins, dtype=int)
    n = len(spins)
    if n == 0:
        return 0.0
    positions = np.asarray(positions, dtype=float).reshape(n, -1)
    pot = _potential(gamma, positions.shape[1])
    total = 0.0
    for i in range(n):
        diff = positions[i + 1 :] - positions[i]
        dist = np.sqrt((diff**2).sum(axis=1))
        mask = spins[i + 1 :] != spins[i]
        total += float(np.sum(pot(dist) * mask))
    return total - lam * n


def interpolated_energy(positions, spins, boundary_positions, boundary_spins,
                        phase: sim.PhaseTarget, gamma: float) -> float:
    """t * (pair energy of the configuration given the boundary) plus
    (1-t) * reference energy."""
    spins = np.asarray(spins, dtype=int)
    n = len(spins)
    if n == 0:
        return 0.0
    positions = np.asarray(positions, dtype=float).reshape(n, -1)
    nb = len(boundary_spins)
    if nb:
        bpos = np.asarray(boundary_positions, dtype=float).reshape(nb, -1)
        both_pos = np.concatenate([positions, bpos])
        both_spin = np.concatenate([spins, np.asarray(boundary_spins, dtype=int)])
        h_full = config_energy(both_pos, both_spin, phase.mu, gamma)
        h_bnd = config_energy(bpos, boundary_spins, phase.mu, gamma)
    else:
        h_full = config_energy(positions, spins, phase.mu, gamma)
        h_bnd = 0.0
    return phase.t * (h_full - h_bnd) + (1.0 - phase.t) * sim.reference_energy(spins, phase)


def audit_oracle(system) -> float:
    """interpolated_energy of the live configuration: the O(n^2) reference."""
    live = np.flatnonzero(system.alive[: system._n_used])
    mob, fro = live[~system.frozen[live]], live[system.frozen[live]]
    return interpolated_energy(system.pos[mob], system.spin[mob], system.pos[fro],
                               system.spin[fro], system.phase, system.region.gamma)


def kdtree_energy(system) -> float:
    """The energy audit by k-d tree pair search: every unlike-species pair
    within range that is not frozen-frozen, as ``cKDTree.query_pairs``
    lists them.  The squared distances are sorted before the square root
    and V, as the audit sorts them, so the two sums agree bit for bit."""
    from scipy.spatial import cKDTree

    phase = system.phase
    live = np.flatnonzero(system.alive[: system._n_used])
    pairs = cKDTree(system.pos[live]).query_pairs(system.potential.range, output_type="ndarray")
    i, j = live[pairs[:, 0]], live[pairs[:, 1]]
    keep = (system.spin[i] != system.spin[j]) & ~(system.frozen[i] & system.frozen[j])
    i, j = i[keep], j[keep]
    dist2 = ((system.pos[i] - system.pos[j]) ** 2).sum(axis=1)
    dist2.sort()
    dist = np.sqrt(dist2)
    mobile_spins = system.spin[live[~system.frozen[live]]]
    h_pair = float(np.sum(system.potential(dist))) - phase.mu * len(mobile_spins)
    h_ref = float(np.sum(phase.neighbor_sum[mobile_spins] - phase.lambda_beta))
    return phase.t * h_pair + (1.0 - phase.t) * h_ref


def empirical_density_at(system, ell: float, r, s: int) -> float:
    """Density of species s in the ell-cell containing the point r, for any
    mesh ell (finer or coarser than the storage cells), by counting the
    particles directly."""
    r = np.asarray(r, dtype=float)
    lo = np.floor(r / ell) * ell
    hi = lo + ell
    ids = np.where(system.alive[: system._n_used])[0]
    if len(ids) == 0:
        return 0.0
    pos = system.pos[ids]
    inside = np.all((pos >= lo) & (pos < hi), axis=1)
    count = int(np.sum((system.spin[ids] == s) & inside))
    return count / ell ** system.region.d


def cell_of(system, r) -> int:
    """Flat cell of the point r."""
    return int(sim._flat_cells(system.region, np.floor(np.asarray(r) / system.region.ell_minus))[0])


def small_region(**kw):
    base = dict(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)
    base.update(kw)
    return sim.SimRegion(**base)


def test_region_divisibility_enforced():
    with pytest.raises(ValueError):
        sim.SimRegion(d=2, S=2, gamma=0.3, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=1)
    r = small_region()
    assert r.side == 2.0
    assert r.cells_per_axis == 1
    assert r.collar_cells == 1


def test_move_kernel_validation():
    with pytest.raises(ValueError):
        sim.MoveKernel(p_birth=0.3, p_death=0.2, p_move=0.3, p_flip=0.2)
    with pytest.raises(ValueError):
        sim.MoveKernel(p_birth=0.3, p_death=0.3, p_move=0.3, p_flip=0.2)
    with pytest.raises(ValueError, match="nonnegative"):
        sim.MoveKernel(p_move=-0.1, p_flip=0.6)  # sums to 1


def test_pair_potential_support_and_symmetry():
    gamma = 0.5
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(0, 4, 2), rng.uniform(0, 4, 2)
        v1 = pair_potential(a, b, gamma)
        v2 = pair_potential(b, a, gamma)
        assert v1 == v2
        if np.linalg.norm(a - b) > 1 / gamma:
            assert v1 == 0.0
        else:
            assert v1 >= 0.0


@pytest.mark.parametrize("gamma", [0.5, 0.2, 0.05])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_potential_lies_between_zero_and_vmax(d, gamma):
    # the premise of the sampler's accept bound: V(0) is vmax, the largest
    # table value, which tail_max(0) reads; V vanishes from the range on,
    # and every value lies in [0, vmax], at random distances and at the
    # table's radii and their neighbouring floats
    pot = PairPotential(gamma, d)
    vmax = float(pot._vals.max())
    beyond = np.array([pot.range, np.nextafter(pot.range, np.inf), 1.5 * pot.range, 1e6])
    radii = pot._radii
    inside = np.concatenate([np.random.default_rng(d).uniform(0.0, pot.range, 100_000), radii,
                             np.nextafter(radii, 0.0), np.nextafter(radii, np.inf)])
    assert pot(0.0) == vmax == pot.tail_max(0.0) > 0.0
    assert np.all(pot(beyond) == 0.0)
    assert all(isinstance(pot(x), float) and pot(x) == pot(beyond)[k] for k, x in enumerate(beyond))
    v = pot(inside)
    assert v.min() >= 0.0 and v.max() <= vmax


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_potential_at_zero_scale_identity(d):
    # V(r, r) = gamma^d * integral of the unit-scale profile squared
    from scipy.integrate import quad
    from scipy.special import gamma as gamma_fn

    from pottsgas.kernels import normalized_bump

    gamma = 0.5
    prof = normalized_bump(d)
    area = 2.0 * np.pi ** (d / 2) / gamma_fn(d / 2)
    radial, _ = quad(lambda r: prof(r) ** 2 * r ** (d - 1), 0.0, 0.5, epsabs=0.0, epsrel=1e-13)
    direct = gamma**d * area * radial
    val = pair_potential(np.zeros(d), np.zeros(d), gamma)
    assert val == pytest.approx(direct, rel=1e-12)


def test_config_energy_examples():
    gamma = 0.5
    lam = 1.3
    # single particle: no pairs
    assert config_energy([[0.5, 0.5]], [0], lam, gamma) == pytest.approx(-lam)
    # two same-species particles: the pair term vanishes
    assert config_energy([[0.5, 0.5], [0.7, 0.5]], [1, 1], lam, gamma) == pytest.approx(-2 * lam)
    # two unlike particles at zero distance
    v0 = pair_potential(np.zeros(2), np.zeros(2), gamma)
    got = config_energy([[0.5, 0.5], [0.5, 0.5]], [0, 1], lam, gamma)
    assert got == pytest.approx(v0 - 2 * lam, rel=1e-12)


def test_interpolated_energy_limits():
    gamma = 0.5
    phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=1.0, t=1.0)
    pos = np.array([[0.3, 0.3], [0.9, 0.7]])
    spins = np.array([0, 1])
    bpos = np.array([[-0.4, 0.5]])
    bspins = np.array([1])
    full = config_energy(np.vstack([pos, bpos]), np.concatenate([spins, bspins]), phase.mu, gamma)
    bnd = config_energy(bpos, bspins, phase.mu, gamma)
    assert interpolated_energy(pos, spins, bpos, bspins, phase, gamma) == pytest.approx(full - bnd)

    phase0 = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=1.0, t=0.0)
    expect = sim.reference_energy(spins, phase0)
    assert interpolated_energy(pos, spins, bpos, bspins, phase0, gamma) == pytest.approx(expect)
    # empty configuration: both parts vanish
    assert interpolated_energy(np.zeros((0, 2)), [], bpos, bspins, phase, gamma) == 0.0


def make_system(seed=0, t=0.0, zeta=0.626, rho=1.5, region=None, lam_beta=0.7):
    region = region or small_region()
    phase = sim.PhaseTarget(
        rho_ref=np.full(region.S, rho), lambda_beta=lam_beta, beta=1.0, zeta=zeta, t=t
    )
    return sim.ParticleSystem(region, phase, seed=seed)


def test_empirical_density_and_window():
    sys = make_system()
    sys.add_particles([[0.5, 0.5], [1.5, 1.5], [0.2, 1.7]], [0, 0, 1])
    dens = sim.empirical_density(sys)
    assert dens.shape == (1, 1, 2)
    assert dens[0, 0, 0] == pytest.approx(2 / 4)
    assert dens[0, 0, 1] == pytest.approx(1 / 4)
    # window bounds: rho 1.5 +- 0.626 on volume 4 -> counts in [4, 8]
    assert sys.n_lo.tolist() == [4, 4]
    assert sys.n_hi.tolist() == [8, 8]
    assert not sys.in_ensemble()  # counts 2 and 1 are below the window


def test_phase_indicator_cases():
    refs = [np.array([1.0, 0.2]), np.array([0.2, 1.0]), np.array([0.6, 0.6])]
    assert sim.phase_indicator(np.array([1.02, 0.21]), refs, zeta=0.05) == 1
    assert sim.phase_indicator(np.array([0.2, 1.04]), refs, zeta=0.05) == 2
    assert sim.phase_indicator(np.array([0.0, 0.0]), refs, zeta=0.05) == 0
    assert sim.phase_indicator(refs[2], refs, zeta=0.05) == 3


def test_seed_phase_configuration_in_window():
    sys = make_system()
    sys.seed_phase_configuration()
    assert sys.in_ensemble()
    dens = sim.empirical_density(sys)
    assert np.all(np.abs(dens - 1.5) <= 0.626)


def test_boundary_validation():
    sys = make_system()
    with pytest.raises(ValueError):
        sys.add_boundary([[0.5, 0.5]], [0])  # inside the box
    with pytest.raises(ValueError):
        sys.add_boundary([[-5.0, 0.5]], [0])  # beyond the collar
    with pytest.raises(ValueError, match="beyond the collar"):
        sys.add_boundary([[np.nan, 0.5]], [0])  # no cell at all
    sys.add_boundary([[-0.5, 0.5]], [0])
    assert sys.frozen[: sys._n_used].sum() == 1
    # one mobile particle on the far face (x = L) rejects the whole batch
    with pytest.raises(ValueError):
        sys.add_particles([[0.5, 0.5], [2.0, 0.5]], [0, 1])
    assert sys.mobile_ids == [] and sys.counts.sum() == 0


def test_sweep_keeps_ensemble_and_audits():
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)
    sys = make_system(region=region, t=1.0, seed=3)
    sys.audit_every = 200
    sys.seed_phase_configuration()
    # frozen ring of boundary particles
    rng = np.random.default_rng(5)
    wlen = sys.w * region.ell_minus
    L = region.side
    n_b = 40
    bpos = []
    while len(bpos) < n_b:
        r = rng.uniform(-wlen, L + wlen, size=2)
        if not all(0.0 <= x < L for x in r):
            bpos.append(r)
    sys.add_boundary(bpos, rng.integers(0, 2, size=n_b))
    fresh = sys.total_energy()
    assert abs(sys.energy - fresh) <= 1e-9 * max(abs(fresh), 1.0)
    # take five particles out and put them back: exact after each edit
    ids = sys.mobile_ids[:5]
    pos, spin = sys.pos[ids].copy(), sys.spin[ids].copy()
    sys.remove_particles(ids)
    fresh = sys.total_energy()
    assert abs(sys.energy - fresh) <= 1e-9 * max(abs(fresh), 1.0)
    sys.add_particles(pos, spin)
    kernel = sim.MoveKernel()
    for _ in range(30):
        sim.metropolis_sweep(sys, kernel, n_moves=200)
        assert sys.in_ensemble()
    assert len(sys.audit_log) >= 3
    assert max(sys.audit_log) < 1e-7 * max(abs(sys.energy), 1.0)


def test_energy_delta_audit_against_recompute():
    # accepted-move deltas accumulate to the recomputed energy exactly
    region = sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.full(3, 1.0), lambda_beta=0.5, t=0.7, zeta=0.8)
    sys = sim.ParticleSystem(region, phase, seed=11)
    sys.seed_phase_configuration()
    kernel = sim.MoveKernel(step=1.0)
    # resolve the start value, so what is compared below is the deltas' sum
    assert sys.energy == sys.total_energy()
    sim.metropolis_sweep(sys, kernel, n_moves=3000, audit=False)
    fresh = sys.total_energy()
    assert abs(sys.energy - fresh) < 1e-9 * max(1.0, abs(fresh))


@pytest.mark.parametrize("nan_at", ["fresh", "running"])
def test_audit_raises_on_a_nan_energy(nan_at):
    # a NaN drift is no smaller than the tolerance: the audit must raise
    region = sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.full(3, 1.0), lambda_beta=0.5, t=0.7, zeta=0.8)
    sys = sim.ParticleSystem(region, phase, seed=11)
    sys.seed_phase_configuration()
    sys.audit_every = 1
    exact = sys.total_energy
    calls = []

    def total_energy():
        # "fresh": every recomputation is NaN; "running": only the one that
        # resolves the unknown start value before the sweep
        calls.append(None)
        return math.nan if nan_at == "fresh" or len(calls) == 1 else exact()

    if nan_at == "fresh":
        assert sys.energy == exact()
    else:
        sys.energy = math.nan  # unknown: the sweep resolves it first
    sys.total_energy = total_energy
    with pytest.raises(RuntimeError, match="energy drift"):
        sim.metropolis_sweep(sys, sim.MoveKernel(step=1.0), n_moves=200)
    assert math.isnan(sys.audit_log[-1])


def test_zero_temperature_reference_decreases():
    # at t = 0 with a cold temperature the sweep drives the linear reference
    # energy down (fixed seed)
    region = small_region(S=2)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=0.2, beta=8.0, zeta=0.626, t=0.0)
    sys = sim.ParticleSystem(region, phase, seed=7)
    # start at the top of the window: 8 particles of each species
    rng = np.random.default_rng(8)
    pos = rng.uniform(0, 2, size=(16, 2))
    spins = np.array([0] * 8 + [1] * 8)
    sys.add_particles(pos, spins)
    h0 = sim.reference_energy(sys.spin[np.asarray(sys.mobile_ids)], phase)
    kernel = sim.MoveKernel()
    for _ in range(1000):
        sim.metropolis_sweep(sys, kernel, n_moves=8)
    h1 = sim.reference_energy(sys.spin[np.asarray(sys.mobile_ids)], phase)
    assert h1 < h0


# Each move kind with its target count at the edge of the window [4, 8]:
# (n_plus, species-0/species-1 counts per cell, draws row, accepted).  The
# row's kind uniform picks birth < 0.25 <= death < 0.5 <= move < 0.8 <= flip;
# index 0 picks the first particle filed, and the accept uniform is 0, so at
# t = 0 only the window (or the box) can reject.
WINDOW_EDGE = {
    "birth_at_n_hi": (1, {(0, 0): (8, 6)}, [0.0, 0.0, 0.5, 0.5, 0.0, 0.0], False),
    "death_at_n_lo": (1, {(0, 0): (4, 6)}, [0.3, 0.0, 0.5, 0.5, 0.0, 0.0], False),
    "flip_into_n_hi": (1, {(0, 0): (6, 8)}, [0.9, 0.0, 0.5, 0.5, 0.0, 0.0], False),
    # +0.49 in x carries the first particle into the full cell (1, 0)
    "displace_into_full_cell": (2, {(0, 0): (6, 6), (1, 0): (8, 6)},
                                [0.6, 0.0, 0.99, 0.5, 0.0, 0.0], False),
    # -0.05 in y keeps it in its own full cell: no count changes
    "displace_within_full_cell": (1, {(0, 0): (8, 6)}, [0.6, 0.0, 0.5, 0.4, 0.0, 0.0], True),
}


@pytest.mark.parametrize("case", sorted(WINDOW_EDGE))
def test_rejected_when_leaving_window(case):
    n_plus, fill, row, accepted = WINDOW_EDGE[case]
    sys = make_system(t=0.0, region=small_region(n_plus=n_plus))
    for cell, (n0, n1) in fill.items():
        k = np.arange(n0 + n1)[:, None]
        sys.add_particles(np.asarray(cell) * 2.0 + 1.9 - 1.8 * (k + 0.5) / (n0 + n1),
                          [0] * n0 + [1] * n1)
    assert sys.n_lo.tolist() == [4, 4] and sys.n_hi.tolist() == [8, 8]
    active = [tuple(c) for c in np.ndindex(n_plus, n_plus)]
    counts0, pos0, spin0 = sys.counts.copy(), sys.pos.copy(), sys.spin.copy()
    ok = sim.apply_move(sys, sim.MoveKernel(), np.array(row), sim.RowContext(sys, active),
                        list(sys.mobile_ids))
    assert ok == accepted
    assert np.array_equal(sys.counts, counts0)
    if not accepted:
        assert np.array_equal(sys.pos, pos0) and np.array_equal(sys.spin, spin0)


def test_birth_at_the_far_face_lies_in_its_cell():
    # f = 1 - 2**-53, the largest uniform, makes 1 + f round up to 2: a
    # birth in cell (1, 1) of the 2x2 box of side 4 would land on (4, 4)
    sys = make_system(t=0.0, region=small_region(n_plus=2))
    k = np.arange(12)[:, None]
    sys.add_particles(2.0 + 1.9 - 1.8 * (k + 0.5) / 12 + np.zeros(2), [0] * 6 + [1] * 6)
    active = [tuple(c) for c in np.ndindex(2, 2)]
    f = 1.0 - 2.0**-53
    row = np.array([0.0, 0.99, f, f, 0.0, 0.0])  # birth of species 0 in cell (1, 1)
    assert sim.apply_move(sys, sim.MoveKernel(), row, sim.RowContext(sys, active),
                          list(sys.mobile_ids))
    born = sys.mobile_ids[-1]
    assert sys.pos[born].tolist() == [math.nextafter(4.0, 0.0)] * 2
    assert all(0.0 <= x < sys.region.side for x in sys.pos[born])
    assert sys.cell[born] == sys.flat_cell((1, 1))
    assert np.floor(sys.pos[born] / sys.region.ell_minus).tolist() == [1.0, 1.0]


def test_displacement_keeps_the_position_it_left():
    # a proposal copies the position it reads: after a displacement commits,
    # its -1 change still holds the old position, as a second chain that
    # commits the same proposal must see it
    sys = make_system(t=0.0, region=small_region(n_plus=2))
    sys.add_particles([[1.0, 1.0], [3.0, 3.0]], [0, 1])
    active = [tuple(c) for c in np.ndindex(2, 2)]
    local_ids = list(sys.mobile_ids)
    row = [0.6, 0.0, 0.75, 0.25, 0.0, 0.0]  # displaces local_ids[0] by (0.25, -0.25)
    move = sim._propose(sys, sim.MoveKernel(), row, sim.RowContext(sys, active), local_ids)
    i = local_ids[move.pick]
    move.commit(sys, local_ids, i)
    assert sys.pos[i].tolist() == move.changes[0][1].tolist() == [1.25, 0.75]
    assert move.changes[-1][1].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("ell, ell_plus, n_plus", [(2.0, 4.0, 1), (0.1, 0.2, 10), (0.7, 0.7, 6)])
def test_birth_at_any_far_face_lies_in_its_cell(ell, ell_plus, n_plus):
    # c + f is c + 1 for c >= 1 and f = 1 - 2**-53; where ell is not a power
    # of 2, even the float below (c + 1) * ell can bin into cell c + 1 (cell
    # 16 at ell 0.1, cell 4 at ell 0.7)
    region = sim.SimRegion(d=1, S=2, gamma=1.0 / ell, ell0=ell, ell_minus=ell,
                           ell_plus=ell_plus, n_plus=n_plus)
    # zeta = rho puts count 0 in the window: at the default zeta a cell of
    # length 0.1 has an empty accuracy window, which ParticleSystem rejects
    sys = make_system(region=region, zeta=1.5)
    row = np.array([0.0, 0.0, 1.0 - 2.0**-53, 0.0, 0.0])
    for cell in range(region.cells_per_axis):
        active = [(cell,)]
        (_, r, _, c), = sim._propose(sys, sim.MoveKernel(), row, sim.RowContext(sys, active),
                                     []).changes
        assert all(0.0 <= x < region.side for x in r) and math.floor(r[0] / ell) == cell
        assert c == sys.flat_cell((cell,))


def test_stationary_law_matches_enumeration(enumeration_chain):
    # single-cell two-species system at t=0: the occupancy law is a product
    # of window-truncated Poisson weights; the tangent value is chosen so the
    # Poisson rate (= 6) sits mid-window and every state has expected
    # frequency well above the chi-square validity floor.  The chain is
    # shared with criterion 9 (tests/conftest.py)
    exact, counts = enumeration_chain
    states = sorted(exact)
    n_samples = sum(counts.values())
    observed = np.array([counts[st] for st in states], dtype=float)
    expected = np.array([exact[st] * n_samples for st in states])
    assert expected.min() > 5
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    pval = 1.0 - stats.chi2.cdf(chi2, df=len(states) - 1)
    assert pval > 0.01, (chi2, pval)


def test_t0_intercell_occupation_decorrelated():
    # at t=0 the law factorizes over cells: empirical covariance of the
    # occupation numbers of two cells is zero within 3 sigma
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=1)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=0.7, beta=1.0, zeta=0.626, t=0.0)
    sys = sim.ParticleSystem(region, phase, seed=5)
    sys.seed_phase_configuration()
    kernel = sim.MoveKernel()
    xs, ys = [], []
    for _ in range(4000):
        sim.metropolis_sweep(sys, kernel, n_moves=30, audit=False)
        xs.append(int(sys.counts[0, 0, 0]))
        ys.append(int(sys.counts[1, 1, 0]))
    xs, ys = np.array(xs, float), np.array(ys, float)
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(len(xs))


def test_species_relabel_symmetry():
    # relabeling the two species (reference vector swapped) must give the
    # enhanced-species occupancy the same law; independent seeded runs are
    # compared with a two-sample KS test
    region = small_region(S=2)
    phase_a = sim.PhaseTarget(rho_ref=np.array([1.8, 1.2]), lambda_beta=0.7, beta=1.0, zeta=0.9, t=0.0)
    phase_b = sim.PhaseTarget(rho_ref=np.array([1.2, 1.8]), lambda_beta=0.7, beta=1.0, zeta=0.9, t=0.0)

    def run(phase, seed, species):
        sys = sim.ParticleSystem(region, phase, seed=seed)
        sys.seed_phase_configuration()
        kernel = sim.MoveKernel()
        out = []
        for _ in range(2500):
            sim.metropolis_sweep(sys, kernel, n_moves=30, audit=False)
            out.append(int(sys.counts[0, 0, species]))
        return np.array(out)

    enhanced_a = run(phase_a, 1, species=0)
    enhanced_b = run(phase_b, 2, species=1)
    ks = stats.ks_2samp(enhanced_a, enhanced_b)
    assert ks.pvalue > 0.01, ks


def test_measure_observables_snapshot():
    sys = make_system()
    sys.add_particles([[0.5, 0.5], [1.2, 0.3], [1.5, 1.5]], [0, 0, 1])
    sys.add_boundary([[-0.5, 0.5], [2.5, 1.0]], [0, 1])
    refs = [np.array([0.5, 0.25])]
    out = sim.measure_observables(sys, references=refs,
                                  balls=[((0.0, 0.5), 0.7), ((1.0, 1.0), 0.5)])
    assert np.allclose(out["density"][0, 0], [0.5, 0.25])
    assert out["eta"][0, 0] == 1
    pos0, spin0 = out["balls"][0]
    assert len(spin0) == 1 and spin0[0] == 0  # only the left boundary particle
    pos1, spin1 = out["balls"][1]
    assert len(spin1) == 0  # interior ball misses the complement
    # determinism: identical snapshot on a fresh identical system
    sys2 = make_system()
    sys2.add_particles([[0.5, 0.5], [1.2, 0.3], [1.5, 1.5]], [0, 0, 1])
    sys2.add_boundary([[-0.5, 0.5], [2.5, 1.0]], [0, 1])
    out2 = sim.measure_observables(sys2, references=refs, balls=[((0.0, 0.5), 0.7)])
    assert np.array_equal(out["density"], out2["density"])


def test_empirical_density_at_arbitrary_mesh():
    sys = make_system()
    sys.add_particles([[0.2, 0.2], [0.8, 0.9], [1.7, 1.8]], [0, 1, 0])
    # fine sub-cell mesh: the spin-0 particle sits in the (0,0) half-cell,
    # the spin-1 particle in the (1,1) half-cell
    assert empirical_density_at(sys, 0.5, (0.1, 0.1), 0) == pytest.approx(1 / 0.25)
    assert empirical_density_at(sys, 0.5, (0.1, 0.1), 1) == 0.0
    assert empirical_density_at(sys, 0.5, (0.8, 0.9), 1) == pytest.approx(1 / 0.25)
    # the storage mesh agrees with the cached counts
    assert empirical_density_at(sys, 2.0, (0.5, 0.5), 0) == pytest.approx(
        sim.empirical_density(sys)[0, 0, 0]
    )
    # sub-cell densities aggregate to the cell count
    total = sum(
        empirical_density_at(sys, 1.0, (x + 0.5, y + 0.5), 0) * 1.0
        for x in range(2)
        for y in range(2)
    )
    assert total == pytest.approx(sys.counts[0, 0, 0])


def test_trajectory_binary_round_trip(tmp_path):
    snaps = [np.full((2, 2, 2), float(k)) for k in range(3)]
    p = tmp_path / "traj.npy"
    sim.save_trajectory(p, snaps)
    back = np.load(p)
    assert back.shape == (3, 2, 2, 2)
    assert np.array_equal(back[1], snaps[1])
    with open(tmp_path / "traj.csv", "w") as fh:
        sim.trajectory_to_csv(fh, snaps)
    lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_fixed_seed_reproducibility():
    def run():
        sys = make_system(seed=9, t=0.0)
        sys.seed_phase_configuration()
        kernel = sim.MoveKernel()
        sim.metropolis_sweep(sys, kernel, n_moves=2000, audit=False)
        ids = np.asarray(sorted(sys.mobile_ids))
        return sys.counts.copy(), sys.pos[ids].copy(), sys.spin[ids].copy()

    c1, p1, s1 = run()
    c2, p2, s2 = run()
    assert np.array_equal(c1, c2)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1, s2)


def oracle_region(d):
    if d == 1:
        return sim.SimRegion(d=1, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)
    if d == 2:
        return sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=1)
    return sim.SimRegion(d=3, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=1)


@pytest.mark.parametrize("t", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_total_energy_matches_pair_oracle(d, t):
    from pottsgas.fixtures import fill_boundary

    region = oracle_region(d)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=t)
    system = sim.ParticleSystem(region, phase, seed=d)
    fill_boundary(system, seed=10 + d)
    system.seed_phase_configuration()
    sim.metropolis_sweep(system, sim.MoveKernel(step=1.0), n_moves=400, audit=False)
    assert not system.alive[: system._n_used].all()  # deaths left free slots
    assert system.frozen[system.alive].any()
    want = audit_oracle(system)
    assert abs(system.total_energy() - want) <= 1e-12 * max(abs(want), 1.0)


def test_total_energy_of_empty_system():
    region = oracle_region(2)
    phase = sim.PhaseTarget(rho_ref=np.full(3, 1.0), lambda_beta=0.7, t=0.6)
    system = sim.ParticleSystem(region, phase)
    assert system.total_energy() == audit_oracle(system) == 0.0
    # a frozen collar alone carries no energy: frozen-frozen pairs are excluded
    system.add_boundary([[-0.5, 0.5], [-0.3, 0.6]], [0, 1])
    assert system.total_energy() == 0.0


# (d, t, seed, collar, crowded, cap, w) of test_total_energy_matches_both_oracles
GROUPED_EXAMPLES = [(2, 1.0, 2, False, True, 300, 1), (2, 0.6, 2, True, True, 1, 1),
                    (3, 1.0, 0, False, True, 300, 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 0.6, 1.0]), st.integers(0, 2**16),
       st.booleans(), st.booleans(), st.sampled_from([1, 300, sim._PAIR_BLOCK_ELEMENTS]),
       st.sampled_from([1, 2]))
@example(2, 1.0, 0, True, False, 300, 2)  # a collar two cells wide
@example(3, 0.6, 0, True, True, 1, 2)
# the cell at the origin crowded past CAP to 13 particles next to empty and
# sparse cells: groups of several widths, with boundaries inside the self
# pairs and inside the cross pairs
@example(*GROUPED_EXAMPLES[0])
@example(*GROUPED_EXAMPLES[1])
@example(*GROUPED_EXAMPLES[2])
def test_total_energy_matches_both_oracles(d, t, seed, collar, crowded, cap, w):
    # the cell-pair audit against the O(n^2) sum and, bit for bit, the k-d
    # tree pair search; a cap of 1 takes one cell pair per group.  A collar
    # w cells wide leaves out collar-collar cell pairs out to offsets of w
    region = index_region(d, w)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=t)
    system = sim.ParticleSystem(region, phase, seed=seed)
    rng = np.random.default_rng(seed)
    if collar:  # cells that hold frozen particles only
        fx.fill_boundary(system, seed=seed + 1)
    # the top layer of interior cells along axis 0 stays empty
    n = int(rng.integers(0, 3 * system.n_int**d))
    pos = rng.random((n, d)) * region.side
    pos[:, 0] *= (system.n_int - 1) / system.n_int
    system.add_particles(pos, rng.integers(0, region.S, n))
    if crowded:  # one row grown past CAP
        k = system.CAP + 1 + int(rng.integers(10))
        system.add_particles(rng.random((k, d)) * region.ell_minus, rng.integers(0, region.S, k))
        assert system.members.shape[1] > system.CAP
    system.remove_particles(system.mobile_ids[::3])  # free slots
    interior = np.indices((system.n_int,) * d).reshape(d, -1).T
    assert (system.fill[sim._flat_cells(system.region, interior)] == 0).any()
    assert system.w == w
    groups = []  # per list of cell pairs, self then cross: its widths and groups
    audit_groups = sim._audit_groups

    def spy(widths):
        groups.append((widths, list(audit_groups(widths))))
        return groups[-1][1]

    with mock.patch.object(sim, "_PAIR_BLOCK_ELEMENTS", cap), \
            mock.patch.object(sim, "_audit_groups", spy):
        got = system.total_energy()
    for widths, cut in groups:
        # consecutive groups over every pair that holds a slot pair, each
        # padded to its widest pair and within the cap unless a lone pair
        bounds = [np.searchsorted(widths, 1)] + [stop for _, stop, _ in cut]
        assert [start for start, _, _ in cut] == bounds[:-1] and bounds[-1] == len(widths)
        for start, stop, width in cut:
            assert width == widths[start:stop].max()
            assert (stop - start) * width**2 <= cap or stop - start == 1
    if (d, t, seed, collar, crowded, cap, w) in GROUPED_EXAMPLES:
        assert system.fill.max() > system.CAP
        assert len({width for _, cut in groups for *_, width in cut}) > 1
        assert all(len(cut) > 1 for _, cut in groups)
    assert got == kdtree_energy(system)
    want = audit_oracle(system)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_total_energy_work_arrays_hold_no_stale_state(monkeypatch):
    # a crowded system grows every work array past what the small one
    # uses; the small one's audit then reads none of the stale entries,
    # whatever its grouping
    monkeypatch.setattr(sim, "_AUDIT_ARRAYS", {})
    region = index_region(2)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=0.6)
    small = sim.ParticleSystem(region, phase, seed=5)
    fx.fill_boundary(small, seed=6)
    small.seed_phase_configuration()
    first = small.total_energy()
    sizes = {name: len(arr) for name, arr in sim._AUDIT_ARRAYS.items()}
    crowded = copy.deepcopy(small)
    rng = np.random.default_rng(7)
    k = 25 * crowded.CAP
    crowded.add_particles(rng.random((k, 2)) * region.ell_minus, rng.integers(0, region.S, k))
    want = audit_oracle(crowded)
    assert abs(crowded.total_energy() - want) <= 1e-12 * max(abs(want), 1.0)
    assert all(len(sim._AUDIT_ARRAYS[name]) > size for name, size in sizes.items())
    with mock.patch.object(sim, "_PAIR_BLOCK_ELEMENTS", 1):
        assert small.total_energy() == first
    assert small.total_energy() == first


def test_total_energy_allocates_little_after_its_first_call(monkeypatch):
    # the benchmark's seed-0 sample chain: after one call has sized the
    # work arrays, an audit's traced peak is about 0.3 MiB; fresh group
    # arrays per call would trace 1.9 MiB
    from pottsgas import meanfield as mf

    def derive(tag):  # the benchmark's fixture seeds of workload seed 0
        return int(np.random.SeedSequence([0, tag]).generate_state(1)[0])

    monkeypatch.setattr(sim, "_AUDIT_ARRAYS", {})
    sol = mf.common_tangent(3, 4.0)
    region = sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0, n_plus=5)
    phase = sim.PhaseTarget(rho_ref=sol.minimizers[-1], lambda_beta=sol.lambda_beta, beta=4.0,
                            zeta=2.0, t=1.0)
    system = sim.ParticleSystem(region, phase, seed=derive(1))
    fx.fill_boundary(system, seed=derive(2))
    system.seed_phase_configuration()
    first = system.total_energy()
    tracemalloc.start()
    try:
        again = system.total_energy()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 0.75 * 2**20, peak


# the kind uniform of a draws row under MoveKernel()'s mix: birth < 0.25 <=
# death < 0.5 <= displacement < 0.8 <= flip
KIND_UNIFORMS = {"birth": (0.0, 0.25), "death": (0.25, 0.5), "displace": (0.5, 0.8),
                 "flip": (0.8, 1.0)}


def _row(kind, u_index, vector, u_species):
    lo, hi = KIND_UNIFORMS[kind]
    return np.array([(lo + hi) / 2, u_index, *vector, u_species, 0.0])


def _reverse_row(system, kind, row, local_ids, active):
    """The draws row that maps the state after the proposal of ``row`` back
    to the state before it, read before the forward commit: the death of
    the newborn, the birth of the dead particle where it stood, the
    mirrored displacement or the flip back."""
    d, S, ell = system.region.d, system.region.S, system.region.ell_minus
    n = len(local_ids)
    if kind == "birth":  # the newborn is appended to local_ids
        return _row("death", (n + 0.5) / (n + 1), np.full(d, 0.5), 0.5)
    i = local_ids[int(row[1] * n)]
    r, s = system.pos[i], int(system.spin[i])
    if kind == "death":
        cell = np.floor(r / ell)
        k = active.index(tuple(int(c) for c in cell))
        return _row("birth", (k + 0.5) / len(active), r / ell - cell, (s + 0.5) / S)
    if kind == "displace":
        return _row("displace", row[1], 1.0 - row[2:-2], 0.5)
    s_new = (s + 1 + int(row[-2] * (S - 1))) % S
    return _row("flip", row[1], np.full(d, 0.5), ((s - s_new - 1) % S + 0.5) / (S - 1))


def _moved(move, local_ids):
    """The id of the particle a proposal moves, None for a birth."""
    return None if move.pick is None else local_ids[move.pick]


def _acceptance(system, move, local_ids):
    """(window test passed, Metropolis acceptance probability) of one
    proposal, from the shared tail's energy change."""
    passed, dh = sim._metropolis(system, move, 0.0, _moved(move, local_ids))
    return passed, min(1.0, move.ratio * math.exp(-system.phase.beta * dh))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**16),
       st.sampled_from(sorted(KIND_UNIFORMS)))
def test_detailed_balance(d, t, seed, kind):
    # a(x -> y) / a(y -> x) = ratio * exp(-beta (H(y) - H(x))) with both H
    # from total_energy; each species of each cell starts at the low edge,
    # the middle or the high edge of the window [2, 6], so the window also
    # rejects, and then y must lie outside the ensemble.  Unequal reference
    # densities give a flip a nonzero reference-energy change.
    region = oracle_region(d)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=(4.0 + np.array([0.0, 0.15, -0.15])[: region.S]) / vol,
                            lambda_beta=0.7, beta=1.5, zeta=2.2 / vol, t=t)
    system = sim.ParticleSystem(region, phase, seed=seed)
    assert system.n_lo.tolist() == [2] * region.S and system.n_hi.tolist() == [6] * region.S
    fx.fill_boundary(system, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    active = [tuple(c) for c in np.ndindex(*((system.n_int,) * d))]
    for cell in active:
        system.add_particles(*system.draw_uniform([cell], rng.choice([2, 4, 6], region.S), rng))
    rows = sim.RowContext(system, active)
    local_ids = system.mobile_in(active)
    kernel = sim.MoveKernel(step=region.ell_minus)
    row = _row(kind, rng.random(), rng.random(d), rng.random())
    counts, h_x = system.counts.copy(), system.total_energy()

    move = sim._propose(system, kernel, row, rows, local_ids)
    if move is None:  # a displacement out of the box is rejected outright
        assert kind == "displace"
        return
    passed, a_forward = _acceptance(system, move, local_ids)
    reverse = _reverse_row(system, kind, row, local_ids, active)
    move.commit(system, local_ids, _moved(move, local_ids))
    assert system.in_ensemble() == passed
    if not passed:
        return
    h_y = system.total_energy()
    back = sim._propose(system, kernel, reverse, rows, local_ids)
    passed_back, a_back = _acceptance(system, back, local_ids)
    assert passed_back
    assert back.ratio * move.ratio == pytest.approx(1.0, rel=1e-12)
    want = move.ratio * math.exp(-phase.beta * (h_y - h_x))
    assert a_forward / a_back == pytest.approx(want, rel=1e-10)
    back.commit(system, local_ids, _moved(back, local_ids))  # the reverse row restores x
    assert np.array_equal(system.counts, counts)
    assert system.total_energy() == pytest.approx(h_x, rel=1e-10, abs=1e-10)


def _decide_settled(system, move, u, skip):
    """(``_decide``'s decision, whether the bound settled it): the bound
    settled it when ``_metropolis`` was not called."""
    with mock.patch.object(sim, "_metropolis", wraps=sim._metropolis) as exact:
        decision = sim._decide(system, move, u, skip)
    return decision, not exact.called


@settings(max_examples=160, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([0.03, 0.5, 1.0]), st.integers(0, 2**16),
       st.sampled_from(sorted(KIND_UNIFORMS)), st.sampled_from([None, 1e-3, 1e-12]))
def test_bound_decisions_are_the_exact_decisions(d, t, seed, kind, spread):
    # on an unknown energy, wherever the pair-energy bound settles an accept
    # test it decides as _metropolis does, and an accept carries a NaN
    # change.  u is uniform, 0 (the bound then settles every test), the
    # exact threshold ratio * exp(-beta dh), and 1 and 2 ulps either side.
    # Counts at the window's edges make the window reject too.  With a
    # ``spread``, there is no collar and every particle, birth and
    # displacement lies within about ``spread`` of the box centre, where V is
    # nearly V(0), the largest table value: the bound on a birth or a flip
    # is then the exact pair sum to about 1e-7, or to rounding at 1e-12
    region = oracle_region(d)
    vol, ell = region.cell_volume, region.ell_minus
    phase = sim.PhaseTarget(rho_ref=(4.0 + np.array([0.0, 0.15, -0.15])[: region.S]) / vol,
                            lambda_beta=0.7, beta=1.5, zeta=2.2 / vol, t=t)
    system = sim.ParticleSystem(region, phase, seed=seed)
    if spread is None:
        fx.fill_boundary(system, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    active = [tuple(c) for c in np.ndindex(*((system.n_int,) * d))]

    def near_centre(cell, n):
        """n points of the cell within about ``spread`` of its point nearest the
        box centre."""
        lo = np.asarray(cell) * ell
        nearest = np.clip(region.side / 2, lo, lo + ell)
        return nearest + (lo + ell / 2 - nearest) * rng.random((n, d)) * spread

    for cell in active:
        pos, spin = system.draw_uniform([cell], rng.choice([2, 4, 6], region.S), rng)
        system.add_particles(pos if spread is None else near_centre(cell, len(pos)), spin)
    local_ids = system.mobile_in(frozenset(active))
    kernel = sim.MoveKernel(step=ell)
    u_index, vector = rng.random(), rng.random(d)
    if spread is not None and kind == "birth":
        cell = active[int(u_index * len(active))]
        vector = near_centre(cell, 1)[0] / ell - cell
    elif spread is not None and kind == "displace":
        vector = 0.5 + (vector - 0.5) * spread
    row = _row(kind, u_index, vector, rng.random())
    move = sim._propose(system, kernel, row, sim.RowContext(system, active), local_ids)
    if move is None:
        return
    skip = _moved(move, local_ids)
    _, dh = sim._metropolis(system, move, 0.0, skip)
    threshold = move.ratio * math.exp(max(min(-phase.beta * dh, 700.0), -700.0))
    below = np.nextafter(threshold, 0.0)
    above = np.nextafter(threshold, np.inf)
    for u in (rng.random(), 0.0, threshold, below, np.nextafter(below, 0.0), above,
              np.nextafter(above, np.inf)):
        (accepted, change), settled = _decide_settled(system, move, float(u), skip)
        assert settled or u != 0.0
        if settled:
            assert accepted == sim._metropolis(system, move, float(u), skip)[0]
            assert math.isnan(change) if accepted else change == 0.0
    assert math.isnan(system._energy)


@pytest.mark.parametrize("t", [0.03, 1.0])
def test_known_energy_takes_exact_changes(t):
    # every row of an unaudited sweep from a known energy takes _metropolis,
    # so the running energy stays exact and finite; the same sweep from an
    # unknown energy lets the bound settle rows, leaves the energy unknown
    # and makes the same decisions
    region = oracle_region(2)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=t)
    known = sim.ParticleSystem(region, phase, seed=5)
    fx.fill_boundary(known, seed=6)
    known.seed_phase_configuration()
    unknown = copy.deepcopy(known)
    known.energy  # resolve it
    kernel = sim.MoveKernel(step=1.0)
    calls = []
    for system in (known, unknown):
        with mock.patch.object(sim, "_metropolis", wraps=sim._metropolis) as exact:
            accepted = sim.metropolis_sweep(system, kernel, n_moves=600, audit=False)
        calls.append(exact.call_count)
    assert accepted > 0
    assert calls[0] == 600 > calls[1]
    fresh = known.total_energy()
    assert math.isfinite(known._energy)
    assert abs(known._energy - fresh) <= 1e-9 * max(abs(fresh), 1.0)
    assert math.isnan(unknown._energy)
    assert known.mobile_ids == unknown.mobile_ids
    for name in ("pos", "spin", "alive", "members", "fill"):
        assert np.array_equal(getattr(known, name), getattr(unknown, name)), name


def pair_sum_oracle(system, r, s, c, skip=None):
    """Sum of V(|r - r_j|) over the particles j != skip of species != s
    filed in the block of cells around cell c, in filing order: one gather
    per call, the sum the sampler took per particle change before it
    gathered each block once per proposal."""
    block = c + system._ball
    filed = np.arange(system.members.shape[1]) < system.fill[block][:, None]
    ids = system.members[block][filed]
    if skip is not None:
        ids = ids[ids != skip]
    ids = ids[system.spin[ids] != s]
    if not len(ids):
        return 0.0
    diff = system.pos[ids] - np.asarray(r, dtype=float)
    dist = np.sqrt((diff**2).sum(axis=1))
    return float(np.sum(system.potential(dist)))


def _changes(system, kind, rng):
    """The particle changes and the moved particle of one proposal of the
    given kind, built by hand as ``simulate._propose`` builds them: a flip's
    two changes share one position array."""
    region = system.region
    d, ell, S = region.d, region.ell_minus, region.S
    if kind == "birth":
        cell = tuple(rng.integers(0, system.n_int, d))
        r = (np.asarray(cell) + rng.random(d)) * ell
        return [(+1, r, int(rng.integers(S)), system.flat_cell(cell))], None
    i = system.mobile_ids[int(rng.integers(len(system.mobile_ids)))]
    r, s, c = system.pos[i], int(system.spin[i]), system.cell[i]
    if kind == "death":
        return [(-1, r, s, c)], i
    if kind == "flip":
        return [(+1, r, (s + 1 + int(rng.integers(S - 1))) % S, c), (-1, r, s, c)], i
    here = np.floor(r / ell)
    there = here if kind == "displace_within" else (here + rng.integers(1, system.n_int, d)) % system.n_int
    r_new = (there + rng.random(d)) * ell
    c_new = cell_of(system, r_new)
    assert (c_new == c) == (kind == "displace_within")
    return [(+1, r_new, s, c_new), (-1, r, s, c)], i


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 2**16),
       st.sampled_from(["birth", "death", "flip", "displace_within", "displace_across"]),
       st.booleans(), st.booleans())
@example(2, 0, "flip", False, False)  # the +1 change's species differs from skip's: skip masked by id
@example(2, 0, "displace_within", False, False)  # one pass over both changes
@example(2, 0, "displace_within", True, False)
@example(3, 0, "displace_within", False, False)
@example(3, 0, "displace_within", True, False)
@example(2, 0, "displace_across", False, False)
def test_pair_delta_is_the_per_change_oracle_sum(d, seed, kind, crowded, no_skip):
    # bit-exact: the one-gather sum against one oracle gather per change
    region = index_region(d)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=1.0)
    system = sim.ParticleSystem(region, phase, seed=seed)
    fx.fill_boundary(system, seed=seed + 1)
    system.seed_phase_configuration()
    rng = np.random.default_rng(seed + 2)
    if crowded:  # one interior row grown past CAP
        corner = np.zeros(d)
        n = system.CAP + 1 + int(rng.integers(10))
        system.add_particles(corner + rng.random((n, d)) * region.ell_minus,
                             rng.integers(0, region.S, n))
        assert system.members.shape[1] > system.CAP
    changes, skip = _changes(system, kind, rng)
    if no_skip:
        skip = None
    want = sum(sign * pair_sum_oracle(system, *at, skip) for sign, *at in changes)
    assert system._pair_delta(changes, skip) == want


WINDOW_CELLS = [4, np.int64(4), 0, np.int64(0)]  # the flat cells, as int and as numpy int


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(3, 9), min_size=4, max_size=4),
       st.lists(st.tuples(st.sampled_from([+1, -1]), st.integers(0, 1),
                          st.sampled_from(WINDOW_CELLS)), min_size=1, max_size=2))
@example([8, 4, 4, 8], [(+1, 0, 4), (-1, 0, np.int64(4))])  # a displacement within a cell at the top
@example([4, 8, 8, 4], [(-1, 0, 4), (+1, 0, 4)])
@example([9, 4, 4, 8], [(+1, 0, 4), (-1, 0, 4)])  # a count it leaves unchanged is not checked
@example([8, 4, 4, 8], [(+1, 1, 4), (-1, 0, 4)])  # a flip at both edges
@example([8, 4, 4, 8], [(+1, 0, 4), (-1, 0, 0)])  # a displacement across cells
def test_window_ok_after_is_the_net_count_test(counts, moves):
    # a proposal is one change or two; the oracle nets them per (species,
    # cell) and tests each count they alter; the window is [4, 8] and the
    # counts run one past each edge
    system = make_system()
    lo, hi = system._window
    assert (lo, hi) == ((4, 4), (8, 8))
    for k, (c, s) in enumerate([(4, 0), (4, 1), (0, 0), (0, 1)]):
        system._counts[c, s] = counts[k]
    changes = [(g, None, s, c) for g, s, c in moves]
    net = {}
    for g, _, s, c in changes:
        net[s, int(c)] = net.get((s, int(c)), 0) + g
    want = all(lo[s] <= system._counts[c, s] + dn <= hi[s] for (s, c), dn in net.items() if dn)
    assert bool(system._window_ok_after(changes)) == want


def test_add_particles_refuses_a_point_whose_cell_rounds_onto_the_collar():
    # side = 17 * 0.2 rounds to 3.4000000000000004, and the largest double
    # below it, divided by 0.1, rounds up to n_int = 34: a collar cell
    region = small_region(d=1, gamma=5.0, ell0=0.1, ell_minus=0.1, ell_plus=0.2, n_plus=17)
    system = make_system(region=region, rho=20.0, zeta=10.0)
    edge = math.nextafter(region.side, 0.0)
    assert math.floor(edge / region.ell_minus) == system.n_int
    with pytest.raises(ValueError, match="outside the box"):
        system.add_particles([[3.35], [edge]], [0, 1])
    assert not system.mobile_ids and not system.fill.any()
    system.add_particles([[3.35]], [0])
    assert system.counts[-1].tolist() == [1, 0]


def test_add_boundary_refuses_a_point_whose_cell_rounds_onto_the_interior():
    # side = 7 * 2.6 = 18.2, and 18.2 / 0.65 rounds down to 27.999999999999996:
    # a point on the box's far face, outside the box, lies on interior cell 27
    region = sim.SimRegion(d=1, S=2, gamma=1 / 1.3, ell0=0.65, ell_minus=0.65, ell_plus=2.6, n_plus=7)
    system = make_system(region=region)
    assert system.n_int == 28 and math.floor(region.side / region.ell_minus) == 27
    with pytest.raises(ValueError, match="inside the box"):
        system.add_boundary([[-0.3], [region.side]], [0, 1])
    assert not system.fill.any()
    edge = region.side
    while math.floor(edge / region.ell_minus) < system.n_int:
        edge = math.nextafter(edge, math.inf)
    system.add_boundary([[edge]], [1])
    assert system.cell_counts()[system.flat_cell((28,))].tolist() == [0, 1]


def test_sweep_refuses_active_cells_off_the_interior():
    # a birth on a collar cell would file a mobile particle there, where the
    # energy audit, which skips collar-collar cell pairs, would miss its
    # pairs with the frozen particles around it
    system = make_system(region=index_region(2))
    for active in ([(-1, 0)], [(0, 0), (0, system.n_int)]):
        with pytest.raises(ValueError, match="interior"):
            sim.metropolis_sweep(system, sim.MoveKernel(), n_moves=5, active=active)
    assert not system.mobile_ids


@pytest.mark.parametrize("bad", ["frozen", "repeated", "dead", "unknown"])
def test_remove_particles_rejects_bad_ids_before_any_edit(bad):
    region = index_region(2)
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / region.cell_volume),
                            lambda_beta=0.7, zeta=2.0 / region.cell_volume, t=1.0)
    system = sim.ParticleSystem(region, phase, seed=3)
    fx.fill_boundary(system, seed=4)
    system.seed_phase_configuration()
    system.remove_particles(system.mobile_ids[-2:])  # a free list and a dead id
    dead = system._free[-1]
    mobile = system.mobile_ids[0]
    ids = {"frozen": [mobile, int(np.flatnonzero(system.frozen & system.alive)[0])],
           "repeated": [mobile, system.mobile_ids[1], mobile],
           "dead": [mobile, dead],
           "unknown": [mobile, len(system.spin) + 5]}[bad]
    before = copy.deepcopy(system)
    with pytest.raises(ValueError):
        system.remove_particles(ids)
    assert system.mobile_ids == before.mobile_ids
    assert system._mobile_slot == before._mobile_slot and system._free == before._free
    assert system.stamp == before.stamp
    assert math.isnan(system._energy) and math.isnan(before._energy)
    for name in ("pos", "spin", "alive", "frozen", "cell", "members", "fill", "_counts", "_subcounts",
                 "cell_stamps"):
        assert np.array_equal(getattr(system, name), getattr(before, name)), name
    system.remove_particles(ids[:1])  # the state stays usable
    assert mobile not in system.mobile_ids and not system.alive[mobile]


def test_neighbor_sum_is_built_once_per_rho_ref():
    rho_ref = np.array([1.0, 2.0, 4.0])
    phase = sim.PhaseTarget(rho_ref=rho_ref, lambda_beta=0.5)
    first = phase.neighbor_sum
    assert first.tolist() == [6.0, 5.0, 3.0]
    assert phase.neighbor_sum is first and copy.deepcopy(phase) is phase
    assert not first.flags.writeable and not phase.rho_ref.flags.writeable
    rho_ref[0] = 2.0  # the phase holds its own copy of the caller's array
    assert phase.rho_ref.tolist() == [1.0, 2.0, 4.0]
    assert phase.neighbor_sum is first and first.tolist() == [6.0, 5.0, 3.0]
    other = dataclasses.replace(phase, rho_ref=np.array([1.0, 1.0]))  # a new phase, new sums
    assert other.neighbor_sum.tolist() == [1.0, 1.0] and phase.neighbor_sum is first


def test_counts_is_a_read_only_view():
    # a write would put the counts out of step with the member rows
    system = sim.ParticleSystem(index_region(2), sim.PhaseTarget(np.full(3, 0.5), 0.5))
    system.add_particles([[1.0, 1.0]], [2])
    counts = system.counts
    assert np.shares_memory(counts, system._counts) and counts[0, 0].tolist() == [0, 0, 1]
    with pytest.raises(ValueError):
        counts[0, 0, 2] = 0


def test_region_is_fixed_when_the_system_is_built():
    # the cell grid, the window and the strides are derived from the region,
    # so another region would leave them describing the first one
    region = index_region(2)
    system = sim.ParticleSystem(region, sim.PhaseTarget(np.full(3, 0.5), 0.5))
    with pytest.raises(AttributeError):
        system.region = index_region(2, w=2)
    assert system.region is region and copy.deepcopy(system).region is region


def test_window_is_read_only_and_shared_by_copies():
    # n_lo and n_hi are the arrays every proposal's window was built from:
    # a write would leave in_ensemble reading another window than the moves
    system = sim.ParticleSystem(index_region(2), sim.PhaseTarget(np.full(3, 0.5), 0.5))
    for bound in (system.n_lo, system.n_hi):
        with pytest.raises(ValueError):
            bound[0] = 99
    assert system._window == (tuple(system.n_lo.tolist()), tuple(system.n_hi.tolist()))
    clone = copy.deepcopy(system)
    assert clone._window is system._window
    assert not clone.n_lo.flags.writeable and not clone.n_hi.flags.writeable


def test_module_caches_are_read_only():
    # every system of one geometry shares the energy audit's cell pairs, the
    # cell table and the bound's subcell offsets and weights: a write through
    # one system would reach them all
    system = sim.ParticleSystem(index_region(2), sim.PhaseTarget(np.full(3, 0.5), 0.5, t=0.5))
    pairs, _ = sim._audit_pairs(system.region)
    grid = sim._subcell_grid(system.region)
    for shared in (pairs, grid.offsets, grid.weights, *system.grid):
        with pytest.raises(ValueError):
            shared[..., 0] = 0
    assert sim._audit_pairs(system.region)[0] is pairs
    assert sim.ParticleSystem(system.region, system.phase).grid is copy.deepcopy(system).grid is system.grid


def test_region_tables_are_keyed_on_the_exact_gamma():
    # the pair potential is built once per (gamma, d) and the subcell grid
    # once per region: a gamma 1e-13 off another, which agrees with it to
    # 12 digits, gets its own potential and grid, and an equal region
    # shares both
    phase = sim.PhaseTarget(np.full(2, 0.5), 0.5, t=0.5)
    gammas = (0.5, 0.5 * (1.0 + 1e-13))
    regions = [sim.SimRegion(d=2, S=2, gamma=g, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=2)
               for g in gammas]
    first, second = (sim.ParticleSystem(region, phase).potential for region in regions)
    assert first is not second and (first.gamma, second.gamma) == gammas
    assert first.range != second.range
    twin = dataclasses.replace(regions[0])
    assert twin is not regions[0] and sim.ParticleSystem(twin, phase).potential is first
    assert sim._subcell_grid(twin) is sim._subcell_grid(regions[0]) is not sim._subcell_grid(regions[1])


@pytest.mark.parametrize("d, gamma, cells_per_range", [(1, 0.5, 1), (2, 0.5, 2), (2, 0.2, 1), (3, 0.5, 1)])
def test_subcell_weights_are_the_tail_from_the_closest_distance(d, gamma, cells_per_range):
    # per offset between two subcells, out past the grid's own reach, the
    # closest distance between them over their corner pairs: each weight
    # bounds V from there on, and lies within a relative 1e-6 of that
    # bound, so a weight taken nearer, or an offset kept beyond range, fails
    ell = 1.0 / gamma / cells_per_range
    region = sim.SimRegion(d=d, S=2, gamma=gamma, ell0=ell, ell_minus=ell, ell_plus=1.0 / gamma,
                           n_plus=2)
    grid, h = sim._subcell_grid(region), ell / sim._SUBCELLS
    reach = sim._SUBCELLS * region.collar_cells + 4
    delta = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d)))
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    # subcell 0 spans [0, h]^d and subcell delta [delta h, (delta + 1) h]^d
    ends = (delta[:, None, None] + corners[None, None, :] - corners[None, :, None]) * h
    closest = np.sqrt((ends**2).sum(axis=-1)).min(axis=(1, 2))
    flat = (delta @ grid.strides).tolist()
    assert len(set(flat)) == len(flat) and set(grid.offsets.tolist()) <= set(flat)
    kept = dict(zip(grid.offsets.tolist(), grid.weights.tolist()))
    weights = np.array([kept.get(k, 0.0) for k in flat])
    potential = PairPotential(gamma, d)
    assert np.all(potential.tail_max(closest) <= weights)
    assert np.all(weights <= potential.tail_max(closest * (1.0 - 1e-6)))
    assert np.all(grid.weights > 0.0)


def test_draw_uniform_keeps_each_particle_in_its_cell():
    # corner + u ell for the largest uniform below 1 rounds onto the next
    # cell's face (in the last interior cell, onto the box's far face, and
    # in the last collar cell, onto the collar's far face); each such
    # coordinate is stepped back into its cell
    class TopUniform:
        def random(self, shape):
            return np.full(shape, np.nextafter(1.0, 0.0))

    region = sim.SimRegion(d=2, S=2, gamma=0.2, ell0=5.0, ell_minus=5.0, ell_plus=10.0, n_plus=5)
    system = sim.ParticleSystem(region, sim.PhaseTarget(np.full(2, 0.04), 0.5, zeta=0.1))
    inner, collar = [(3, 4), (9, 9)], [(-1, 3), (10, 2), (10, 10)]
    for cells, add in ((inner, system.add_particles), (collar, system.add_boundary)):
        pos, spin = system.draw_uniform(cells, [1, 1], TopUniform())
        assert np.array_equal(np.floor(pos / 5.0), np.repeat(cells, 2, axis=0))
        assert spin.tolist() == [0, 1] * len(cells)
        add(pos, spin)
    assert np.all(system.pos[system.mobile_ids] < 50.0)
    assert system.pos[system.mobile_ids].tolist()[:2] == [[np.nextafter(20.0, 0.0),
                                                          np.nextafter(25.0, 0.0)]] * 2


CORNER_ELLS = (0.1, 0.2, 0.3, 0.6, 0.7, 1.1, 1.3)


def corner_cells(ell: float) -> list:
    """The cells c < 200 whose lower face c * ell floors to another cell."""
    return [c for c in range(200) if math.floor((c * ell) / ell) != c]


class Constant:
    """A generator whose every uniform is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


@pytest.mark.parametrize("ell", CORNER_ELLS)
def test_a_point_drawn_for_a_cell_is_counted_in_it(ell, monkeypatch):
    # at 70 pairs (ell, c) the lower face c * ell floors to c - 1, so a
    # uniform of 0 lands one cell short; one just below 1 can land one cell
    # over, in the last cell on the box's far face.  A birth, draw_uniform
    # and the default perturbation each give a point in the box that
    # floor(x / ell) counts in the cell drawn for it, and that is filed there.
    assert sum(len(corner_cells(e)) for e in CORNER_ELLS) == 70
    region = sim.SimRegion(d=1, S=2, gamma=1.0 / ell, ell0=ell, ell_minus=ell, ell_plus=ell,
                           n_plus=200)
    pair = scr.PairedState(make_system(region=region, zeta=1.5), make_system(region=region, zeta=1.5))
    system, cells = pair.sys1, corner_cells(ell) + [region.cells_per_axis - 1]
    added = []  # the positions the perturbation hands to add_particles
    add = sim.ParticleSystem.add_particles
    for u in (0.0, math.nextafter(1.0, 0.0), float(np.random.default_rng(36).random())):
        pos, spin = system.draw_uniform([(c,) for c in cells], [1, 0], Constant(u))
        system.add_particles(pos, spin)
        filed = system.cell[system.mobile_ids[-len(cells):]]
        assert filed.tolist() == sim._flat_cells(system.region, cells).tolist()
        births = [sim._propose(system, sim.MoveKernel(), [0.0, 0.0, u, 0.0, 0.0],
                               sim.RowContext(system, [(c,)]), []).changes[0] for c in cells]
        added.clear()
        with monkeypatch.context() as patch:
            patch.setattr(sim.ParticleSystem, "add_particles",
                          lambda s, pos, spins: added.append(np.ravel(pos)) or add(s, pos, spins))
            for c in cells:
                scr._default_perturbation(pair, {(c,)}, Constant(u))
        assert len(added) == 2 * len(cells)
        for c, x, (_, r, _, flat), x1, x2 in zip(cells, pos[:, 0], births, added[::2], added[1::2]):
            assert flat == system.flat_cell((c,))
            for point in (x, r[0], x1[0], x2[0]):
                assert 0.0 <= point < region.side and math.floor(point / ell) == c, (u, c, point)


@pytest.mark.parametrize("ell", CORNER_ELLS + (0.65, 2.0))
def test_subcell_index_is_the_cell_index_at_a_quarter_side(ell):
    # h = ell / 4 is exact, as _SUBCELLS is a power of two, so x / h rounds
    # as x * 4 / ell does: one index function serves both grids
    K, rng = sim._SUBCELLS, np.random.default_rng(7)
    faces = np.arange(-8 * K, 208 * K) * (ell / K)
    x = np.concatenate([rng.uniform(-8 * ell, 208 * ell, 4000), faces,
                        np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf)])
    want = np.floor(x * K / ell)
    assert np.array_equal(sim._cell_indices(x, ell / K), want)
    assert [sim._cell_index(v, ell / K) for v in x.tolist()] == want.tolist()
    region = sim.SimRegion(d=2, S=2, gamma=1.0 / ell, ell0=ell, ell_minus=ell, ell_plus=ell, n_plus=6)
    system = make_system(region=region, zeta=1.5, t=1.0)
    grid = sim._subcell_grid(system.region)
    near = x[(x >= -ell) & (x < 7 * ell)]  # on the extended grid
    pts = near[: len(near) // 2 * 2].reshape(-1, 2)
    flat = np.floor(pts * K / ell).astype(np.int64) @ grid.strides + grid.origin
    assert np.array_equal(grid.indices(pts), flat)
    assert [grid.index(p) for p in pts.tolist()] == flat.tolist()


def index_region(d, w=1):
    """A box of cells of side 2 with a collar ``w`` (1 or 2) cells wide, the
    range being w cells."""
    if d == 3:
        return sim.SimRegion(d=3, S=2, gamma=0.5 / w, ell0=1.0, ell_minus=2.0, ell_plus=2.0 * w,
                             n_plus=3 - w)
    return sim.SimRegion(d=d, S=3, gamma=0.5 / w, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)


def _filed_in_order(system, stamp):
    """Check every extended cell against a scan of floor(pos / ell): the
    particles found there, in the order they were last filed; and every
    member entry past its row's fill on the sentinel, the last slot, which
    sits at the origin with species S, is not alive and was never handed
    out."""
    region, w, n = system.region, system.w, system.n_int
    vacant = np.arange(system.members.shape[1]) >= system.fill[:, None]
    assert np.all(system.members[vacant] == -1)
    assert np.all(system.pos[-1] == 0.0) and system.spin[-1] == region.S
    assert not system.alive[-1] and not system.frozen[-1]
    assert system._n_used < len(system.spin)
    live = np.flatnonzero(system.alive[: system._n_used])
    home = np.floor(system.pos[live] / region.ell_minus).astype(int)
    for cell in np.ndindex(*((n + 2 * w,) * region.d)):
        cell = tuple(c - w for c in cell)
        ids = live[np.all(home == cell, axis=1)]
        ids = ids[np.lexsort((ids, stamp[ids]))]
        pos, spin = system.cell_particles(cell)
        assert np.array_equal(pos, system.pos[ids]) and np.array_equal(spin, system.spin[ids])
    inside = np.all((home >= 0) & (home < n), axis=1)
    hist = np.zeros_like(system.counts)
    np.add.at(hist, tuple(home[inside].T) + (system.spin[live[inside]],), 1)
    assert np.array_equal(system.counts, hist)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 2**16),
       st.lists(st.sampled_from(["insert", "collar", "remove", "sweep", "bulk"]), min_size=1, max_size=8))
@example(2, 0, ["remove", "bulk"])  # both unfiling paths
@example(2, 0, ["sweep"] * 8)  # displacements within a cell, each refiled by one row shift
def test_cell_index_matches_position_scan(d, seed, ops):
    from pottsgas.fixtures import fill_boundary

    region = index_region(d)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=1.0)
    system = sim.ParticleSystem(region, phase, seed=seed)
    fill_boundary(system, seed=seed + 1)
    system.seed_phase_configuration()
    rng = np.random.default_rng(seed + 2)
    L, wlen = region.side, system.w * region.ell_minus
    kernel = sim.MoveKernel(step=2.0 * region.ell_minus)
    # stamp[i]: the step at which particle i was last filed; one step files
    # at most one particle, so (stamp, id) orders each cell's row
    stamp = np.zeros(system._n_used, dtype=np.int64)
    step = 0
    for op in ops:
        for _ in range(20 if op == "sweep" else 1):
            step += 1
            before = (system.alive.copy(), system.pos.copy())
            if op == "bulk":  # one batch in, then one out; the batch files in its order
                k = int(rng.integers(1, 12))
                system.add_particles(rng.uniform(0, L, (k, d)), rng.integers(region.S, size=k))
                stamp = np.resize(stamp, system._n_used)
                stamp[system.mobile_ids[-k:]] = step + np.arange(k)
                step += k
                gone = rng.permutation(system.mobile_ids)[: int(rng.integers(1, 12))]
                system.remove_particles(gone.tolist())
                continue
            if op == "insert":
                r = rng.uniform(0, L, d)
                system._insert(r, int(rng.integers(region.S)), cell_of(system, r), frozen=False)
            elif op == "collar":
                r = rng.uniform(-wlen, L + wlen, d)
                while all(0.0 <= x < L for x in r):
                    r = rng.uniform(-wlen, L + wlen, d)
                system._insert(r, int(rng.integers(region.S)), cell_of(system, r), frozen=True)
            elif op == "remove" and system.mobile_ids:
                system._remove(system.mobile_ids[int(rng.integers(len(system.mobile_ids)))])
            elif op == "sweep":
                sim.metropolis_sweep(system, kernel, n_moves=1, rng=rng, audit=False)
            m = len(before[0])
            stamp = np.resize(stamp, system._n_used)
            refiled = system.alive[:m] & (~before[0][:m] | np.any(system.pos[:m] != before[1][:m], axis=1))
            stamp[np.flatnonzero(refiled)] = step
            stamp[m : system._n_used] = step
        _filed_in_order(system, stamp)

    # the neighbour sum against every live particle (V vanishes beyond range)
    live = np.flatnonzero(system.alive[: system._n_used])
    probes = [(system.pos[i], i) for i in system.mobile_ids[:10]]
    probes += [(rng.uniform(0, L, d), None) for _ in range(5)]
    for r, skip in probes:
        s = int(rng.integers(region.S))
        others = live[(live != skip) & (system.spin[live] != s)]
        want = float(np.sum(system.potential(np.linalg.norm(system.pos[others] - r, axis=1))))
        got = system._pair_delta([(+1, r, s, cell_of(system, r))], skip=skip)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    clone = copy.deepcopy(system)
    arrays = [v for v in vars(system).values() if isinstance(v, np.ndarray)] + [system.counts]
    for v in list(vars(clone).values()) + [clone.counts]:
        if isinstance(v, np.ndarray):
            assert not any(np.shares_memory(v, a) for a in arrays)
    _filed_in_order(clone, stamp)


@pytest.mark.parametrize("table", [False, True])
def test_displacement_within_a_cell_shifts_its_row_once(table):
    # the particle goes to the end of its row and the rest of the row keeps
    # its order; fills, counts, the other rows and the other cells' stamps
    # stay; the cell takes one new stamp; a live subcell table follows the
    # particle into its new subcell
    region = index_region(2)
    vol, ell = region.cell_volume, region.ell_minus
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=1.0)
    system = sim.ParticleSystem(region, phase, seed=3)
    fx.fill_boundary(system, seed=4)
    system.seed_phase_configuration()
    if not table:
        system.energy  # a known energy keeps no subcell table
    assert (system._subcounts is not None) == table
    local_ids = list(system.mobile_ids)
    i = local_ids[0]
    c = system.cell[i]
    assert system.members[c, 0] == i and system.fill[c] > 1
    centre = (np.floor(system.pos[i] / ell) + 0.5) * ell
    kernel = sim.MoveKernel(step=ell)
    row = _row("displace", 0.5 / len(local_ids), 0.5 + (centre - system.pos[i]) / (2 * ell), 0.5)
    active = [tuple(cell) for cell in np.ndindex(system.n_int, system.n_int)]
    move = sim._propose(system, kernel, row, sim.RowContext(system, active), local_ids)
    assert move.changes[0][3] == c and np.allclose(move.changes[0][1], centre)
    before = copy.deepcopy(system)
    with mock.patch.object(sim, "_STAMPS", itertools.count(10**9)):
        move.commit(system, local_ids, i)
        assert next(sim._STAMPS) == 10**9 + 1  # one stamp drawn
    n = system.fill[c]
    filed = before.members[c, :n].tolist()
    assert system.members[c, :n].tolist() == filed[1:] + [i]
    assert np.all(system.members[c, n:] == -1)
    others = np.arange(len(system.fill)) != c
    assert np.array_equal(system.members[others], before.members[others])
    for name in ("fill", "_counts", "cell"):
        assert np.array_equal(getattr(system, name), getattr(before, name)), name
    assert system.stamp == system.cell_stamps[c] == 10**9
    assert np.array_equal(system.cell_stamps[others], before.cell_stamps[others])
    assert system.pos[i].tolist() == move.changes[0][1].tolist()
    if table:
        assert system._subcell[i] != before._subcell[i]
        assert subcell_table(system) == subcell_scan(system) and not stale_subcells(system)
    else:
        assert system._subcounts is None


def subcell_scan(system) -> dict:
    """{(subcell coordinates..., species): count} of the live particles,
    from a scan of pos, spin and alive: a point x lies in subcell
    floor(x * _SUBCELLS / ell) along each axis."""
    K, ell = sim._SUBCELLS, system.region.ell_minus
    out = {}
    for i in np.flatnonzero(system.alive).tolist():
        key = tuple(math.floor(x * K / ell) for x in system.pos[i].tolist()) + (int(system.spin[i]),)
        out[key] = out.get(key, 0) + 1
    return out


def subcell_table(system) -> dict:
    """The same dict read off the system's subcell table."""
    grid, d = system._subgrid, system.region.d
    side = sim._SUBCELLS * system.n_ext + 2 * grid.PAD
    assert grid.size == side**d
    flat, species = np.nonzero(system._subcounts)
    coords = np.stack(np.unravel_index(flat, (side,) * d), axis=1) - (sim._SUBCELLS * system.w + grid.PAD)
    return {tuple(c) + (int(s),): system._subcounts[f, s]
            for c, f, s in zip(coords.tolist(), flat.tolist(), species.tolist())}


def stale_subcells(system) -> list:
    """The live particles whose stored subcell is not the subcell grid's
    ``index`` of their position."""
    grid = system._subgrid
    return [i for i in np.flatnonzero(system.alive).tolist()
            if system._subcell[i] != grid.index(system.pos[i].tolist())]


def on_faces(system, n, rng, collar=False):
    """n points on subcell faces, each coordinate either exactly on a face
    or one ulp below it, inside the box on an interior cell or outside it
    on a collar cell, as add_particles and add_boundary take them."""
    region = system.region
    K, ell, L = sim._SUBCELLS, region.ell_minus, region.side
    lo, hi = (-system.w * K, (system.n_int + system.w) * K) if collar else (1, system.n_int * K)
    pts = []
    while len(pts) < n:
        faces = rng.integers(lo, hi, region.d) * ell / K
        below = rng.random(region.d) < 0.5
        r = np.where(below, np.nextafter(faces, -np.inf), faces)
        inner = np.floor(r / ell) < system.n_int
        if collar:
            ok = not np.all((r >= 0.0) & ((r < L) | inner)) and np.all(r >= -system.w * ell)
        else:
            ok = np.all((r >= 0.0) & (r < L) & inner)
        if ok:
            pts.append(r)
    return np.array(pts)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 2**16), st.sampled_from([2.0, 0.7]),
       st.lists(st.sampled_from(["birth", "death", "displace", "flip", "sweep", "crn_sweep",
                                 "add_particles", "add_boundary", "remove_particles", "reinit"]),
                min_size=1, max_size=10))
def test_subcell_table_matches_position_scan(d, seed, ell, ops):
    # the table kept through single edits, sweeps and bulk edits, on both
    # chains of a pair, equals a from-scratch count, and every live
    # particle's stored subcell is the subcell of its position; the points
    # of births, displacements and bulk adds lie on subcell faces or one ulp
    # below them half of the time.  ell = 0.7 puts faces where x * 4 / ell
    # rounds.  A common-random-number sweep files the second chain's
    # particles at the subcells of the first chain's proposals
    from pottsgas import coupling as cpl

    region = index_region(d) if ell == 2.0 else sim.SimRegion(
        d=d, S=2, gamma=1 / 0.7, ell0=0.7, ell_minus=0.7, ell_plus=0.7, n_plus=3)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=0.5)
    pair = fx.make_identical_pair(region, phase, seed)
    system = pair.sys1
    rng = np.random.default_rng(seed + 2)
    L, S = region.side, region.S
    kernel = sim.MoveKernel(step=2.0 * region.ell_minus)

    def point():
        return on_faces(system, 1, rng)[0] if rng.random() < 0.5 else rng.uniform(0, L, d)

    def some_mobile(k):
        ids = system.mobile_ids
        return [ids[j] for j in rng.permutation(len(ids))[:k]]

    for op in ops:
        if op == "birth":
            r = point()
            system._insert(r, int(rng.integers(S)), cell_of(system, r), frozen=False)
        elif op in ("death", "displace", "flip") and system.mobile_ids:
            i = some_mobile(1)[0]
            if op == "death":
                system._remove(i)
            elif op == "displace":
                system._unfile(i)
                system.pos[i] = point()
                system._file(i, cell_of(system, system.pos[i]))
            else:
                system._respin(i, (int(system.spin[i]) + 1 + int(rng.integers(S - 1))) % S)
        elif op == "sweep":
            sim.metropolis_sweep(system, kernel, n_moves=30, rng=rng, audit=False)
        elif op == "crn_sweep":
            cpl.crn_sweep(pair, kernel, list(np.ndindex(*((system.n_int,) * d))), 30, rng)
        elif op == "add_particles":
            pos = np.concatenate([on_faces(system, 3, rng), rng.uniform(0, L, (2, d))])
            system.add_particles(pos, rng.integers(0, S, len(pos)))
        elif op == "add_boundary":
            pos = on_faces(system, 3, rng, collar=True)
            system.add_boundary(pos, rng.integers(0, S, len(pos)))
        elif op == "remove_particles":
            system.remove_particles(some_mobile(3))
        elif op == "reinit":
            cells = [tuple(c) for c in np.ndindex(*((system.n_int,) * d)) if rng.random() < 0.5]
            cpl.reinit_identical(pair, cells, rng)
        for chain in (pair.sys1, pair.sys2):
            assert math.isnan(chain._energy)
            assert subcell_table(chain) == subcell_scan(chain), op
            assert stale_subcells(chain) == [], op
    clone = copy.deepcopy(system)
    assert not np.shares_memory(clone._subcounts, system._subcounts)
    assert subcell_table(clone) == subcell_scan(system)
    assert stale_subcells(clone) == []


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([0.5, 0.2, 0.05]), st.sampled_from([1, 2]),
       st.integers(0, 2**16), st.sampled_from(["birth", "flip", "displace", "clustered"]),
       st.booleans())
def test_subcell_bound_is_at_least_the_pair_sum(d, gamma, cells_per_range, seed, kind, collar):
    # each +1 change's bound from the subcell table against its exact
    # _pair_delta term, with or without a collar; a flip's own particle
    # sits in the block at distance 0, and "clustered" puts every particle
    # and the birth within 1e-9 of one point, where the terms approach the
    # weights.  The sums are taken in different orders, so the bound may
    # fall below the exact sum by rounding alone: 1e-12 relative
    ell = 1.0 / gamma / cells_per_range
    region = sim.SimRegion(d=d, S=3 if d < 3 else 2, gamma=gamma, ell0=ell, ell_minus=ell,
                           ell_plus=1.0 / gamma, n_plus=2)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 3.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=0.5)
    system = sim.ParticleSystem(region, phase, seed=seed)
    if collar:
        fx.fill_boundary(system, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    if kind == "clustered":
        centre = rng.uniform(0.0, region.side - 1e-6, d)
        system.add_particles(centre + rng.random((12, d)) * 1e-9, rng.integers(0, region.S, 12))
    else:
        system.seed_phase_configuration(rng=rng)
    assert system._subcounts is not None
    active = [tuple(c) for c in np.ndindex(*((system.n_int,) * d))]
    local_ids = system.mobile_in(frozenset(active))
    if kind == "clustered":
        r = system.pos[local_ids[0]] + 1e-9
        changes, skip = [(+1, r, int(rng.integers(region.S)), cell_of(system, r))], None
    else:
        row = _row(kind, rng.random(), rng.random(d), rng.random())
        move = sim._propose(system, sim.MoveKernel(step=ell), row, sim.RowContext(system, active),
                            local_ids)
        if move is None:
            return
        changes, skip = move.changes, _moved(move, local_ids)
    for sign, r, s, c in changes:
        if sign > 0:
            exact, bound = system._pair_delta([(+1, r, s, c)], skip), system._pair_bound(r, s)
            assert bound >= exact * (1.0 - 1e-12), (bound, exact)


@pytest.mark.parametrize("t", [0.0, 0.03])
def test_subcell_table_lives_only_while_the_bound_can_fire(t):
    # at t = 0 no chain holds a table; at t > 0 a bulk edit builds it, and
    # whatever makes the energy known again (a read, an audited sweep, a
    # set value) drops it
    region = oracle_region(2)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=t)
    system = sim.ParticleSystem(region, phase, seed=5)
    assert system._subcounts is None
    fx.fill_boundary(system, seed=6)
    system.seed_phase_configuration()
    kernel = sim.MoveKernel(step=1.0)
    assert (system._subcounts is None) == (t == 0.0)
    sim.metropolis_sweep(system, kernel, n_moves=200, audit=False)
    assert (system._subcounts is None) == (t == 0.0)
    system.energy  # resolve it
    assert system._subcounts is None
    sim.metropolis_sweep(system, kernel, n_moves=200, audit=False)
    assert system._subcounts is None and math.isfinite(system._energy)
    assert copy.deepcopy(system)._subcounts is None

    system.remove_particles(system.mobile_ids[:3])
    assert (system._subcounts is None) == (t == 0.0)
    sim.metropolis_sweep(system, kernel, n_moves=200)  # an audited sweep reads the energy first
    assert system._subcounts is None
    system.add_particles([[0.5] * region.d], [1])
    assert (system._subcounts is None) == (t == 0.0)
    system.energy = system.total_energy()
    assert system._subcounts is None


@pytest.mark.parametrize("t", [0.0, 0.03])
def test_empty_bulk_edit_keeps_a_known_energy(t):
    # an empty batch edits nothing: a known energy stays known, and at t > 0
    # no subcell table is built for the bound
    region = oracle_region(2)
    vol = region.cell_volume
    phase = sim.PhaseTarget(rho_ref=np.full(region.S, 4.0 / vol), lambda_beta=0.7,
                            zeta=2.0 / vol, t=t)
    system = sim.ParticleSystem(region, phase, seed=5)
    fx.fill_boundary(system, seed=6)
    system.seed_phase_configuration()
    energy, stamp = system.energy, system.stamp
    system.remove_particles([])
    system.add_particles([], [])
    system.add_boundary([], [])
    assert system._energy == energy and system._subcounts is None
    assert system.stamp == stamp
    assert energy == system.total_energy()


def test_deepcopy_of_a_pair_is_an_independent_clone():
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0, n_plus=2)
    phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, zeta=0.6, t=1.0)
    pair = fx.make_identical_pair(region, phase, 3)
    for system in (pair.sys1, pair.sys2):
        system.remove_particles(system.mobile_ids[:2])  # a nonempty free list
        system.audit_log.append(0.25)
    energy = (pair.sys1.energy, pair.sys2.energy)
    table = [a.copy() for a in pair.cell_table()]
    clone = copy.deepcopy(pair)

    assert clone.sys1.region is clone.sys2.region
    assert clone.sys1.phase is clone.sys2.phase
    for mine, theirs in ((clone.sys1, pair.sys1), (clone.sys2, pair.sys2)):
        assert theirs._free and theirs.audit_log
        assert {"mobile_ids", "_free", "_mobile_slot", "audit_log"} <= set(vars(theirs))
        assert mine.stamp == theirs.stamp
        assert mine.potential is theirs.potential  # the process-cached table
        assert mine.phase is theirs.phase and mine.region is theirs.region  # values, shared
        for name, value in vars(theirs).items():
            if isinstance(value, np.ndarray):
                assert not np.shares_memory(getattr(mine, name), value), name
                assert np.array_equal(getattr(mine, name), value), name
            elif isinstance(value, (list, dict)):
                assert getattr(mine, name) is not value, name
                assert getattr(mine, name) == value, name
        assert mine.rng is not theirs.rng
        assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state
        draw = theirs.rng.random(3)
        assert mine.rng.bit_generator.state != theirs.rng.bit_generator.state
        assert np.array_equal(mine.rng.random(3), draw)

    # editing the clone leaves the original alone
    kernel = sim.MoveKernel()
    sim.metropolis_sweep(clone.sys1, kernel, n_moves=200)
    clone.sys2.add_particles([[1.5, 2.5]], [1])
    clone.sys2.remove_particles(clone.sys2.mobile_ids[:3])
    assert clone.sys1.stamp != pair.sys1.stamp and clone.sys2.stamp != pair.sys2.stamp
    for got, want in zip(pair.cell_table(), table):
        assert np.array_equal(got, want)
    assert (pair.sys1.energy, pair.sys2.energy) == energy
    assert [s.total_energy() for s in (pair.sys1, pair.sys2)] == list(energy)
