import copy
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pottsgas import fixtures as fx
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
        h_full = config_energy(both_pos, both_spin, phase.lam, gamma)
        h_bnd = config_energy(bpos, boundary_spins, phase.lam, gamma)
    else:
        h_full = config_energy(positions, spins, phase.lam, gamma)
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
    lists them."""
    from scipy.spatial import cKDTree

    phase = system.phase
    live = np.flatnonzero(system.alive[: system._n_used])
    pairs = cKDTree(system.pos[live]).query_pairs(system.potential.range, output_type="ndarray")
    i, j = live[pairs[:, 0]], live[pairs[:, 1]]
    keep = (system.spin[i] != system.spin[j]) & ~(system.frozen[i] & system.frozen[j])
    i, j = i[keep], j[keep]
    dist = np.sqrt(((system.pos[i] - system.pos[j]) ** 2).sum(axis=1))
    mobile_spins = system.spin[live[~system.frozen[live]]]
    h_pair = float(np.sum(system.potential(dist))) - phase.lam * len(mobile_spins)
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
    return int(system.flat_cells(np.floor(np.asarray(r) / system.region.ell_minus))[0])


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
    full = config_energy(np.vstack([pos, bpos]), np.concatenate([spins, bspins]), phase.lam, gamma)
    bnd = config_energy(bpos, bspins, phase.lam, gamma)
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
        if not sys.in_box(r):
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
    ok = sim.apply_move(sys, sim.MoveKernel(), np.array(row), active, frozenset(active),
                        list(sys.mobile_ids), len(active) * sys.region.cell_volume)
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
    assert sim.apply_move(sys, sim.MoveKernel(), row, active, frozenset(active),
                          list(sys.mobile_ids), len(active) * sys.region.cell_volume)
    born = sys.mobile_ids[-1]
    assert sys.pos[born].tolist() == [math.nextafter(4.0, 0.0)] * 2
    assert sys.in_box(sys.pos[born])
    assert sys.cell[born] == sys.flat_cell((1, 1))
    assert np.floor(sys.pos[born] / sys.region.ell_minus).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("ell, ell_plus, n_plus", [(2.0, 4.0, 1), (0.1, 0.2, 10), (0.7, 0.7, 6)])
def test_birth_at_any_far_face_lies_in_its_cell(ell, ell_plus, n_plus):
    # c + f is c + 1 for c >= 1 and f = 1 - 2**-53; where ell is not a power
    # of 2, even the float below (c + 1) * ell can bin into cell c + 1 (cell
    # 16 at ell 0.1, cell 4 at ell 0.7)
    region = sim.SimRegion(d=1, S=2, gamma=1.0 / ell, ell0=ell, ell_minus=ell,
                           ell_plus=ell_plus, n_plus=n_plus)
    sys = make_system(region=region)
    row = np.array([0.0, 0.0, 1.0 - 2.0**-53, 0.0, 0.0])
    for cell in range(region.cells_per_axis):
        active = [(cell,)]
        (_, r, _, c), = sim._propose(sys, sim.MoveKernel(), row, active, frozenset(active),
                                     [], ell).changes
        assert sys.in_box(r) and math.floor(r[0] / ell) == cell
        assert c == sys.flat_cell((cell,))


def test_stationary_law_matches_enumeration():
    # single-cell two-species system at t=0: the occupancy law is a product
    # of window-truncated Poisson weights; the tangent value is chosen so the
    # Poisson rate (= 6) sits mid-window and every state has expected
    # frequency well above the chi-square validity floor
    region = small_region(S=2)
    phase = sim.PhaseTarget(rho_ref=np.array([1.5, 1.5]), lambda_beta=1.5 + math.log(1.5),
                            beta=1.0, zeta=0.626, t=0.0)
    exact = sim.poisson_window_weights(region, phase)
    states = sorted(exact)
    sys = sim.ParticleSystem(region, phase, seed=123)
    sys.seed_phase_configuration()
    kernel = sim.MoveKernel()

    thin = 40
    n_samples = 25_000  # one million proposals in total
    counts = {st: 0 for st in states}
    for _ in range(n_samples):
        sim.metropolis_sweep(sys, kernel, n_moves=thin, audit=False)
        occ = tuple(int(v) for v in sys.counts[0, 0])
        counts[occ] += 1
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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 0.6, 1.0]), st.integers(0, 2**16),
       st.booleans(), st.booleans(), st.sampled_from([1, 300, sim._PAIR_BLOCK_ELEMENTS]))
def test_total_energy_matches_both_oracles(d, t, seed, collar, crowded, cap):
    # the cell-pair audit against the O(n^2) sum and the k-d tree pair
    # search; a cap of 1 takes one cell per group
    region = index_region(d)
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
    assert (system.fill[system.flat_cells(np.indices((system.n_int,) * d).reshape(d, -1).T)] == 0).any()
    with mock.patch.object(sim, "_PAIR_BLOCK_ELEMENTS", cap):
        got = system.total_energy()
    for want in (audit_oracle(system), kdtree_energy(system)):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


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


def _acceptance(system, move):
    """(window test passed, Metropolis acceptance probability) of one
    proposal, from the shared tail's energy change."""
    passed, dh = sim._metropolis(system, move, 0.0)
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
    active_set = frozenset(active)
    local_ids = system.mobile_in(active_set)
    volume = len(active) * vol
    kernel = sim.MoveKernel(step=region.ell_minus)
    row = _row(kind, rng.random(), rng.random(d), rng.random())
    counts, h_x = system.counts.copy(), system.total_energy()

    move = sim._propose(system, kernel, row, active, active_set, local_ids, volume)
    if move is None:  # a displacement out of the box is rejected outright
        assert kind == "displace"
        return
    passed, a_forward = _acceptance(system, move)
    reverse = _reverse_row(system, kind, row, local_ids, active)
    move.commit()
    assert system.in_ensemble() == passed
    if not passed:
        return
    h_y = system.total_energy()
    back = sim._propose(system, kernel, reverse, active, active_set, local_ids, volume)
    passed_back, a_back = _acceptance(system, back)
    assert passed_back
    assert back.ratio * move.ratio == pytest.approx(1.0, rel=1e-12)
    want = move.ratio * math.exp(-phase.beta * (h_y - h_x))
    assert a_forward / a_back == pytest.approx(want, rel=1e-10)
    back.commit()  # the reverse row restores x
    assert np.array_equal(system.counts, counts)
    assert system.total_energy() == pytest.approx(h_x, rel=1e-10, abs=1e-10)


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
        return [(+1, r, int(rng.integers(S)), system._ext_cell(cell))], None
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


def test_neighbor_sum_is_built_once_per_rho_ref():
    phase = sim.PhaseTarget(rho_ref=np.array([1.0, 2.0, 4.0]), lambda_beta=0.5)
    first = phase.neighbor_sum
    assert first.tolist() == [6.0, 5.0, 3.0]
    assert phase.neighbor_sum is first
    assert not first.flags.writeable
    phase.rho_ref[0] = 2.0  # an edit in place rebuilds
    assert phase.neighbor_sum.tolist() == [6.0, 6.0, 4.0]
    phase.rho_ref = np.array([1.0, 1.0])  # and so does a new array
    assert phase.neighbor_sum.tolist() == [1.0, 1.0]


def index_region(d):
    if d == 3:
        return sim.SimRegion(d=3, S=2, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=2.0, n_plus=2)
    return sim.SimRegion(d=d, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)


def _filed_in_order(system, stamp):
    """Check every extended cell against a scan of floor(pos / ell): the
    particles found there, in the order they were last filed."""
    region, w, n = system.region, system.w, system.n_int
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
       st.lists(st.sampled_from(["insert", "collar", "remove", "sweep"]), min_size=1, max_size=8))
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
            if op == "insert":
                r = rng.uniform(0, L, d)
                system._insert(r, int(rng.integers(region.S)), cell_of(system, r), frozen=False)
            elif op == "collar":
                r = rng.uniform(-wlen, L + wlen, d)
                while system.in_box(r):
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
