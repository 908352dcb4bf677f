import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pottsgas import simulate as sim


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


def test_pair_potential_support_and_symmetry():
    gamma = 0.5
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(0, 4, 2), rng.uniform(0, 4, 2)
        v1 = sim.pair_potential(a, b, gamma)
        v2 = sim.pair_potential(b, a, gamma)
        assert v1 == v2
        if np.linalg.norm(a - b) > 1 / gamma:
            assert v1 == 0.0
        else:
            assert v1 >= 0.0


def test_pair_potential_at_zero_scale_identity():
    # V(r, r) = gamma^d * integral of the unit-scale profile squared
    from pottsgas.kernels import normalized_bump

    gamma, d = 0.5, 2
    prof = normalized_bump(d)
    n = 1200
    h = 1.0 / n
    g = -0.5 + (np.arange(n) + 0.5) * h
    gx, gy = np.meshgrid(g, g, indexing="ij")
    direct = gamma**d * float(np.sum(prof(np.hypot(gx, gy)) ** 2) * h * h)
    val = sim.pair_potential(np.zeros(2), np.zeros(2), gamma)
    assert val == pytest.approx(direct, rel=1e-4)


def test_config_energy_examples():
    gamma = 0.5
    lam = 1.3
    # single particle: no pairs
    assert sim.config_energy([[0.5, 0.5]], [0], lam, gamma) == pytest.approx(-lam)
    # two same-species particles: the pair term vanishes
    assert sim.config_energy([[0.5, 0.5], [0.7, 0.5]], [1, 1], lam, gamma) == pytest.approx(-2 * lam)
    # two unlike particles at zero distance
    v0 = sim.pair_potential(np.zeros(2), np.zeros(2), gamma)
    got = sim.config_energy([[0.5, 0.5], [0.5, 0.5]], [0, 1], lam, gamma)
    assert got == pytest.approx(v0 - 2 * lam, rel=1e-12)


def test_interpolated_energy_limits():
    gamma = 0.5
    phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=1.0, t=1.0)
    pos = np.array([[0.3, 0.3], [0.9, 0.7]])
    spins = np.array([0, 1])
    bpos = np.array([[-0.4, 0.5]])
    bspins = np.array([1])
    full = sim.config_energy(np.vstack([pos, bpos]), np.concatenate([spins, bspins]), phase.lam, gamma)
    bnd = sim.config_energy(bpos, bspins, phase.lam, gamma)
    assert sim.interpolated_energy(pos, spins, bpos, bspins, phase, gamma) == pytest.approx(full - bnd)

    phase0 = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=1.0, t=0.0)
    expect = sim.reference_energy(spins, phase0)
    assert sim.interpolated_energy(pos, spins, bpos, bspins, phase0, gamma) == pytest.approx(expect)
    # empty configuration: both parts vanish
    assert sim.interpolated_energy(np.zeros((0, 2)), [], bpos, bspins, phase, gamma) == 0.0


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


def test_rejected_when_leaving_window():
    sys = make_system(t=0.0)
    sys.seed_phase_configuration()  # 6 per species on the single cell
    counts0 = sys.counts.copy()
    # a birth pushing species 0 to 9 > 8 must be rejected regardless of energy:
    # kind uniform 0 (birth), cell (0, 0), position (1, 1), species 0, accept 0
    draws = (0.0, 0.0, np.array([0.5, 0.5]), 0.0, 0.0)
    sys.counts[0, 0, 0] = sys.n_hi[0]
    ok = sim.apply_move(sys, sim.MoveKernel(), draws, [(0, 0)], frozenset([(0, 0)]),
                        list(sys.mobile_ids), 4.0)
    assert not ok
    sys.counts[:] = counts0


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
    assert sim.empirical_density_at(sys, 0.5, (0.1, 0.1), 0) == pytest.approx(1 / 0.25)
    assert sim.empirical_density_at(sys, 0.5, (0.1, 0.1), 1) == 0.0
    assert sim.empirical_density_at(sys, 0.5, (0.8, 0.9), 1) == pytest.approx(1 / 0.25)
    # the storage mesh agrees with the cached counts
    assert sim.empirical_density_at(sys, 2.0, (0.5, 0.5), 0) == pytest.approx(
        sim.empirical_density(sys)[0, 0, 0]
    )
    # sub-cell densities aggregate to the cell count
    total = sum(
        sim.empirical_density_at(sys, 1.0, (x + 0.5, y + 0.5), 0) * 1.0
        for x in range(2)
        for y in range(2)
    )
    assert total == pytest.approx(sys.counts[0, 0, 0])


def test_trajectory_binary_round_trip(tmp_path):
    snaps = [np.full((2, 2, 2), float(k)) for k in range(3)]
    p = tmp_path / "traj.npy"
    sim.save_trajectory(p, snaps)
    back = sim.load_trajectory(p)
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


def audit_oracle(system) -> float:
    """interpolated_energy of the live configuration: the O(n^2) reference."""
    live = np.flatnonzero(system.alive[: system._n_used])
    mob, fro = live[~system.frozen[live]], live[system.frozen[live]]
    return sim.interpolated_energy(system.pos[mob], system.spin[mob], system.pos[fro],
                                   system.spin[fro], system.phase, system.region.gamma)


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
                system._insert(rng.uniform(0, L, d), int(rng.integers(region.S)), frozen=False)
            elif op == "collar":
                r = rng.uniform(-wlen, L + wlen, d)
                while system.in_box(r):
                    r = rng.uniform(-wlen, L + wlen, d)
                system._insert(r, int(rng.integers(region.S)), frozen=True)
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
        got = system._pair_sum(r, s, system._cell_at(r), skip=skip)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    clone = copy.deepcopy(system)
    arrays = [v for v in vars(system).values() if isinstance(v, np.ndarray)] + [system.counts]
    for v in list(vars(clone).values()) + [clone.counts]:
        if isinstance(v, np.ndarray):
            assert not any(np.shares_memory(v, a) for a in arrays)
    _filed_in_order(clone, stamp)
