"""Grand-canonical Metropolis sampler for the multi-species gas with a
finite-range repulsion between unlike species, restricted to configurations
whose cell densities stay near one chosen coexistence phase.

The chain lives in a box with a frozen particle configuration on a collar of
one interaction range; moves are births, deaths, displacements and species
flips, each rejected if it would push any cell's empirical density out of the
accuracy window.  The energy is interpolated between the full pair energy
(t=1) and a linear reference energy built from the phase's densities (t=0).
Proposals can be restricted to an arbitrary set of cells, which is what the
coupling experiments use to resample sub-regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .kernels import PairPotential

__all__ = [
    "SimRegion",
    "PhaseTarget",
    "MoveKernel",
    "ParticleSystem",
    "pair_potential",
    "config_energy",
    "reference_energy",
    "interpolated_energy",
    "empirical_density",
    "phase_indicator",
    "metropolis_sweep",
    "measure_observables",
    "poisson_window_weights",
    "occupancy_window",
]


@dataclass(frozen=True)
class SimRegion:
    """Box geometry and the ladder of lengths.

    The box is ``n_plus`` cubes of side ``ell_plus`` per axis; the frozen
    boundary lives on a collar of width one interaction range, rounded up to
    whole cells.  The divisibility chain ell0 | ell_minus | 1/gamma | ell_plus
    is enforced.
    """

    d: int
    S: int
    gamma: float
    ell0: float
    ell_minus: float
    ell_plus: float
    n_plus: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if self.S < 2:
            raise ValueError("need at least 2 species")
        rng_len = 1.0 / self.gamma
        for small, big, names in (
            (self.ell0, self.ell_minus, "ell0 | ell_minus"),
            (self.ell_minus, rng_len, "ell_minus | 1/gamma"),
            (rng_len, self.ell_plus, "1/gamma | ell_plus"),
        ):
            ratio = big / small
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(f"divisibility violated: {names} (ratio {ratio})")

    @property
    def side(self) -> float:
        return self.n_plus * self.ell_plus

    @property
    def n_cubes(self) -> int:
        return self.n_plus**self.d

    @property
    def cells_per_axis(self) -> int:
        return int(round(self.side / self.ell_minus))

    @property
    def collar_cells(self) -> int:
        return int(math.ceil((1.0 / self.gamma) / self.ell_minus))

    @property
    def cell_volume(self) -> float:
        return self.ell_minus**self.d


@dataclass
class PhaseTarget:
    """Reference phase data: densities per species, tangent chemical
    potential, temperature, accuracy window, interpolation weight and the
    actual chemical potential used in the pair energy."""

    rho_ref: np.ndarray
    lambda_beta: float
    beta: float = 1.0
    zeta: float = 0.5
    t: float = 1.0
    lam: float | None = None

    def __post_init__(self):
        self.rho_ref = np.asarray(self.rho_ref, dtype=float)
        if self.lam is None:
            self.lam = self.lambda_beta
        if not 0 <= self.t <= 1:
            raise ValueError("t must lie in [0,1]")

    @property
    def neighbor_sum(self) -> np.ndarray:
        return self.rho_ref.sum() - self.rho_ref


def occupancy_window(phase: PhaseTarget, volume: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer accuracy window (n_lo, n_hi) per species for a cell of the
    given volume: the counts n with |n / volume - rho_ref| <= zeta."""
    n_lo = np.ceil(volume * (phase.rho_ref - phase.zeta) - 1e-9).astype(np.int64)
    n_hi = np.floor(volume * (phase.rho_ref + phase.zeta) + 1e-9).astype(np.int64)
    return np.maximum(n_lo, 0), n_hi


@dataclass(frozen=True)
class MoveKernel:
    """Per-move proposal mix; birth and death must be proposed with equal
    probability, flips pick a different species uniformly, displacements are
    uniform in a cube of half-width ``step``."""

    p_birth: float = 0.25
    p_death: float = 0.25
    p_move: float = 0.3
    p_flip: float = 0.2
    step: float = 0.5

    def __post_init__(self):
        total = self.p_birth + self.p_death + self.p_move + self.p_flip
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"move probabilities sum to {total}")
        if abs(self.p_birth - self.p_death) > 1e-12:
            raise ValueError("birth and death must be proposed symmetrically")


def pair_potential(r, r_prime, gamma: float, d: int | None = None) -> float:
    """Finite-range repulsion V(r, r') between unlike species: the two-step
    self-convolution of the scaled base profile, zero beyond 1/gamma."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rp = np.atleast_1d(np.asarray(r_prime, dtype=float))
    if d is None:
        d = len(r)
    pot = _potential_cache(gamma, d)
    return float(pot(np.linalg.norm(rp - r)))


_POTENTIALS: dict[tuple[float, int], PairPotential] = {}


def _potential_cache(gamma: float, d: int) -> PairPotential:
    key = (round(float(gamma), 12), int(d))
    if key not in _POTENTIALS:
        _POTENTIALS[key] = PairPotential(gamma, d)
    return _POTENTIALS[key]


def config_energy(positions, spins, lam: float, gamma: float) -> float:
    """Energy of a finite configuration: half the sum of unlike-species pair
    potentials minus lam times the particle count.  Quadratic scan; meant for
    small configurations and audits."""
    spins = np.asarray(spins, dtype=int)
    n = len(spins)
    if n == 0:
        return 0.0
    positions = np.asarray(positions, dtype=float).reshape(n, -1)
    pot = _potential_cache(gamma, positions.shape[1])
    total = 0.0
    for i in range(n):
        diff = positions[i + 1 :] - positions[i]
        dist = np.sqrt((diff**2).sum(axis=1))
        mask = spins[i + 1 :] != spins[i]
        total += float(np.sum(pot(dist) * mask))
    return total - lam * n


def reference_energy(spins, phase: PhaseTarget) -> float:
    """Linear reference energy: each particle contributes the interaction of
    its species with the phase's other-species densities minus the tangent
    chemical potential."""
    spins = np.asarray(spins, dtype=int)
    m = phase.neighbor_sum
    return float(np.sum(m[spins] - phase.lambda_beta))


def interpolated_energy(positions, spins, boundary_positions, boundary_spins,
                        phase: PhaseTarget, gamma: float) -> float:
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
    return phase.t * (h_full - h_bnd) + (1.0 - phase.t) * reference_energy(spins, phase)


# ---------------------------------------------------------------------------
# particle system and its cell index


class ParticleSystem:
    """Mobile particles in the box plus frozen boundary particles on the
    collar, filed by cell of the fine partition for O(1) neighborhoods.

    A cell is one flat index into the extended grid ``(n_ext,) * d`` in C
    order, with the origin at the collar corner.  Particle i sits in cell
    ``cell[i]``; row c of ``members`` lists the ids filed in cell c in filing
    order, of which the first ``fill[c]`` are valid.

    Only this module changes the particles: callers use ``add_particles``,
    ``add_boundary``, ``remove_particles`` and the Metropolis moves.
    """

    GROW = 256
    CAP = 8

    def __init__(self, region: SimRegion, phase: PhaseTarget, seed: int = 0):
        self.region = region
        self.phase = phase
        self.rng = np.random.default_rng(seed)
        d, S = region.d, region.S
        self.potential = _potential_cache(region.gamma, d)
        w = region.collar_cells
        self.w = w
        n_int = region.cells_per_axis
        self.n_int = n_int
        self.n_ext = n_int + 2 * w
        self._strides = tuple(self.n_ext ** (d - 1 - k) for k in range(d))
        cap = self.GROW
        self.pos = np.zeros((cap, d))
        self.spin = np.zeros(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.frozen = np.zeros(cap, dtype=bool)
        self.cell = np.zeros(cap, dtype=np.int64)
        self._free: list[int] = []
        self._n_used = 0
        n_cells = self.n_ext**d
        self.members = np.zeros((n_cells, self.CAP), dtype=np.int64)
        self.fill = np.zeros(n_cells, dtype=np.int64)
        self._counts = np.zeros((n_cells, S), dtype=np.int64)
        self.n_lo, self.n_hi = occupancy_window(phase, region.cell_volume)
        self._energy = 0.0  # running interpolated energy; NaN when unknown
        # flat offsets of the (2w+1)^d block around a cell, in np.ndindex order
        self._ball = (np.indices((2 * w + 1,) * d).reshape(d, -1).T - w) @ self._strides
        self.mobile_ids: list[int] = []
        self._mobile_slot: dict[int, int] = {}
        self.accepted = 0
        self.audit_every = 1000
        self.audit_log: list[float] = []

    @property
    def counts(self) -> np.ndarray:
        """Species counts of the interior cells, shape ``(n_int,)*d + (S,)``;
        a view, so writes reach the system.  Built on each access: a stored
        view would not stay tied to its base through ``copy.deepcopy``."""
        d, w = self.region.d, self.w
        grid = self._counts.reshape((self.n_ext,) * d + (self.region.S,))
        return grid[(slice(w, w + self.n_int),) * d]

    @property
    def energy(self) -> float:
        """Running interpolated energy H_t.  Accepted moves add their exact
        deltas; a bulk edit marks it unknown, and the next read recomputes it
        with ``total_energy``."""
        if math.isnan(self._energy):
            self._energy = self.total_energy()
        return self._energy

    @energy.setter
    def energy(self, value: float):
        self._energy = value

    @property
    def reference_counts(self) -> np.ndarray:
        """Per-species count of one cell at the reference densities, rounded
        and clipped into the accuracy window."""
        target = np.round(self.phase.rho_ref * self.region.cell_volume).astype(int)
        return np.clip(target, self.n_lo, self.n_hi)

    # -- geometry helpers

    def _cell_at(self, r) -> int:
        """Flat cell of the point r."""
        w, ell = self.w, self.region.ell_minus
        return sum((math.floor(x / ell) + w) * k for x, k in zip(r, self._strides))

    def _ext_cell(self, cell: tuple) -> int:
        """Flat cell of an interior-coordinate cell tuple."""
        return sum((c + self.w) * k for c, k in zip(cell, self._strides))

    def in_box(self, r) -> bool:
        L = self.region.side
        return all(0.0 <= x < L for x in r)

    def mobile_in(self, cells: set | frozenset) -> list:
        """Mobile ids whose interior cell is in the set ``cells``, in
        ``mobile_ids`` order (a move's ``pick`` indexes into this list)."""
        inner = np.asarray(list(cells), dtype=np.int64).reshape(-1, self.region.d)
        inner = inner[np.all((inner >= 0) & (inner < self.n_int), axis=1)]
        wanted = np.zeros(len(self.fill), dtype=bool)
        wanted[(inner + self.w) @ self._strides] = True
        ids = np.asarray(self.mobile_ids, dtype=np.int64)
        return ids[wanted[self.cell[ids]]].tolist()

    def cell_particles(self, cell: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(positions, spins) of all particles in the interior-coordinate
        cell, frozen ones included."""
        if not all(-self.w <= c < self.n_int + self.w for c in cell):
            return np.zeros((0, self.region.d)), np.zeros(0, dtype=np.int64)
        c = self._ext_cell(cell)
        ids = self.members[c, : self.fill[c]]
        return self.pos[ids], self.spin[ids]

    # -- storage

    def _new_slot(self) -> int:
        if self._free:
            return self._free.pop()
        if self._n_used == len(self.spin):
            grow = len(self.spin) + self.GROW
            self.pos = np.resize(self.pos, (grow, self.region.d))
            self.spin = np.resize(self.spin, grow)
            self.alive = np.resize(self.alive, grow)
            self.alive[self._n_used :] = False
            self.frozen = np.resize(self.frozen, grow)
            self.cell = np.resize(self.cell, grow)
        slot = self._n_used
        self._n_used += 1
        return slot

    def _file(self, i: int, c: int):
        """Append particle i to the row of cell c and count it there; a full
        member table doubles its row capacity."""
        n = self.fill[c]
        if n == self.members.shape[1]:
            self.members = np.concatenate([self.members, np.zeros_like(self.members)], axis=1)
        self.members[c, n] = i
        self.fill[c] = n + 1
        self.cell[i] = c
        self._counts[c, self.spin[i]] += 1

    def _unfile(self, i: int):
        """Take particle i out of its cell's row; the later entries shift
        down, so the row keeps its filing order."""
        c = self.cell[i]
        n = self.fill[c]
        row = self.members[c]
        k = row[:n].tolist().index(i)
        row[k : n - 1] = row[k + 1 : n]
        self.fill[c] = n - 1
        self._counts[c, self.spin[i]] -= 1

    def _respin(self, i: int, s: int):
        """Give particle i species s; it keeps its place in its cell's row."""
        c = self.cell[i]
        self._counts[c, self.spin[i]] -= 1
        self._counts[c, s] += 1
        self.spin[i] = s

    def _insert(self, r, s: int, frozen: bool) -> int:
        i = self._new_slot()
        self.pos[i] = r
        self.spin[i] = s
        self.alive[i] = True
        self.frozen[i] = frozen
        self._file(i, self._cell_at(r))
        if not frozen:
            self._mobile_slot[i] = len(self.mobile_ids)
            self.mobile_ids.append(i)
        return i

    def _remove(self, i: int):
        self._unfile(i)
        self.alive[i] = False
        self._free.append(i)
        slot = self._mobile_slot.pop(i)
        last = self.mobile_ids[-1]
        self.mobile_ids[slot] = last
        if last != i:
            self._mobile_slot[last] = slot
        self.mobile_ids.pop()

    def draw_uniform(self, cells, counts, rng) -> tuple[np.ndarray, np.ndarray]:
        """(positions, spins) of counts[s] particles of each species s at
        uniform positions in each interior-coordinate cell, cell by cell and
        species by species.  One ``rng.random((N, d))`` call, which draws the
        same values as one ``rng.random(d)`` per particle."""
        d, ell = self.region.d, self.region.ell_minus
        corners = np.asarray(cells, dtype=float).reshape(-1, d) * ell
        species = np.repeat(np.arange(len(counts)), counts)
        spin = np.tile(species, len(corners))
        pos = np.repeat(corners, len(species), axis=0) + rng.random((len(spin), d)) * ell
        return pos, spin

    def _add(self, pos, spins, frozen: bool):
        for r, s in zip(pos, spins):
            self._insert(r, int(s), frozen)
        self._energy = math.nan

    def add_boundary(self, positions, spins):
        """Freeze particles on the collar (positions outside the box but
        within the collar), in the given order."""
        pos = np.asarray(positions, dtype=float).reshape(-1, self.region.d)
        L, wlen = self.region.side, self.w * self.region.ell_minus
        if np.any(np.all((pos >= 0.0) & (pos < L), axis=1)):
            raise ValueError("boundary particle inside the box")
        if np.any((pos < -wlen) | (pos >= L + wlen)):
            raise ValueError("boundary particle beyond the collar")
        self._add(pos, spins, frozen=True)

    def add_particles(self, positions, spins):
        """Add mobile particles inside the box, in the given order."""
        pos = np.asarray(positions, dtype=float).reshape(-1, self.region.d)
        if not np.all((pos >= 0.0) & (pos < self.region.side)):
            raise ValueError("mobile particle outside the box")
        self._add(pos, spins, frozen=False)

    def remove_particles(self, ids):
        """Remove the mobile particles ``ids``, in the given order."""
        for i in ids:
            self._remove(i)
        self._energy = math.nan

    def seed_phase_configuration(self, rng=None):
        """Fill every interior cell with the reference counts of each species
        at uniform positions: a canonical in-window start."""
        d = self.region.d
        cells = np.indices((self.n_int,) * d).reshape(d, -1).T
        self.add_particles(*self.draw_uniform(cells, self.reference_counts, rng or self.rng))

    # -- energies

    def _pair_sum(self, r, s: int, c: int, skip: int | None = None) -> float:
        """Sum of V(|r - r_j|) over the particles j of species != s filed in
        the block of cells around cell c, in filing order."""
        block = c + self._ball
        filed = np.arange(self.members.shape[1]) < self.fill[block][:, None]
        ids = self.members[block][filed]
        if skip is not None:
            ids = ids[ids != skip]
        ids = ids[self.spin[ids] != s]
        if not len(ids):
            return 0.0
        diff = self.pos[ids] - np.asarray(r, dtype=float)
        dist = np.sqrt((diff**2).sum(axis=1))
        return float(np.sum(self.potential(dist)))

    def total_energy(self) -> float:
        """Recompute the interpolated energy of the mobile configuration
        given the frozen boundary, from scratch: every unlike-species pair
        within range that is not frozen-frozen, counted once."""
        phase = self.phase
        live = np.flatnonzero(self.alive[: self._n_used])
        pairs = cKDTree(self.pos[live]).query_pairs(self.potential.range, output_type="ndarray")
        i, j = live[pairs[:, 0]], live[pairs[:, 1]]
        keep = (self.spin[i] != self.spin[j]) & ~(self.frozen[i] & self.frozen[j])
        i, j = i[keep], j[keep]
        dist = np.sqrt(((self.pos[i] - self.pos[j]) ** 2).sum(axis=1))
        mobile_spins = self.spin[live[~self.frozen[live]]]
        h_pair = float(np.sum(self.potential(dist))) - phase.lam * len(mobile_spins)
        h_ref = float(np.sum(phase.neighbor_sum[mobile_spins] - phase.lambda_beta))
        return phase.t * h_pair + (1.0 - phase.t) * h_ref

    # -- window checks

    def _window_ok_after(self, deltas) -> bool:
        """deltas: (cell, species, +-1) triples, at most one per (cell,
        species); whether every changed count stays inside the window."""
        for c, s, dn in deltas:
            new = self._counts[c, s] + dn
            if new < self.n_lo[s] or new > self.n_hi[s]:
                return False
        return True

    def in_ensemble(self) -> bool:
        """Every interior cell's species counts inside the window."""
        return bool(
            np.all(self.counts >= self.n_lo) and np.all(self.counts <= self.n_hi)
        )


def empirical_density(system: ParticleSystem) -> np.ndarray:
    """Per-cell species densities of the interior, counts / cell volume."""
    return system.counts / system.region.cell_volume


def empirical_density_at(system: ParticleSystem, ell: float, r, s: int) -> float:
    """Density of species s in the ell-cell containing the point r, for any
    mesh ell (finer or coarser than the storage cells); counts particles
    directly, so it works for the sub-cell mesh as well."""
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


def phase_indicator(density_cell: np.ndarray, references: list[np.ndarray], zeta: float) -> int:
    """Index (1-based) of the reference vector within zeta of the cell
    density in every species, else 0.  With separated references at most one
    can match."""
    for k, ref in enumerate(references):
        if np.all(np.abs(density_cell - ref) <= zeta + 1e-12):
            return k + 1
    return 0


# ---------------------------------------------------------------------------
# Metropolis dynamics


def _default_active(system: ParticleSystem):
    return [tuple(c) for c in np.ndindex(*((system.n_int,) * system.region.d))]


def draw_move_uniforms(rng, d: int) -> tuple:
    """Fixed-size block of uniforms for one proposal: kind selector, index
    selector, a d-vector, a species selector and the acceptance uniform.
    Using a fixed layout keeps two chains sharing one stream aligned even
    when their move resolutions differ."""
    return (rng.random(), rng.random(), rng.random(d), rng.random(), rng.random())


def apply_move(system: ParticleSystem, kernel: MoveKernel, draws: tuple, active: list,
               active_set: frozenset, local_ids: list, volume: float) -> bool:
    """Resolve the uniform block ``draws`` into a proposal for this system
    and Metropolis-accept it with the block's last uniform; moves that would
    leave the accuracy window or the active region are rejected outright.
    Returns True when accepted."""
    region, phase = system.region, system.phase
    beta = phase.beta
    u, u_a, vec_b, u_c, u_accept = draws
    n_local = len(local_ids)

    def boltzmann(dh):
        return math.exp(max(min(-beta * dh, 700.0), -700.0))

    if u < kernel.p_birth:
        cell = active[int(u_a * len(active))]
        r = (np.asarray(cell, dtype=float) + vec_b) * region.ell_minus
        s = int(u_c * region.S)
        c = system._ext_cell(cell)
        if not system._window_ok_after([(c, s, +1)]):
            return False
        if phase.t > 0.0:
            dpair = system._pair_sum(r, s, c) - phase.lam
        else:
            dpair = 0.0
        dref = float(phase.neighbor_sum[s] - phase.lambda_beta)
        dh = phase.t * dpair + (1.0 - phase.t) * dref
        ratio = volume * region.S / (n_local + 1) * boltzmann(dh)
        if u_accept < ratio:
            local_ids.append(system._insert(r, s, frozen=False))
            system._energy += dh
            return True
        return False

    if not n_local:
        return False
    pick = int(u_a * n_local)
    i = local_ids[pick]
    u -= kernel.p_birth

    if u < kernel.p_death:
        s, c = int(system.spin[i]), system.cell[i]
        if not system._window_ok_after([(c, s, -1)]):
            return False
        if phase.t > 0.0:
            dpair = -(system._pair_sum(system.pos[i], s, c, skip=i) - phase.lam)
        else:
            dpair = 0.0
        dref = -float(phase.neighbor_sum[s] - phase.lambda_beta)
        dh = phase.t * dpair + (1.0 - phase.t) * dref
        ratio = n_local / (volume * region.S) * boltzmann(dh)
        if u_accept < ratio:
            system._remove(i)
            local_ids[pick] = local_ids[-1]
            local_ids.pop()
            system._energy += dh
            return True
        return False
    u -= kernel.p_death

    if u < kernel.p_move:
        r_old = system.pos[i].copy()
        r_new = r_old + (2.0 * vec_b - 1.0) * kernel.step
        if not system.in_box(r_new):
            return False
        cell_new = tuple(math.floor(x / region.ell_minus) for x in r_new)
        if cell_new not in active_set:
            return False
        s = int(system.spin[i])
        c_old, c_new = int(system.cell[i]), system._ext_cell(cell_new)
        if c_old != c_new and not system._window_ok_after([(c_old, s, -1), (c_new, s, +1)]):
            return False
        if phase.t > 0.0:
            e_old = system._pair_sum(r_old, s, c_old, skip=i)
            e_new = system._pair_sum(r_new, s, c_new, skip=i)
            dh = phase.t * (e_new - e_old)
        else:
            dh = 0.0
        if u_accept < boltzmann(dh):
            # refiled even within one cell: the particle moves to its row's end
            system._unfile(i)
            system.pos[i] = r_new
            system._file(i, c_new)
            system._energy += dh
            return True
        return False

    # flip
    s_old = int(system.spin[i])
    s_new = (s_old + 1 + int(u_c * (region.S - 1))) % region.S
    c = system.cell[i]
    if not system._window_ok_after([(c, s_old, -1), (c, s_new, +1)]):
        return False
    if phase.t > 0.0:
        r = system.pos[i]
        gain = system._pair_sum(r, s_new, c, skip=i)  # neighbors unlike s_new
        lose = system._pair_sum(r, s_old, c, skip=i)
        dpair = gain - lose
    else:
        dpair = 0.0
    dref = float(phase.neighbor_sum[s_new] - phase.neighbor_sum[s_old])
    dh = phase.t * dpair + (1.0 - phase.t) * dref
    if u_accept < boltzmann(dh):
        system._respin(i, s_new)
        system._energy += dh
        return True
    return False


def metropolis_sweep(system: ParticleSystem, kernel: MoveKernel, n_moves: int | None = None,
                     active: list | None = None, rng=None, audit: bool = True) -> int:
    """Run ``n_moves`` proposals (default: one per mobile particle) on the
    active cells; returns the number of accepted moves.  Every
    ``system.audit_every`` accepted moves the running energy is checked
    against a fresh recomputation and the drift is logged."""
    rng = rng or system.rng
    if active is None:
        active = _default_active(system)
    active_set = frozenset(active)
    local_ids = system.mobile_in(active_set)
    volume = len(active) * system.region.cell_volume
    if n_moves is None:
        n_moves = max(len(local_ids), 1)
    if audit:
        system.energy  # resolve an unknown energy now: audits measure drift from here
    accepted = 0
    for _ in range(n_moves):
        draws = draw_move_uniforms(rng, system.region.d)
        if apply_move(system, kernel, draws, active, active_set, local_ids, volume):
            accepted += 1
            system.accepted += 1
            if audit and system.accepted % system.audit_every == 0:
                fresh = system.total_energy()
                drift = abs(system._energy - fresh)
                system.audit_log.append(drift)
                if not drift <= 1e-7 * max(abs(fresh), 1.0):  # a NaN drift fails too
                    raise RuntimeError(f"energy drift {drift} exceeds tolerance")
                system._energy = fresh
    return accepted


def measure_observables(system: ParticleSystem, references: list | None = None,
                        balls: list | None = None) -> dict:
    """Snapshot: per-cell densities, the phase-indicator field (0 when no
    reference matches), and the boundary restriction to the requested balls
    (center, radius) intersected with the complement of the box."""
    dens = empirical_density(system)
    out = {"density": dens}
    if references is not None:
        eta = np.zeros(dens.shape[:-1], dtype=np.int64)
        for idx in np.ndindex(*dens.shape[:-1]):
            eta[idx] = phase_indicator(dens[idx], references, system.phase.zeta)
        out["eta"] = eta
    if balls is not None:
        restricted = []
        ids = np.where(system.alive & system.frozen)[0]
        for center, radius in balls:
            center = np.asarray(center, dtype=float)
            if len(ids):
                dist = np.sqrt(((system.pos[ids] - center) ** 2).sum(axis=1))
                sel = ids[dist <= radius]
            else:
                sel = np.array([], dtype=np.int64)
            restricted.append((system.pos[sel].copy(), system.spin[sel].copy()))
        out["balls"] = restricted
    return out


# ---------------------------------------------------------------------------
# exact occupancy law for the decoupled case


def save_trajectory(path, snapshots):
    """Flat binary record of density snapshots (one array per snapshot)."""
    arr = np.stack([np.asarray(s, dtype=float) for s in snapshots])
    np.save(path, arr)


def load_trajectory(path) -> np.ndarray:
    return np.load(path)


def trajectory_to_csv(fh, snapshots):
    """One row of flattened densities per snapshot, to an open text file."""
    arr = np.stack([np.asarray(s, dtype=float).reshape(-1) for s in snapshots])
    fh.write(",".join(f"cell{k}" for k in range(arr.shape[1])) + "\n")
    for row in arr:
        fh.write(",".join(repr(float(v)) for v in row) + "\n")


def poisson_window_weights(region: SimRegion, phase: PhaseTarget) -> dict:
    """Exact stationary law of the occupancy numbers of a single cell at
    t = 0: product over species of truncated Poisson weights with rate
    volume * exp(-beta (m_s - lambda_beta)), restricted to the window."""
    if phase.t != 0.0:
        raise ValueError("closed-form occupancy law requires t = 0")
    vol = region.cell_volume
    lo, hi = occupancy_window(phase, vol)
    weights: dict[tuple, float] = {}
    ranges = [range(lo[s], hi[s] + 1) for s in range(region.S)]
    import itertools

    for occ in itertools.product(*ranges):
        logw = 0.0
        for s, n in enumerate(occ):
            rate_exp = -phase.beta * (float(phase.neighbor_sum[s]) - phase.lambda_beta)
            logw += n * (math.log(vol) + rate_exp) - math.lgamma(n + 1)
        weights[occ] = math.exp(logw)
    total = sum(weights.values())
    return {occ: w / total for occ, w in weights.items()}
