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

    def lam_offset_window(self, gamma: float, c: float = 1.0) -> tuple[float, float]:
        """(|lam - lambda_beta|, c sqrt(gamma)): the offset and the window it
        is expected to stay in for small gamma."""
        return abs(self.lam - self.lambda_beta), c * math.sqrt(gamma)


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
# particle system with cell lists


class ParticleSystem:
    """Mobile particles in the box plus frozen boundary particles on the
    collar, indexed by cells of the fine partition for O(1) neighborhoods."""

    GROW = 256

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
        cap = self.GROW
        self.pos = np.zeros((cap, d))
        self.spin = np.zeros(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.frozen = np.zeros(cap, dtype=bool)
        self.cell_of: list = [None] * cap  # python int tuples, hot path
        self._free: list[int] = []
        self._n_used = 0
        self.cells: dict[tuple, list] = {}
        self.counts = np.zeros((n_int,) * d + (S,), dtype=np.int64)
        self.n_lo, self.n_hi = occupancy_window(phase, region.cell_volume)
        self.energy = 0.0  # running interpolated energy
        self._offsets = [
            tuple(int(v) - w for v in o) for o in np.ndindex(*((2 * w + 1,) * d))
        ]
        self.mobile_ids: list[int] = []
        self._mobile_slot: dict[int, int] = {}
        self.accepted = 0
        self.audit_every = 1000
        self.audit_log: list[float] = []

    # -- geometry helpers

    def _cell_index(self, r) -> tuple:
        # cells indexed over the extended domain, origin at the collar corner
        w, ell = self.w, self.region.ell_minus
        return tuple(int(math.floor(x / ell)) + w for x in r)

    def _interior_cell(self, cell: tuple) -> tuple | None:
        w, n = self.w, self.n_int
        out = tuple(c - w for c in cell)
        if all(0 <= c < n for c in out):
            return out
        return None

    def in_box(self, r) -> bool:
        L = self.region.side
        return all(0.0 <= x < L for x in r)

    def mobile_in(self, cells: set | frozenset) -> list:
        """Mobile ids whose interior cell is in the set ``cells``, in
        ``mobile_ids`` order (a move's ``pick`` indexes into this list)."""
        w = self.w
        return [i for i in self.mobile_ids if tuple(c - w for c in self.cell_of[i]) in cells]

    def cell_particles(self, cell: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(positions, spins) of all particles in the interior-coordinate
        cell, frozen ones included."""
        ids = self.cells.get(tuple(c + self.w for c in cell))
        if not ids:
            return np.zeros((0, self.region.d)), np.zeros(0, dtype=np.int64)
        idx = np.asarray(ids, dtype=np.int64)
        return self.pos[idx], self.spin[idx]

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
            self.cell_of.extend([None] * self.GROW)
        slot = self._n_used
        self._n_used += 1
        return slot

    def _insert(self, r, s: int, frozen: bool) -> int:
        i = self._new_slot()
        self.pos[i] = r
        self.spin[i] = s
        self.alive[i] = True
        self.frozen[i] = frozen
        cell = self._cell_index(r)
        self.cell_of[i] = cell
        self.cells.setdefault(cell, []).append(i)
        interior = self._interior_cell(cell)
        if interior is not None:
            self.counts[interior + (s,)] += 1
        if not frozen:
            self._mobile_slot[i] = len(self.mobile_ids)
            self.mobile_ids.append(i)
        return i

    def _remove(self, i: int):
        cell = self.cell_of[i]
        self.cells[cell].remove(i)
        interior = self._interior_cell(cell)
        if interior is not None:
            self.counts[interior + (int(self.spin[i]),)] -= 1
        self.alive[i] = False
        self._free.append(i)
        slot = self._mobile_slot.pop(i)
        last = self.mobile_ids[-1]
        self.mobile_ids[slot] = last
        if last != i:
            self._mobile_slot[last] = slot
        self.mobile_ids.pop()

    def add_boundary(self, positions, spins):
        """Freeze particles on the collar (positions outside the box but
        within the collar)."""
        L, wlen = self.region.side, self.w * self.region.ell_minus
        for r, s in zip(np.atleast_2d(positions), spins):
            if self.in_box(r):
                raise ValueError("boundary particle inside the box")
            if any(x < -wlen or x >= L + wlen for x in r):
                raise ValueError("boundary particle beyond the collar")
            self._insert(np.asarray(r, dtype=float), int(s), frozen=True)

    def add_particles(self, positions, spins):
        for r, s in zip(np.atleast_2d(positions), spins):
            if not self.in_box(r):
                raise ValueError("mobile particle outside the box")
            self._insert(np.asarray(r, dtype=float), int(s), frozen=False)
        self.energy = self.total_energy()

    def seed_phase_configuration(self, rng=None):
        """Fill every interior cell with round(rho_ref * volume) particles of
        each species at uniform positions: a canonical in-window start."""
        rng = rng or self.rng
        ell = self.region.ell_minus
        vol = self.region.cell_volume
        target = np.clip(np.round(self.phase.rho_ref * vol).astype(int), self.n_lo, self.n_hi)
        for cell in np.ndindex(*((self.n_int,) * self.region.d)):
            base = (np.array(cell)) * ell
            for s in range(self.region.S):
                for _ in range(target[s]):
                    r = base + rng.uniform(0, ell, size=self.region.d)
                    self._insert(r, s, frozen=False)
        self.energy = self.total_energy()

    # -- energies

    def _neighbor_ids(self, cell: tuple, skip: int | None = None) -> list:
        ids = []
        for off in self._offsets:
            key = tuple(cell[k] + off[k] for k in range(self.region.d))
            got = self.cells.get(key)
            if got:
                ids.extend(got)
        if skip is not None and skip in ids:
            ids.remove(skip)
        return ids

    def _pair_sum(self, r, s: int, cell: tuple, skip: int | None = None,
                  same_species: bool = False) -> float:
        """Sum of V(|r - r_j|) over neighbors with species != s (or == s)."""
        ids = self._neighbor_ids(cell, skip)
        if not ids:
            return 0.0
        idx = np.asarray(ids, dtype=np.int64)
        spins = self.spin[idx]
        mask = spins == s if same_species else spins != s
        if not mask.any():
            return 0.0
        diff = self.pos[idx[mask]] - np.asarray(r, dtype=float)
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
        """deltas: list of (interior_cell, species, +-1); None entries are
        ignored (cells outside the box have no window)."""
        adjust: dict[tuple, int] = {}
        for cell, s, dn in deltas:
            if cell is None:
                return False  # moves must stay inside the box
            key = cell + (s,)
            adjust[key] = adjust.get(key, 0) + dn
        for key, dn in adjust.items():
            s = key[-1]
            new = self.counts[key] + dn
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


def build_move(system: ParticleSystem, kernel: MoveKernel, draws: tuple,
               active: list, local_ids: list) -> dict | None:
    """Resolve a uniform block into a concrete proposal for this system."""
    region = system.region
    ell = region.ell_minus
    u_kind, u_a, vec_b, u_c, _ = draws
    u = u_kind
    if u < kernel.p_birth:
        cell = active[int(u_a * len(active))]
        r = (np.asarray(cell, dtype=float) + vec_b) * ell
        s = int(u_c * region.S)
        return {"kind": "birth", "r": r, "s": s, "cell": cell}
    u -= kernel.p_birth
    if u < kernel.p_death:
        if not local_ids:
            return None
        return {"kind": "death", "pick": int(u_a * len(local_ids))}
    u -= kernel.p_death
    if u < kernel.p_move:
        if not local_ids:
            return None
        jump = (2.0 * vec_b - 1.0) * kernel.step
        return {"kind": "move", "pick": int(u_a * len(local_ids)), "jump": jump}
    if not local_ids:
        return None
    shift = 1 + int(u_c * (region.S - 1))
    return {"kind": "flip", "pick": int(u_a * len(local_ids)), "shift": shift}


def apply_move(system: ParticleSystem, move: dict, u_accept: float,
               active_set: frozenset, local_ids: list, volume: float) -> bool:
    """Metropolis-accept the proposal with the shared uniform ``u_accept``;
    moves that would leave the accuracy window or the active region are
    rejected outright.  Returns True when accepted."""
    region, phase = system.region, system.phase
    beta = phase.beta
    kind = move["kind"]
    n_local = len(local_ids)

    def boltzmann(dh):
        return math.exp(max(min(-beta * dh, 700.0), -700.0))

    if kind == "birth":
        r, s, cell = move["r"], move["s"], move["cell"]
        if not system._window_ok_after([(cell, s, +1)]):
            return False
        if phase.t > 0.0:
            ext_cell = tuple(c + system.w for c in cell)
            dpair = system._pair_sum(r, s, ext_cell) - phase.lam
        else:
            dpair = 0.0
        dref = float(phase.neighbor_sum[s] - phase.lambda_beta)
        dh = phase.t * dpair + (1.0 - phase.t) * dref
        ratio = volume * region.S / (n_local + 1) * boltzmann(dh)
        if u_accept < ratio:
            system._insert(r, s, frozen=False)
            local_ids.append(system.mobile_ids[-1])
            system.energy += dh
            return True
        return False

    pick = move["pick"]
    if pick >= n_local:
        return False
    i = local_ids[pick]

    if kind == "death":
        s = int(system.spin[i])
        cell_ext = system.cell_of[i]
        cell = system._interior_cell(cell_ext)
        if not system._window_ok_after([(cell, s, -1)]):
            return False
        if phase.t > 0.0:
            dpair = -(system._pair_sum(system.pos[i], s, cell_ext, skip=i) - phase.lam)
        else:
            dpair = 0.0
        dref = -float(phase.neighbor_sum[s] - phase.lambda_beta)
        dh = phase.t * dpair + (1.0 - phase.t) * dref
        ratio = n_local / (volume * region.S) * boltzmann(dh)
        if u_accept < ratio:
            system._remove(i)
            local_ids[pick] = local_ids[-1]
            local_ids.pop()
            system.energy += dh
            return True
        return False

    if kind == "move":
        r_old = system.pos[i].copy()
        r_new = r_old + move["jump"]
        if not system.in_box(r_new):
            return False
        cell_old_ext = system.cell_of[i]
        cell_new_ext = system._cell_index(r_new)
        cell_old = system._interior_cell(cell_old_ext)
        cell_new = system._interior_cell(cell_new_ext)
        if cell_new not in active_set:
            return False
        s = int(system.spin[i])
        deltas = []
        if cell_old != cell_new:
            deltas = [(cell_old, s, -1), (cell_new, s, +1)]
            if not system._window_ok_after(deltas):
                return False
        if phase.t > 0.0:
            e_old = system._pair_sum(r_old, s, cell_old_ext, skip=i)
            e_new = system._pair_sum(r_new, s, cell_new_ext, skip=i)
            dh = phase.t * (e_new - e_old)
        else:
            dh = 0.0
        if u_accept < boltzmann(dh):
            system.cells[cell_old_ext].remove(i)
            system.cells.setdefault(cell_new_ext, []).append(i)
            system.cell_of[i] = cell_new_ext
            system.pos[i] = r_new
            if cell_old != cell_new:
                system.counts[cell_old + (s,)] -= 1
                system.counts[cell_new + (s,)] += 1
            system.energy += dh
            return True
        return False

    # flip
    s_old = int(system.spin[i])
    s_new = (s_old + move["shift"]) % region.S
    cell_ext = system.cell_of[i]
    cell = system._interior_cell(cell_ext)
    if not system._window_ok_after([(cell, s_old, -1), (cell, s_new, +1)]):
        return False
    if phase.t > 0.0:
        r = system.pos[i]
        gain = system._pair_sum(r, s_new, cell_ext, skip=i)  # neighbors unlike s_new
        lose = system._pair_sum(r, s_old, cell_ext, skip=i)
        dpair = gain - lose
    else:
        dpair = 0.0
    dref = float(phase.neighbor_sum[s_new] - phase.neighbor_sum[s_old])
    dh = phase.t * dpair + (1.0 - phase.t) * dref
    if u_accept < boltzmann(dh):
        system.spin[i] = s_new
        system.counts[cell + (s_old,)] -= 1
        system.counts[cell + (s_new,)] += 1
        system.energy += dh
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
    accepted = 0
    for _ in range(n_moves):
        draws = draw_move_uniforms(rng, system.region.d)
        move = build_move(system, kernel, draws, active, local_ids)
        if move is None:
            continue
        if apply_move(system, move, draws[-1], active_set, local_ids, volume):
            accepted += 1
            system.accepted += 1
            if audit and system.accepted % system.audit_every == 0:
                fresh = system.total_energy()
                drift = abs(system.energy - fresh)
                system.audit_log.append(drift)
                if drift > 1e-7 * max(abs(fresh), 1.0):
                    raise RuntimeError(f"energy drift {drift} exceeds tolerance")
                system.energy = fresh
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


def trajectory_to_csv(path, snapshots):
    arr = np.stack([np.asarray(s, dtype=float).reshape(-1) for s in snapshots])
    with open(path, "w") as fh:
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
