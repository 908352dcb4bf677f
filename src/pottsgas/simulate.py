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

import copy
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .kernels import PairPotential

__all__ = [
    "SimRegion",
    "PhaseTarget",
    "MoveKernel",
    "ParticleSystem",
    "reference_energy",
    "empirical_density",
    "phase_indicator",
    "metropolis_sweep",
    "TwinRows",
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
    # (rho_ref bytes, sums) of the last neighbor_sum read; see there
    _neighbor_sum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rho_ref = np.asarray(self.rho_ref, dtype=float)
        if self.lam is None:
            self.lam = self.lambda_beta
        if not 0 <= self.t <= 1:
            raise ValueError("t must lie in [0,1]")

    @property
    def neighbor_sum(self) -> np.ndarray:
        """Per species, the summed reference density of the other species,
        read-only.  Built once per value of ``rho_ref``: the field is
        mutable, in place too, so a changed ``rho_ref`` rebuilds it on the
        next read."""
        key = self.rho_ref.tobytes()
        if self._neighbor_sum is None or self._neighbor_sum[0] != key:
            sums = self.rho_ref.sum() - self.rho_ref
            sums.flags.writeable = False
            self._neighbor_sum = (key, sums)
        return self._neighbor_sum[1]


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
        if min(self.p_birth, self.p_death, self.p_move, self.p_flip) < 0:
            raise ValueError("move probabilities must be nonnegative")
        total = self.p_birth + self.p_death + self.p_move + self.p_flip
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"move probabilities sum to {total}")
        if abs(self.p_birth - self.p_death) > 1e-12:
            raise ValueError("birth and death must be proposed symmetrically")
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"displacement step must be positive and finite, got {self.step}")


_POTENTIALS: dict[tuple[float, int], PairPotential] = {}
_STAMPS = itertools.count()  # ParticleSystem.stamp: one value per cell-index change
_PAIR_BLOCK_ELEMENTS = 1 << 16  # slot pairs per group of cells in total_energy


def _potential_cache(gamma: float, d: int) -> PairPotential:
    key = (round(float(gamma), 12), int(d))
    if key not in _POTENTIALS:
        _POTENTIALS[key] = PairPotential(gamma, d)
    return _POTENTIALS[key]


def reference_energy(spins, phase: PhaseTarget) -> float:
    """Linear reference energy: each particle contributes the interaction of
    its species with the phase's other-species densities minus the tangent
    chemical potential."""
    spins = np.asarray(spins, dtype=int)
    m = phase.neighbor_sum
    return float(np.sum(m[spins] - phase.lambda_beta))


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
    ``add_boundary``, ``remove_particles`` and the Metropolis moves.  Every
    change to the cell index draws a new ``stamp`` from one process-wide
    counter, so two systems with equal stamps (a system and its deepcopy)
    hold the same particles.
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
        self._slots = np.arange(self.CAP)  # column numbers of members
        self.fill = np.zeros(n_cells, dtype=np.int64)
        self._counts = np.zeros((n_cells, S), dtype=np.int64)
        self.n_lo, self.n_hi = occupancy_window(phase, region.cell_volume)
        self._window = (self.n_lo.tolist(), self.n_hi.tolist())  # read per proposal
        self._energy = 0.0  # running interpolated energy; NaN when unknown
        # flat offsets of the (2w+1)^d block around a cell, in np.ndindex order
        self._ball = (np.indices((2 * w + 1,) * d).reshape(d, -1).T - w) @ self._strides
        self.mobile_ids: list[int] = []
        self._mobile_slot: dict[int, int] = {}
        self.stamp = next(_STAMPS)
        self.accepted = 0
        self.audit_every = 1000
        self.audit_log: list[float] = []

    def __deepcopy__(self, memo):
        """An independent system with the same particles, stamp and random
        state.  Arrays, lists and dicts are copied whole (their items are
        numbers); region, phase and rng are deep-copied through ``memo``, so
        systems copied together still share one region; the process-cached
        pair potential is shared."""
        clone = memo[id(self)] = object.__new__(type(self))
        for name, value in vars(self).items():
            if isinstance(value, (np.ndarray, list, dict)):
                value = value.copy()
            elif name in ("region", "phase", "rng"):
                value = copy.deepcopy(value, memo)
            setattr(clone, name, value)
        return clone

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

    def _ext_cell(self, cell: tuple) -> int:
        """Flat cell of an interior-coordinate cell tuple."""
        return sum((c + self.w) * k for c, k in zip(cell, self._strides))

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
        c = self.flat_cell(cell)
        if c < 0:
            return np.zeros((0, self.region.d)), np.zeros(0, dtype=np.int64)
        ids = self.members[c, : self.fill[c]]
        return self.pos[ids], self.spin[ids]

    def flat_cell(self, cell: tuple) -> int:
        """Flat cell of an interior-coordinate cell tuple, -1 for a cell off
        the extended grid (which never holds a particle)."""
        if all(-self.w <= c < self.n_int + self.w for c in cell):
            return self._ext_cell(cell)
        return -1

    def flat_cells(self, cells) -> np.ndarray:
        """``flat_cell`` of each row of an array of cells, in one pass."""
        ext = np.asarray(cells, dtype=np.int64).reshape(-1, self.region.d) + self.w
        flat = ext @ self._strides
        flat[((ext < 0) | (ext >= self.n_ext)).any(axis=1)] = -1
        return flat

    def sorted_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, spins) of every extended cell's particles, one row
        per flat cell, sorted within the row by position and then spin; the
        rows are as wide as the fullest cell, positions padded with inf and
        spins with -1."""
        width = max(int(self.fill.max()), 1)
        ids = self.members[:, :width]
        filed = np.arange(width) < self.fill[:, None]
        pos = np.where(filed[..., None], self.pos[ids], np.inf)
        spin = np.where(filed, self.spin[ids], -1)
        order = np.lexsort((spin, *pos.transpose(2, 0, 1)[::-1]))
        return (np.take_along_axis(pos, order[..., None], axis=1),
                np.take_along_axis(spin, order, axis=1))

    def cell_counts(self) -> np.ndarray:
        """Species counts of every extended cell, shape ``(n_cells, S)``,
        read-only."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    # -- storage

    def _reserve(self, n_used: int):
        """Grow the particle arrays by whole ``GROW`` blocks until the first
        ``n_used`` slots fit."""
        cap = len(self.spin)
        if n_used <= cap:
            return
        grow = cap + self.GROW * -(-(n_used - cap) // self.GROW)
        self.pos = np.resize(self.pos, (grow, self.region.d))
        self.spin = np.resize(self.spin, grow)
        self.alive = np.resize(self.alive, grow)
        self.alive[cap:] = False
        self.frozen = np.resize(self.frozen, grow)
        self.cell = np.resize(self.cell, grow)

    def _new_slot(self) -> int:
        if self._free:
            return self._free.pop()
        self._reserve(self._n_used + 1)
        slot = self._n_used
        self._n_used += 1
        return slot

    def _widen(self):
        """Double the row capacity of the member table."""
        self.members = np.concatenate([self.members, np.zeros_like(self.members)], axis=1)
        self._slots = np.arange(self.members.shape[1])

    def _file(self, i: int, c: int):
        """Append particle i to the row of cell c and count it there; a full
        member table doubles its row capacity."""
        n = self.fill[c]
        if n == len(self._slots):
            self._widen()
        self.members[c, n] = i
        self.fill[c] = n + 1
        self.cell[i] = c
        self._counts[c, self.spin[i]] += 1
        self.stamp = next(_STAMPS)

    def _unfile(self, i: int):
        """Take particle i out of its cell's row; the later entries shift
        down, so the row keeps its filing order."""
        c = self.cell[i]
        n = self.fill[c]
        row = self.members[c]
        k = self._row_index(i)
        row[k : n - 1] = row[k + 1 : n]
        self.fill[c] = n - 1
        self._counts[c, self.spin[i]] -= 1
        self.stamp = next(_STAMPS)

    def _row_index(self, i: int) -> int:
        """Place of particle i in its cell's row."""
        c = self.cell[i]
        return self.members[c, : self.fill[c]].tolist().index(i)

    def _file_batch(self, ids: np.ndarray, cells: np.ndarray):
        """File particles ``ids`` into ``cells`` in one pass, as ``_file``
        one at a time in the given order would: each row takes its newcomers
        in that order, and a full member table doubles its row capacity."""
        order = np.argsort(cells, kind="stable")
        ranked = cells[order]
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(ids)) - np.searchsorted(ranked, ranked)
        col = self.fill[cells] + rank
        while col.max() >= len(self._slots):
            self._widen()
        self.members[cells, col] = ids
        self.fill += np.bincount(cells, minlength=len(self.fill))
        self.cell[ids] = cells
        np.add.at(self._counts, (cells, self.spin[ids]), 1)
        self.stamp = next(_STAMPS)

    def _unfile_batch(self, ids: np.ndarray):
        """Take particles ``ids`` out of their cells' rows in one pass; each
        row keeps the filing order of what stays."""
        cells = self.cell[ids]
        # the sorted distinct cells; np.unique would import numpy.ma on its
        # first call, 16 ms of a process's first removal
        rows = np.flatnonzero(np.bincount(cells))
        gone = np.zeros(len(self.spin), dtype=bool)
        gone[ids] = True
        sub = self.members[rows]
        keep = (np.arange(sub.shape[1]) < self.fill[rows][:, None]) & ~gone[sub]
        order = np.argsort(~keep, axis=1, kind="stable")
        self.members[rows] = np.take_along_axis(sub, order, axis=1)
        self.fill[rows] = keep.sum(axis=1)
        np.subtract.at(self._counts, (cells, self.spin[ids]), 1)
        self.stamp = next(_STAMPS)

    def _respin(self, i: int, s: int):
        """Give particle i species s; it keeps its place in its cell's row."""
        c = self.cell[i]
        self._counts[c, self.spin[i]] -= 1
        self._counts[c, s] += 1
        self.spin[i] = s
        self.stamp = next(_STAMPS)

    def _insert(self, r, s: int, c: int, frozen: bool) -> int:
        """File a new particle of species s at r into cell c, the cell of r."""
        i = self._new_slot()
        self.pos[i] = r
        self.spin[i] = s
        self.alive[i] = True
        self.frozen[i] = frozen
        self._file(i, c)
        if not frozen:
            self._mobile_slot[i] = len(self.mobile_ids)
            self.mobile_ids.append(i)
        return i

    def _remove(self, i: int):
        self._unfile(i)
        self.alive[i] = False
        self._free.append(i)
        self._drop_mobile(i)

    def _drop_mobile(self, i: int):
        """Swap-remove mobile id i: the last mobile id takes its slot."""
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
        """Insert a batch in one pass, as ``_insert`` one particle at a time
        would: slots from ``_free`` in pop order, then new ones, and mobile
        ids appended in the given order."""
        n = len(pos)
        self._energy = math.nan
        if not n:
            return
        k = min(n, len(self._free))
        reused = self._free[len(self._free) - k :][::-1]
        del self._free[len(self._free) - k :]
        start = self._n_used
        self._n_used += n - k
        self._reserve(self._n_used)
        ids = np.array(reused + list(range(start, self._n_used)), dtype=np.int64)
        self.pos[ids] = pos
        self.spin[ids] = np.asarray(spins, dtype=np.int64)
        self.alive[ids] = True
        self.frozen[ids] = frozen
        cells = (np.floor(pos / self.region.ell_minus).astype(np.int64) + self.w) @ self._strides
        self._file_batch(ids, cells)
        if not frozen:
            new = ids.tolist()
            self._mobile_slot.update(zip(new, itertools.count(len(self.mobile_ids))))
            self.mobile_ids.extend(new)

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
        """Remove the mobile particles ``ids`` in one pass; slots are freed
        and ``mobile_ids`` swap-removed in the given order."""
        ids = list(ids)
        self._energy = math.nan
        if not ids:
            return
        for i in ids:
            self._drop_mobile(i)
        self._free.extend(ids)
        idx = np.asarray(ids, dtype=np.int64)
        self.alive[idx] = False
        self._unfile_batch(idx)

    def seed_phase_configuration(self, rng=None):
        """Fill every interior cell with the reference counts of each species
        at uniform positions: a canonical in-window start."""
        d = self.region.d
        cells = np.indices((self.n_int,) * d).reshape(d, -1).T
        self.add_particles(*self.draw_uniform(cells, self.reference_counts, rng or self.rng))

    # -- energies

    def _pair_delta(self, changes, skip: int | None = None) -> float:
        """sum(sign * P(r, s, c)) over the particle changes ``(sign, r, s,
        c)`` in order, where P(r, s, c) sums V(|r - r_j|) over the particles
        j != skip of species != s filed in the block of cells around cell c,
        in filing order.  A block shared by consecutive changes is gathered
        once and V evaluated once per distinct point; each change's sum is a
        masked sum over that gather."""
        total = 0
        c_last = r_last = None
        for sign, r, s, c in changes:
            if c != c_last:
                block = c + self._ball
                ids = self.members[block][self._slots < self.fill[block][:, None]]
                if skip is not None:
                    ids = ids[ids != skip]
                pos, spin = self.pos[ids], self.spin[ids]
                c_last, r_last = c, None
            if r is not r_last:
                # column by column, left to right, as sum(axis=1) adds d <= 3 terms
                sq = (pos - r) ** 2
                dist2 = sq[:, 0]
                for k in range(1, len(r)):
                    dist2 = dist2 + sq[:, k]
                pot = self.potential(np.sqrt(dist2))
                r_last = r
            total += sign * float(pot[spin != s].sum())
        return total

    def twin_cells(self, other: ParticleSystem) -> np.ndarray:
        """Per extended cell, whether this system's and ``other``'s member
        rows hold equal positions and spins in the same filing order; one
        array pass over both member tables."""
        width = min(self.members.shape[1], other.members.shape[1])
        mine, theirs = self.members[:, :width], other.members[:, :width]
        equal = (self.spin[mine] == other.spin[theirs]) & (self.pos[mine] == other.pos[theirs]).all(axis=2)
        vacant = np.arange(width) >= self.fill[:, None]
        return (self.fill == other.fill) & (equal | vacant).all(axis=1)

    def total_energy(self) -> float:
        """Recompute the interpolated energy of the mobile configuration
        given the frozen boundary, from scratch: every unlike-species pair
        within range that is not frozen-frozen, counted once.

        Pairs come from the cell index: each cell with itself (slot pairs
        i < j) and with the cells at the offsets after 0 in the C-order
        block, so each unordered pair of cells is visited once.  An offset
        that wraps a grid row pairs two collar cells, whose particles are
        all frozen.  Cells are taken in groups of about
        ``_PAIR_BLOCK_ELEMENTS`` slot pairs.  The distances are sorted
        before V is evaluated: the sum then does not depend on the visiting
        order, and ``np.interp`` searches sorted input several times faster
        than unsorted."""
        phase = self.phase
        n_cells, width = len(self.fill), max(int(self.fill.max()), 1)
        half = self._ball[len(self._ball) // 2 :]
        ids = self.members[:, :width]
        slots = np.arange(width)
        # per slot: coordinates, species, and 2 mobile / 1 frozen / 0 vacant;
        # a pair counts when its species differ and its kinds add to 3 or
        # more.  Rows past the grid are vacant.
        rows = n_cells + int(half[-1])
        coords = np.zeros((self.region.d, rows, width))
        coords[:, :n_cells] = np.moveaxis(self.pos[ids], 2, 0)
        spin = np.zeros((rows, width), dtype=np.int64)
        spin[:n_cells] = self.spin[ids]
        kind = np.zeros((rows, width), dtype=np.int8)
        kind[:n_cells] = np.where(slots < self.fill[:, None], 2 - self.frozen[ids], 0)
        upper = slots[:, None] < slots
        range2 = self.potential.range**2
        step = max(1, _PAIR_BLOCK_ELEMENTS // (len(half) * width * width))
        dist2 = []
        for start in range(0, n_cells, step):
            a = np.arange(start, min(start + step, n_cells))
            b = a[:, None] + half
            # axes: cell a of the group, offset, slot in a, slot in b
            keep = ((spin[a][:, None, :, None] != spin[b][:, :, None, :])
                    & (kind[a][:, None, :, None] + kind[b][:, :, None, :] >= 3))
            keep[:, 0] &= upper
            d2 = sum((x[a][:, None, :, None] - x[b][:, :, None, :]) ** 2 for x in coords)
            dist2.append(d2[keep & (d2 <= range2)])
        dist = np.sqrt(np.sort(np.concatenate(dist2)))
        mobile_spins = self.spin[self.alive & ~self.frozen]
        h_pair = float(np.sum(self.potential(dist))) - phase.lam * len(mobile_spins)
        h_ref = float(np.sum(phase.neighbor_sum[mobile_spins] - phase.lambda_beta))
        return phase.t * h_pair + (1.0 - phase.t) * h_ref

    # -- window checks

    def _window_ok_after(self, changes) -> bool:
        """Whether every (cell, species) count that the particle changes
        ``(sign, r, species, cell)`` alter, net of one another, stays inside
        the window; a count they leave unchanged is not checked."""
        lo, hi = self._window
        if len(changes) == 1:
            sign, _, s, c = changes[0]
            return lo[s] <= self._counts[c, s] + sign <= hi[s]
        for _, _, s, c in changes:
            dn = sum(g for g, _, s2, c2 in changes if s2 == s and c2 == c)
            if dn and not lo[s] <= self._counts[c, s] + dn <= hi[s]:
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


def draw_move_uniforms(rng, n_moves: int, d: int) -> np.ndarray:
    """Uniforms for ``n_moves`` proposals, one row of ``d + 4`` each: kind
    selector, index selector, a d-vector, a species selector and the
    acceptance uniform.  The fixed layout keeps two chains sharing one
    stream aligned even when their move resolutions differ.  One block draws
    the same values as ``d + 4`` single draws per proposal."""
    return rng.random((n_moves, d + 4))


class Proposal(NamedTuple):
    """One row resolved for one system: its particle changes ``(sign, r,
    species, cell)``, a birth at sign +1 and a death at -1 (a flip or a
    displacement is one of each), its reference-energy change, its
    particle-count change, its proposal ratio, the particle it moves (None
    for a birth) and the edit that commits it."""

    changes: list
    dref: float
    dn: int
    ratio: float
    skip: int | None
    commit: Callable[[], None]


def _propose(system: ParticleSystem, kernel: MoveKernel, draws: np.ndarray, active: list,
             active_set: frozenset, local_ids: list, volume: float) -> Proposal | None:
    """Resolve one row ``draws`` of ``draw_move_uniforms`` into a proposal
    for this system; None for a move rejected outright (nothing to pick, or
    a displacement out of the box or the active cells)."""
    region, phase = system.region, system.phase
    u, u_a, *frac, u_c, _ = draws.tolist()
    n_local = len(local_ids)
    if u < kernel.p_birth:
        cell = active[int(u_a * len(active))]
        ell, side = region.ell_minus, region.side
        r = [(c + f) * ell for c, f in zip(cell, frac)]
        # for f near 1, c + f can round up to c + 1 (in the last cell, onto
        # the box's far face): step such a coordinate down until it lies in
        # the box and in its cell, as a displacement's box and cell tests see it
        for k, c in enumerate(cell):
            while r[k] >= side or math.floor(r[k] / ell) > c:
                r[k] = math.nextafter(r[k], 0.0)
        r = np.array(r)
        s = int(u_c * region.S)
        c = system._ext_cell(cell)

        def commit():
            local_ids.append(system._insert(r, s, c, frozen=False))
        return Proposal([(+1, r, s, c)],
                        float(phase.neighbor_sum[s] - phase.lambda_beta),
                        1, volume * region.S / (n_local + 1), None, commit)
    if not n_local:
        return None
    pick = int(u_a * n_local)
    i = local_ids[pick]
    r, s, c = system.pos[i], int(system.spin[i]), system.cell[i]
    u -= kernel.p_birth
    if u < kernel.p_death:
        def commit():
            system._remove(i)
            local_ids[pick] = local_ids[-1]
            local_ids.pop()
        return Proposal([(-1, r, s, c)], -float(phase.neighbor_sum[s] - phase.lambda_beta),
                        -1, n_local / (volume * region.S), i, commit)
    if u - kernel.p_death < kernel.p_move:
        r_new = r + (2.0 * draws[2:-2] - 1.0) * kernel.step
        xs, side = r_new.tolist(), region.side
        if not all(0.0 <= x < side for x in xs):
            return None
        cell_new = tuple(math.floor(x / region.ell_minus) for x in xs)
        if cell_new not in active_set:
            return None
        c_new = system._ext_cell(cell_new)

        def commit():
            # refiled even within one cell: the particle moves to its row's end
            system._unfile(i)
            system.pos[i] = r_new
            system._file(i, c_new)
        return Proposal([(+1, r_new, s, c_new), (-1, r, s, c)], 0.0, 0, 1.0, i, commit)
    s_new = (s + 1 + int(u_c * (region.S - 1))) % region.S

    def commit():
        system._respin(i, s_new)
    return Proposal([(+1, r, s_new, c), (-1, r, s, c)],
                    float(phase.neighbor_sum[s_new] - phase.neighbor_sum[s]), 0, 1.0, i, commit)


def _metropolis(system: ParticleSystem, move: Proposal | None,
                u_accept: float) -> tuple[bool, float]:
    """The tail every proposal takes: the window test, the pair sum and the
    accept test against ``u_accept``.  Returns (accepted, energy change),
    a rejection when ``move`` is None."""
    if move is None or not system._window_ok_after(move.changes):
        return False, 0.0
    phase = system.phase
    dpair = 0.0
    if phase.t > 0.0:
        dpair = system._pair_delta(move.changes, move.skip) - phase.lam * move.dn
    dh = phase.t * dpair + (1.0 - phase.t) * move.dref
    return u_accept < move.ratio * math.exp(max(min(-phase.beta * dh, 700.0), -700.0)), dh


class TwinRows:
    """Two chains driven by one stream of rows, as in
    ``coupling.crn_sweep``: which extended cells are *twin* (both chains'
    member rows hold equal positions and spins in the same filing order),
    and the first chain's proposal and decision on the current row.

    The second chain takes the first chain's decision and energy change
    when both resolve the row to the same changes, reference-energy change,
    count change and ratio, move a particle at the same place of its row,
    and every cell of each change's block is twin: its window test, pair
    sum and accept test would then see the first chain's operands in the
    same order.  A row on which both chains commit the same proposal keeps
    every flag; any other commit clears the flags of the cells it touches.
    Rows must alternate first chain, second chain.

    ``cells`` holds the flags; ``blocks`` marks the interior cells whose
    whole block is flagged, kept with them."""

    def __init__(self, first: ParticleSystem, second: ParticleSystem):
        self.first = first
        self._ball = first._ball
        same_law = (first.region == second.region and first.potential is second.potential
                    and (first.phase.t, first.phase.beta, first.phase.lam)
                    == (second.phase.t, second.phase.beta, second.phase.lam)
                    and np.array_equal(first.n_lo, second.n_lo)
                    and np.array_equal(first.n_hi, second.n_hi))
        self.cells = first.twin_cells(second) if same_law else np.zeros(len(first.fill), dtype=bool)
        d = first.region.d
        inner = (np.indices((first.n_int,) * d).reshape(d, -1).T + first.w) @ first._strides
        self.blocks = np.zeros_like(self.cells)
        self.blocks[inner] = self.cells[inner[:, None] + self._ball].all(axis=1)
        self.reused = 0  # rows on which the second chain took the first chain's decision
        # the first chain's (proposal, its changes' positions, its moved
        # particle's place in its row, decision), None after no proposal
        self._row = None

    @staticmethod
    def _place(system: ParticleSystem, move: Proposal) -> int | None:
        return None if move.skip is None else system._row_index(move.skip)

    def _matches(self, system: ParticleSystem, move: Proposal) -> bool:
        """Whether the second chain's proposal equals the first chain's
        field by field: the scalars, then each change, then the moved
        particle's place in its row."""
        first, coords, place, _ = self._row
        if (move.dref != first.dref or move.dn != first.dn or move.ratio != first.ratio
                or len(move.changes) != len(first.changes)):
            return False
        for (sign, r, s, c), (sign1, _, s1, c1), xs in zip(move.changes, first.changes, coords):
            if sign != sign1 or s != s1 or c != c1 or r.tolist() != xs:
                return False
        return self._place(system, move) == place

    def _clear(self, changes):
        """Clear the flags of the cells the changes touch, and with them the
        blocks that hold those cells."""
        for *_, c in changes:
            if self.cells[c]:
                self.cells[c] = False
                self.blocks.put(c + self._ball, False, mode="clip")

    def decide(self, system: ParticleSystem, move: Proposal | None,
               u_accept: float) -> tuple[bool, float]:
        """(accepted, energy change) of this chain's proposal on the
        current row (rejected when ``move`` is None), with the twin flags
        kept up to date after the second chain's decision."""
        if system is self.first:
            decision = _metropolis(system, move, u_accept)
            # read before the commit: a displacement's r is a view of pos[i]
            self._row = None if move is None else (
                move, [r.tolist() for _, r, _, _ in move.changes], self._place(system, move), decision)
            return decision
        first, *_, decision1 = self._row or (None, (False, 0.0))
        same = first is not None and move is not None and self._matches(system, move)
        if same and all(self.blocks[c] for *_, c in move.changes):
            decision = decision1
            self.reused += 1
        else:
            decision = _metropolis(system, move, u_accept)
        if not (same and decision[0] and decision1[0]):
            if decision1[0]:
                self._clear(first.changes)
            if decision[0]:
                self._clear(move.changes)
        return decision


def apply_move(system: ParticleSystem, kernel: MoveKernel, draws: np.ndarray, active: list,
               active_set: frozenset, local_ids: list, volume: float,
               twins: TwinRows | None = None) -> bool:
    """Resolve one row ``draws`` of ``draw_move_uniforms`` into a proposal
    for this system and Metropolis-accept it with the row's last uniform;
    moves that would leave the accuracy window or the active region are
    rejected outright.  Returns True when accepted.  ``twins`` is the
    pair's ``TwinRows`` when two chains share the rows: the second chain
    then takes over the first chain's decision where its operands agree."""
    move = _propose(system, kernel, draws, active, active_set, local_ids, volume)
    decide = _metropolis if twins is None else twins.decide
    accepted, dh = decide(system, move, float(draws[-1]))
    if accepted:
        move.commit()
        system._energy += dh
    return accepted


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
    for draws in draw_move_uniforms(rng, n_moves, system.region.d):
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
    for occ in itertools.product(*ranges):
        logw = 0.0
        for s, n in enumerate(occ):
            rate_exp = -phase.beta * (float(phase.neighbor_sum[s]) - phase.lambda_beta)
            logw += n * (math.log(vol) + rate_exp) - math.lgamma(n + 1)
        weights[occ] = math.exp(logw)
    total = sum(weights.values())
    return {occ: w / total for occ, w in weights.items()}
