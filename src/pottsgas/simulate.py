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
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import PairPotential
from .meanfield import PhaseTarget

__all__ = [
    "SimRegion",
    "PhaseTarget",
    "MoveKernel",
    "ParticleSystem",
    "reference_energy",
    "empirical_density",
    "phase_indicator",
    "metropolis_sweep",
    "RowContext",
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
    def cells_per_axis(self) -> int:
        return int(round(self.side / self.ell_minus))

    @property
    def collar_cells(self) -> int:
        return int(math.ceil((1.0 / self.gamma) / self.ell_minus))

    @property
    def cell_volume(self) -> float:
        return self.ell_minus**self.d


def occupancy_window(phase: PhaseTarget, volume: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer accuracy window (n_lo, n_hi) per species for a cell of the
    given volume: the counts n with |n / volume - rho_ref| <= zeta.  Raises
    ValueError if a species' window holds no count."""
    n_lo = np.maximum(np.ceil(volume * (phase.rho_ref - phase.zeta) - 1e-9).astype(np.int64), 0)
    n_hi = np.floor(volume * (phase.rho_ref + phase.zeta) + 1e-9).astype(np.int64)
    empty = np.flatnonzero(n_lo > n_hi)
    if len(empty):
        s = int(empty[0])
        raise ValueError(f"species {s} has an empty accuracy window [n_lo, n_hi] = "
                         f"[{n_lo[s]}, {n_hi[s]}] in a cell of volume {volume}")
    return n_lo, n_hi


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


_STAMPS = itertools.count()  # ParticleSystem.stamp: one value per cell-index change
_PAIR_BLOCK_ELEMENTS = 1 << 16  # most slot pairs per group of cell pairs in total_energy
_SUBCELLS = 4  # subcells per cell axis in the pair-energy bound's count table
_AUDIT_PIECE = 1 << 12  # distances per V call in total_energy
_AUDIT_ARRAYS: dict[str, np.ndarray] = {}  # total_energy's work arrays, by name
_potential = functools.lru_cache(maxsize=None)(PairPotential)  # one per (gamma, d), gamma exact


def _audit_array(name: str, shape: tuple, dtype, kept: int = 0) -> np.ndarray:
    """The first prod(shape) entries of ``total_energy``'s flat work array
    ``name``, in ``shape``.  A too-small array is replaced by one a quarter
    larger than asked, its first ``kept`` entries copied over; none shrinks.
    The headroom spares a regrowth per small rise of a chain's pair count
    (190 audited ``sample`` blocks: 8 growths, against 22 without it), and
    its untouched entries take no resident memory."""
    size = math.prod(shape)
    buf = _AUDIT_ARRAYS.get(name)
    if buf is None or len(buf) < size:
        grown = np.empty(size + size // 4, dtype)
        if kept:
            grown[:kept] = buf[:kept]
        buf = _AUDIT_ARRAYS[name] = grown
    return buf[:size].reshape(shape)


def _cell_index(x: float, h: float) -> int:
    """The cell of side h holding the coordinate x, on the cell grid (h =
    ``ell_minus``) and the subcell grid (h = ``ell_minus / _SUBCELLS``)."""
    return math.floor(x / h)


def _cell_indices(pos: np.ndarray, h: float) -> np.ndarray:
    """``_cell_index`` of every entry of ``pos``, as int64, in one pass."""
    return np.floor(pos / h).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _block_offsets(side: int, d: int) -> np.ndarray:
    """The cells of the block ``(side,) * d`` at the origin in C order (row
    k is flat cell k of the block), read-only: every caller shares it."""
    out = np.stack(np.unravel_index(np.arange(side**d), (side,) * d), axis=1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _extent(region: SimRegion) -> tuple[int, int, tuple[int, ...]]:
    """(w, n_ext, strides): the collar's width in cells, the cells per axis
    of the extended grid (the box with a collar on each side) and its
    C-order strides."""
    w = region.collar_cells
    n_ext = region.cells_per_axis + 2 * w
    return w, n_ext, tuple(n_ext ** (region.d - 1 - k) for k in range(region.d))


def _flat_cells(region: SimRegion, cells) -> np.ndarray:
    """The flat extended cell of each row of an array of interior-coordinate
    cells of the region (see ``ParticleSystem``), -1 off the extended grid."""
    w, n_ext, strides = _extent(region)
    ext = np.asarray(cells, dtype=np.int64).reshape(-1, region.d) + w
    flat = ext @ strides
    flat[((ext < 0) | (ext >= n_ext)).any(axis=1)] = -1
    return flat


@functools.lru_cache(maxsize=None)
def _cell_table(region: SimRegion) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the region's extended grid in C order (row k is flat
    cell k), as read-only extended coordinates, and a read-only mask of the
    interior ones."""
    w, n_ext, _ = _extent(region)
    cells = _block_offsets(n_ext, region.d)
    inner = ((cells >= w) & (cells < n_ext - w)).all(axis=1)
    inner.flags.writeable = False  # shared by every system of the region
    return cells, inner


@functools.lru_cache(maxsize=None)
def _audit_pairs(region: SimRegion) -> tuple[np.ndarray, int]:
    """The cell pairs that ``ParticleSystem.total_energy`` visits on the
    region's extended grid, built once per region: a ``(2, P)`` array of
    flat cells and the number of pairs at its start that pair a cell with
    itself.

    A pair is a cell and the cell at one offset of the half block, the
    offsets from 0 on in C order, so each unordered pair of cells comes
    once; pairs of two collar cells are left out, since a collar cell holds
    frozen particles only and frozen pairs carry no energy.  An interior
    cell's block stays on the grid, so no pair kept wraps a grid row."""
    w, n_ext, strides = _extent(region)
    cells, inner = _cell_table(region)
    block = _block_offsets(2 * w + 1, region.d) - w
    pairs = []
    for delta in block[len(block) // 2 :]:
        other = cells + delta
        a = np.flatnonzero(((other >= 0) & (other < n_ext)).all(axis=1))
        b = other[a] @ strides
        pair = inner[a] | inner[b]
        pairs.append(np.stack((a[pair], b[pair])))
    table = np.concatenate(pairs, axis=1)
    table.flags.writeable = False  # shared by every system of the region
    return table, pairs[0].shape[1]


def _audit_groups(widths: np.ndarray):
    """``(start, stop, width)`` of each group of ``total_energy``'s cell
    pairs, given their slot widths in increasing order: consecutive pairs,
    each group padded to its last (widest) pair and holding at most
    ``_PAIR_BLOCK_ELEMENTS`` slot pairs, or one cell pair that alone holds
    more.  Pairs of width 0 hold no slot pair and are left out."""
    start, n = int(np.searchsorted(widths, 1)), len(widths)
    while start < n:
        # slot pairs of the group from start to each pair after it: increasing
        size = np.arange(1, n - start + 1) * widths[start:] ** 2
        stop = start + max(1, int(np.searchsorted(size, _PAIR_BLOCK_ELEMENTS, side="right")))
        yield start, stop, int(widths[stop - 1])
        start = stop


class _SubcellGrid:
    """The grid of the pair-energy bound, one per region (``_subcell_grid``):
    ``_SUBCELLS`` subcells per cell axis over the extended grid plus two
    padding subcells on each side, one flat index per subcell in C order,
    and the bound's weights.

    A point x lies in subcell ``_cell_index(x, h)``, h = ell / _SUBCELLS.
    ``offsets`` are the flat offsets from a subcell to every subcell within
    range of it, and ``weights[k]`` bounds V over every distance at or beyond
    the closest distance between the two subcells, shrunk by a relative 1e-9:
    the shrink covers a point that rounding in the floor files one subcell
    over, and the closest distance's own rounding.  A point of the box, even
    one that rounding files a subcell over, lies at least the stencil's reach
    inside the padded grid, so ``index(r) + offsets`` stays on it."""

    PAD = 2

    def __init__(self, region: SimRegion):
        d, K = region.d, _SUBCELLS
        w, n_ext, _ = _extent(region)
        self.h = h = region.ell_minus / K
        side = K * n_ext + 2 * self.PAD
        self.size = side**d
        self.strides = tuple(side ** (d - 1 - k) for k in range(d))
        self.origin = (K * w + self.PAD) * sum(self.strides)
        # w cells span the range, so subcells K w + 2 or more apart along an
        # axis are beyond it
        reach = K * w + 1
        delta = _block_offsets(2 * reach + 1, d) - reach
        gap = np.maximum(np.abs(delta) - 1, 0) * h
        potential = _potential(region.gamma, d)
        weights = potential.tail_max(np.sqrt((gap**2).sum(axis=1)) * (1.0 - 1e-9))
        within = weights > 0.0
        self.offsets = delta[within] @ self.strides
        self.weights = weights[within]
        self.offsets.flags.writeable = self.weights.flags.writeable = False  # shared per geometry

    def index(self, xs) -> int:
        """Flat subcell of the point with coordinates ``xs`` (a list)."""
        flat = self.origin
        for x, k in zip(xs, self.strides):
            flat += _cell_index(x, self.h) * k
        return flat

    def indices(self, pos: np.ndarray) -> np.ndarray:
        """``index`` of each row of ``pos``, in one pass."""
        return _cell_indices(pos, self.h) @ self.strides + self.origin


_subcell_grid = functools.lru_cache(maxsize=None)(_SubcellGrid)  # one per region


def reference_energy(spins, phase: PhaseTarget) -> float:
    """Linear reference energy: each particle contributes the interaction of
    its species with the phase's other-species densities minus the tangent
    chemical potential."""
    return float(np.sum(phase.neighbor_sum[np.asarray(spins, dtype=int)] - phase.lambda_beta))


# ---------------------------------------------------------------------------
# particle system and its cell index


class ParticleSystem:
    """Mobile particles in the box plus frozen boundary particles on the
    collar, filed by cell of the fine partition for O(1) neighborhoods.

    A cell is one flat index into the extended grid ``(n_ext,) * d`` in C
    order, with the origin at the collar corner.  A point x is counted in
    cell ``floor(x / ell_minus)`` per axis; a point drawn for cell c, by a
    birth, ``draw_uniform`` or screening's default perturbation, is counted
    in c (see ``place``).  Particle i sits in cell
    ``cell[i]``; row c of ``members`` lists the ids filed in cell c in filing
    order in its first ``fill[c]`` entries, and -1 in the rest.  Index -1 is
    the *sentinel*, the last slot of the particle arrays: position 0,
    species S, never alive and never handed out, so a gather over whole
    rows reads vacant entries as particles of no species.

    Only this module changes the particles: callers use ``add_particles``,
    ``add_boundary``, ``remove_particles`` and the Metropolis moves.  Every
    change to the cell index draws a new ``stamp`` from one process-wide
    counter, so two systems with equal stamps (a system and its deepcopy)
    hold the same particles; the cells it changed take the same value in
    ``cell_stamps``, so two systems with equal stamps on a cell hold the
    same particles there.
    """

    GROW = 256
    CAP = 8

    def __init__(self, region: SimRegion, phase: PhaseTarget, seed: int = 0):
        self._region = region
        self._phase = phase
        self.rng = np.random.default_rng(seed)
        d, S = region.d, region.S
        self.potential = _potential(region.gamma, d)
        self.w, self.n_ext, self._strides = _extent(region)
        self.n_int = region.cells_per_axis
        self.grid = _cell_table(region)  # (extended cells, interior mask)
        cap = self.GROW
        self.pos = np.zeros((cap, d))
        self.spin = np.zeros(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.frozen = np.zeros(cap, dtype=bool)
        self.cell = np.zeros(cap, dtype=np.int64)
        # per particle, its flat subcell of _subgrid, kept while _subcounts lives
        self._subcell = np.zeros(cap, dtype=np.int64)
        self._free: list[int] = []
        self._n_used = 0
        n_cells = self.n_ext**d
        self._mark_sentinel()
        self.members = np.full((n_cells, self.CAP), -1, dtype=np.int64)
        self.fill = np.zeros(n_cells, dtype=np.int64)
        self._counts = np.zeros((n_cells, S), dtype=np.int64)
        # _unlike[s, s2]: whether a particle of species s2 interacts with one
        # of species s; column S, the sentinel's species, is all False
        self._unlike = np.arange(S)[:, None] != np.arange(S + 1)
        self._unlike[:, S] = False
        self.n_lo, self.n_hi = occupancy_window(phase, region.cell_volume)
        self.n_lo.flags.writeable = self.n_hi.flags.writeable = False  # as _window is fixed
        self._window = (tuple(self.n_lo.tolist()), tuple(self.n_hi.tolist()))  # read per proposal
        self._energy = 0.0  # running interpolated energy; NaN when unknown
        # per subcell of _subgrid, per species, the particles filed there;
        # kept only while the pair-energy bound can fire (see _decide)
        self._subcounts: np.ndarray | None = None
        self._subgrid: _SubcellGrid | None = None
        # flat offsets of the (2w+1)^d block around a cell, in np.ndindex order
        self._ball = (_block_offsets(2 * self.w + 1, d) - self.w) @ self._strides
        self.mobile_ids: list[int] = []
        self._mobile_slot: dict[int, int] = {}
        self.stamp = next(_STAMPS)
        self.cell_stamps = np.full(n_cells, self.stamp, dtype=np.int64)
        self.accepted = 0
        self.audit_every = 1000
        self.audit_log: list[float] = []

    def __deepcopy__(self, memo):
        """An independent system with the same particles, stamps and random
        state.  Arrays (read-only ones stay read-only), lists and dicts are
        copied whole (their items are numbers) and rng is deep-copied
        through ``memo``; the region, the phase, the process-cached pair
        potential, the cell table and the window's tuples are values, shared."""
        clone = memo[id(self)] = object.__new__(type(self))
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value, writeable = value.copy(), value.flags.writeable
                value.flags.writeable = writeable
            elif isinstance(value, (list, dict)):
                value = value.copy()
            elif name == "rng":
                value = copy.deepcopy(value, memo)
            setattr(clone, name, value)
        return clone

    @property
    def region(self) -> SimRegion:
        """The region sampled, fixed when the system is built: the cell
        grid, the window and the strides are derived from it."""
        return self._region

    @property
    def phase(self) -> PhaseTarget:
        """The phase sampled, fixed when the system is built, as its region is."""
        return self._phase

    @property
    def counts(self) -> np.ndarray:
        """Species counts of the interior cells, shape ``(n_int,)*d + (S,)``;
        a read-only view.  Built on each access: a stored view would not
        stay tied to its base through ``copy.deepcopy``."""
        d, w = self.region.d, self.w
        grid = self._counts.reshape((self.n_ext,) * d + (self.region.S,))
        out = grid[(slice(w, w + self.n_int),) * d]
        out.flags.writeable = False
        return out

    @property
    def energy(self) -> float:
        """Running interpolated energy H_t.  Accepted moves add their exact
        deltas; a bulk edit marks it unknown, and the next read recomputes it
        with ``total_energy``."""
        if math.isnan(self._energy):
            self.energy = self.total_energy()
        return self._energy

    @energy.setter
    def energy(self, value: float):
        self._energy = value
        if not math.isnan(value):
            self._subcounts = None  # the bound fires only on an unknown energy

    def _energy_unknown(self, ids: np.ndarray, sign: int):
        """Mark the running energy unknown after a bulk edit that filed
        (``sign`` +1) or unfiled (-1) the particles ``ids``.  At t > 0 the
        pair-energy bound can then fire, so the subcell table and the filed
        particles' stored subcells are brought up to date, or the table is
        counted from scratch if there is none."""
        self._energy = math.nan
        if self._subcounts is not None:
            if sign > 0:
                self._subcell[ids] = self._subgrid.indices(self.pos[ids])
            np.add.at(self._subcounts, (self._subcell[ids], self.spin[ids]), sign)
        elif self.phase.t > 0.0:
            self._subgrid = _subcell_grid(self.region)
            live = np.flatnonzero(self.alive[: self._n_used])
            self._subcell[live] = self._subgrid.indices(self.pos[live])
            flat = self._subcell[live] * self.region.S + self.spin[live]
            table = np.bincount(flat, minlength=self._subgrid.size * self.region.S)
            self._subcounts = table.reshape(-1, self.region.S).astype(float)

    @property
    def reference_counts(self) -> np.ndarray:
        """Per-species count of one cell at the reference densities, rounded
        and clipped into the accuracy window."""
        target = np.round(self.phase.rho_ref * self.region.cell_volume).astype(int)
        return np.clip(target, self.n_lo, self.n_hi)

    # -- geometry helpers

    def place(self, xs: list, cell) -> list:
        """The list ``xs``, a point drawn for the interior-coordinate cell,
        with each coordinate moved in place to the nearest float filed in
        its cell and, on a cell of the box, below the box's far face."""
        ell, side, n = self._region.ell_minus, self._region.side, self.n_int
        for k, c in enumerate(cell):
            while _cell_index(xs[k], ell) > c or (xs[k] >= side and c < n):
                xs[k] = math.nextafter(xs[k], -math.inf)
            while _cell_index(xs[k], ell) < c:
                xs[k] = math.nextafter(xs[k], math.inf)
        return xs

    def mobile_in(self, cells) -> list:
        """Mobile ids whose interior cell is in the collection ``cells``, in
        ``mobile_ids`` order (a move's ``pick`` indexes into this list)."""
        wanted = np.zeros(len(self.fill), dtype=bool)
        # collar cells, and -1, hold no mobile id
        wanted[_flat_cells(self.region, list(cells))] = True
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
            return sum((c + self.w) * k for c, k in zip(cell, self._strides))
        return -1

    def sorted_cells(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions, spins) of the particles of the extended cells of the
        flat indices ``rows``, one row per cell, sorted within the row by
        position and then spin; the rows are as wide as the fullest of these
        cells, positions padded with inf and spins with -1."""
        fill = self.fill[rows]
        width = max(int(fill.max(initial=0)), 1)
        ids = self.members[rows, :width]
        filed = np.arange(width) < fill[:, None]
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

    def _mark_sentinel(self):
        """Make the last slot the sentinel that vacant member entries read."""
        self.pos[-1] = 0.0
        self.spin[-1] = self.region.S
        self.alive[-1] = self.frozen[-1] = False

    def _reserve(self, n_used: int):
        """Grow the particle arrays by whole ``GROW`` blocks until the first
        ``n_used`` slots fit before the sentinel, and mark the new last slot
        as the sentinel."""
        cap = len(self.spin)
        if n_used < cap:
            return
        grow = cap + self.GROW * -(-(n_used + 1 - cap) // self.GROW)
        self.pos = np.resize(self.pos, (grow, self.region.d))
        self.spin = np.resize(self.spin, grow)
        self.alive = np.resize(self.alive, grow)
        self.alive[cap:] = False
        self.frozen = np.resize(self.frozen, grow)
        self.cell = np.resize(self.cell, grow)
        self._subcell = np.resize(self._subcell, grow)
        self._mark_sentinel()

    def _new_slot(self) -> int:
        if self._free:
            return self._free.pop()
        self._reserve(self._n_used + 1)
        slot = self._n_used
        self._n_used += 1
        return slot

    def _widen(self):
        """Double the row capacity of the member table."""
        self.members = np.concatenate([self.members, np.full_like(self.members, -1)], axis=1)

    def _file(self, i: int, c: int, sub: int | None = None):
        """Append particle i to the row of cell c and count it there; a full
        member table doubles its row capacity.  While the subcell table
        lives, i is filed in subcell ``sub`` too, worked out from its
        position when None."""
        n = self.fill[c]
        if n == self.members.shape[1]:
            self._widen()
        self.members[c, n] = i
        self.fill[c] = n + 1
        self.cell[i] = c
        self._counts[c, self.spin[i]] += 1
        if self._subcounts is not None:
            if sub is None:
                sub = self._subgrid.index(self.pos[i].tolist())
            self._subcell[i] = sub
            self._subcounts[sub, self.spin[i]] += 1
        self.stamp = self.cell_stamps[c] = next(_STAMPS)

    def _unfile(self, i: int):
        """Take particle i out of its cell's row; the later entries shift
        down, so the row keeps its filing order."""
        c = self.cell[i]
        n = self.fill[c]
        row = self.members[c]
        k = row[:n].tolist().index(i)
        row[k : n - 1] = row[k + 1 : n]
        row[n - 1] = -1
        self.fill[c] = n - 1
        self._counts[c, self.spin[i]] -= 1
        if self._subcounts is not None:
            self._subcounts[self._subcell[i], self.spin[i]] -= 1
        self.stamp = self.cell_stamps[c] = next(_STAMPS)

    def _refile(self, i: int, sub: int | None = None):
        """Refile particle i in its own cell after it moved within it, as
        ``_unfile`` then ``_file`` would: it goes to the end of its row,
        whose other entries keep their order, its cell's fill and counts
        stay, and one stamp is drawn.  While the subcell table lives, i
        moves to subcell ``sub`` (see ``_file``)."""
        c = self.cell[i]
        n = self.fill[c]
        row = self.members[c]
        k = row[:n].tolist().index(i)
        row[k : n - 1] = row[k + 1 : n]
        row[n - 1] = i
        if self._subcounts is not None:
            if sub is None:
                sub = self._subgrid.index(self.pos[i].tolist())
            self._subcounts[self._subcell[i], self.spin[i]] -= 1
            self._subcell[i] = sub
            self._subcounts[sub, self.spin[i]] += 1
        self.stamp = self.cell_stamps[c] = next(_STAMPS)

    def _file_batch(self, ids: np.ndarray, cells: np.ndarray):
        """File particles ``ids`` into ``cells`` in one pass, as ``_file``
        one at a time in the given order would: each row takes its newcomers
        in that order, and a full member table doubles its row capacity."""
        order = np.argsort(cells, kind="stable")
        ranked = cells[order]
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(ids)) - np.searchsorted(ranked, ranked)
        col = self.fill[cells] + rank
        while col.max() >= self.members.shape[1]:
            self._widen()
        self.members[cells, col] = ids
        self.fill += np.bincount(cells, minlength=len(self.fill))
        self.cell[ids] = cells
        np.add.at(self._counts, (cells, self.spin[ids]), 1)
        self.stamp = self.cell_stamps[cells] = next(_STAMPS)

    def _unfile_batch(self, ids: np.ndarray):
        """Take particles ``ids`` out of their cells' rows in one pass; each
        row keeps the filing order of what stays, and -1 after it."""
        cells = self.cell[ids]
        # the sorted distinct cells; np.unique would import numpy.ma on its
        # first call, 16 ms of a process's first removal
        rows = np.flatnonzero(np.bincount(cells))
        gone = np.zeros(len(self.spin), dtype=bool)
        gone[ids] = True
        sub = self.members[rows]
        keep = (np.arange(sub.shape[1]) < self.fill[rows][:, None]) & ~gone[sub]
        order = np.argsort(~keep, axis=1, kind="stable")
        fill = keep.sum(axis=1)
        sub = np.take_along_axis(sub, order, axis=1)
        sub[np.arange(sub.shape[1]) >= fill[:, None]] = -1
        self.members[rows] = sub
        self.fill[rows] = fill
        np.subtract.at(self._counts, (cells, self.spin[ids]), 1)
        self.stamp = self.cell_stamps[rows] = next(_STAMPS)

    def _respin(self, i: int, s: int):
        """Give particle i species s; it keeps its place in its cell's row."""
        c = self.cell[i]
        self._counts[c, self.spin[i]] -= 1
        self._counts[c, s] += 1
        if self._subcounts is not None:
            row = self._subcounts[self._subcell[i]]
            row[self.spin[i]] -= 1
            row[s] += 1
        self.spin[i] = s
        self.stamp = self.cell_stamps[c] = next(_STAMPS)

    def _insert(self, r, s: int, c: int, frozen: bool, sub: int | None = None) -> int:
        """File a new particle of species s at r into cell c, the cell of r,
        and into subcell ``sub`` (see ``_file``)."""
        i = self._new_slot()
        self.pos[i] = r
        self.spin[i] = s
        self.alive[i] = True
        self.frozen[i] = frozen
        self._file(i, c, sub)
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
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, d)
        species = np.repeat(np.arange(len(counts)), counts)
        spin = np.tile(species, len(cells))
        cells = np.repeat(cells, len(species), axis=0)
        pos = cells * ell + rng.random((len(spin), d)) * ell
        out = (_cell_indices(pos, ell) != cells) | ((pos >= self.region.side) & (cells < self.n_int))
        for i in np.flatnonzero(out.any(axis=1)).tolist():
            pos[i] = self.place(pos[i].tolist(), cells[i].tolist())
        return pos, spin

    def _add(self, pos, spins, frozen: bool, cells: np.ndarray):
        """Insert a batch in one pass, as ``_insert`` one particle at a time
        would: slots from ``_free`` in pop order, then new ones, and mobile
        ids appended in the given order, filed in the interior-coordinate ``cells``."""
        n = len(pos)
        if not n:  # no edit: a known energy stays known
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
        self._file_batch(ids, _flat_cells(self.region, cells))
        if not frozen:
            new = ids.tolist()
            self._mobile_slot.update(zip(new, itertools.count(len(self.mobile_ids))))
            self.mobile_ids.extend(new)
        self._energy_unknown(ids, +1)

    def add_boundary(self, positions, spins):
        """Freeze particles on the collar (positions outside the box but
        within the collar), in the given order.  A position whose cell
        rounds onto the interior counts as inside, so every frozen particle
        sits on a collar cell."""
        pos = np.asarray(positions, dtype=float).reshape(-1, self.region.d)
        L, wlen = self.region.side, self.w * self.region.ell_minus
        if not np.all((pos >= -wlen) & (pos < L + wlen)):  # NaN too
            raise ValueError("boundary particle beyond the collar")
        cells = _cell_indices(pos, self.region.ell_minus)
        if np.any(np.all((pos >= 0.0) & ((pos < L) | (cells < self.n_int)), axis=1)):
            raise ValueError("boundary particle inside the box")
        self._add(pos, spins, True, cells)

    def add_particles(self, positions, spins):
        """Add mobile particles inside the box, in the given order.  A
        position whose cell rounds onto the collar counts as outside, so
        every mobile particle sits on an interior cell."""
        pos = np.asarray(positions, dtype=float).reshape(-1, self.region.d)
        cells = _cell_indices(pos, self.region.ell_minus)
        if not np.all((pos >= 0.0) & (pos < self.region.side) & (cells < self.n_int)):
            raise ValueError("mobile particle outside the box")
        self._add(pos, spins, False, cells)

    def remove_particles(self, ids):
        """Remove the mobile particles ``ids`` in one pass; slots are freed
        and ``mobile_ids`` swap-removed in the given order.  A repeated id
        or one of no live mobile particle raises ``ValueError`` first."""
        idx = np.asarray(list(ids), dtype=np.int64)
        listed = idx.tolist()
        if len(set(listed)) < len(listed) or not all(i in self._mobile_slot for i in listed):
            raise ValueError("remove_particles takes distinct ids of live mobile particles")
        if not listed:  # no edit: a known energy stays known
            return
        for i in listed:
            self._drop_mobile(i)
        self._free.extend(listed)
        self.alive[idx] = False
        self._unfile_batch(idx)
        self._energy_unknown(idx, -1)

    def seed_phase_configuration(self, rng=None):
        """Fill every interior cell with the reference counts of each species
        at uniform positions: a canonical in-window start."""
        self.add_particles(*self.draw_uniform(_default_active(self), self.reference_counts, rng or self.rng))

    # -- energies

    def _pair_delta(self, changes, skip: int | None = None) -> float:
        """sum(sign * P(r, s, c)) over the particle changes ``(sign, r, s,
        c)`` in order, where P(r, s, c) sums V(|r - r_j|) over the particles
        j != skip of species != s filed in the block of cells around cell c,
        in filing order.  A block shared by consecutive changes is gathered
        once, whole member rows with their vacant entries on the sentinel,
        and squared distances are taken once per distinct point; each
        change evaluates V on the entries it sums, picked by one lookup in
        ``_unlike``.  That lookup drops the sentinel and, for a change of
        skip's own species, skip too; only a change of another species
        (a flip's +1 change) masks skip by id.

        Two changes of one species in one cell, a displacement within its
        cell, sum the same entries: they take one pass, the kept positions
        measured against both points at once and one row of V per change,
        each row reduced as its own 1-D sum would be."""
        total = 0
        c_last = r_last = None
        skip_spin = None if skip is None else self.spin[skip]
        if len(changes) == 2:
            (g, r, s, c), (g2, r2, s2, c2) = changes
            # skip, if any, is of their species: the lookup alone drops it
            if s == s2 and c == c2 and (skip is None or s == skip_spin):
                ids = self.members.take(c + self._ball, axis=0).ravel()
                near = self.pos.take(ids[self._unlike[s].take(self.spin.take(ids))], axis=0).T
                # axes: point, coordinate, kept particle; C order runs the
                # inner loops along the particles
                sq = np.square(np.subtract(near, np.array((r, r2))[..., None], order="C"))
                dist2 = sq[:, 0]
                for k in range(1, len(r)):
                    dist2 = np.add(dist2, sq[:, k])
                rows = np.add.reduce(self.potential(np.sqrt(dist2)), axis=1).tolist()
                return total + g * rows[0] + g2 * rows[1]  # from 0, in order, as below
        for sign, r, s, c in changes:
            if c != c_last:
                ids = self.members.take(c + self._ball, axis=0).ravel()
                pos, spin = self.pos.take(ids, axis=0), self.spin.take(ids)
                c_last, r_last = c, None
            if r is not r_last:
                # column by column, left to right, as sum(axis=1) adds d <= 3 terms
                sq = np.square(np.subtract(pos, r))
                dist2 = sq[:, 0]
                for k in range(1, len(r)):
                    dist2 = np.add(dist2, sq[:, k])
                r_last = r
            keep = self._unlike[s].take(spin)
            if skip_spin is not None and s != skip_spin:
                keep &= ids != skip
            total += sign * float(np.add.reduce(self.potential(np.sqrt(dist2[keep]))))
        return total

    def _pair_bound(self, r, s: int, sub: int | None = None) -> float:
        """An upper bound on the pair sum P(r, s, c) of ``_pair_delta``
        from the subcell table: per subcell within range of r's subcell
        ``sub`` (worked out from r when None), its count of particles of
        species other than s times its weight (see ``_SubcellGrid``)."""
        grid = self._subgrid
        if sub is None:
            sub = grid.index(r.tolist())
        rows = self._subcounts.take(sub + grid.offsets, axis=0)
        near = np.dot(grid.weights, rows).tolist()  # per species
        return sum(near) - near[s]

    def twin_cells(self, other: ParticleSystem) -> np.ndarray:
        """Per extended cell, whether this system's and ``other``'s member
        rows hold equal positions and spins in the same filing order; one
        array pass over both member tables.  Past equal fills both rows
        read the sentinel, which compares equal."""
        width = min(self.members.shape[1], other.members.shape[1])
        mine, theirs = self.members[:, :width], other.members[:, :width]
        equal = (self.spin[mine] == other.spin[theirs]) & (self.pos[mine] == other.pos[theirs]).all(axis=2)
        return (self.fill == other.fill) & equal.all(axis=1)

    def total_energy(self) -> float:
        """Recompute the interpolated energy of the mobile configuration
        given the frozen boundary, from scratch: every unlike-species pair
        within range that is not frozen-frozen, counted once.

        Pairs come from the cell index, over the cell pairs of
        ``_audit_pairs``: each interior cell with itself (slot pairs i < j),
        and each cell with the cells at the offsets after 0 in the C-order
        block where one of the two is interior.  Mobile particles sit on
        interior cells only (see ``add_particles``) and frozen ones on the
        collar only (see ``add_boundary``), so those pairs hold every pair
        with a mobile particle and none without.  A vacant slot takes an
        infinite coordinate, which the range test drops.

        The self pairs and the cross pairs are each ordered by the fill of
        the fuller cell, pairs with an empty cell left out, and cut into
        groups of at most ``_PAIR_BLOCK_ELEMENTS`` slot pairs
        (``_audit_groups``); each group is padded to its own fullest cell,
        not the system's, and only self groups take the i < j mask.  The
        distances are sorted before V is evaluated: the sum then does not
        depend on the grouping or the visiting order, and ``np.interp``
        searches sorted input several times faster than unsorted.

        A group's masks and squared distances are written into the module's
        work arrays (``_audit_array``), and its kept distances are gathered
        into one more in one ``np.compress``.  The n gathered distances are
        sorted, square-rooted and overwritten by V in place,
        ``_AUDIT_PIECE`` at a time, and only those n entries are summed.
        Once the arrays have grown, an audit's temporaries are the slot
        tables, the gathers and each compress's indices and staged output,
        about 0.3 MiB traced on the criterion-11 chain, so no allocation
        made elsewhere decides how many page faults an audit takes.  The
        work arrays are shared: calls must not run concurrently in one
        process."""
        phase = self.phase
        fill = self.fill
        top = max(int(fill.max()), 1)
        pairs, n_self = _audit_pairs(self.region)
        ids = self.members[:, :top]
        slots = np.arange(top)
        vacant = slots >= fill[:, None]
        # per cell and slot: one contiguous table per axis, and species
        coords = [self.pos[:, k].take(ids) for k in range(self.region.d)]
        for x in coords:
            x[vacant] = np.inf
        spin = self.spin.take(ids)
        upper = slots[:, None] < slots
        range2 = self.potential.range**2
        # per cell pair, the slots its group must span: 0 where a cell is empty
        fa, fb = fill[pairs]
        widths = np.where(np.minimum(fa, fb) > 0, np.maximum(fa, fb), 0)
        n = 0  # distances gathered so far
        dist = _audit_array("dist", (0,), float)
        with np.errstate(invalid="ignore"):  # two vacant slots: inf - inf
            for lo, hi in ((0, n_self), (n_self, pairs.shape[1])):
                order = lo + np.argsort(widths[lo:hi], kind="stable")
                for start, stop, w in _audit_groups(widths[order]):
                    a, b = pairs[:, order[start:stop]]
                    # axes: cell pair of the group, slot in a, slot in b
                    shape = (len(a), w, w)
                    keep = _audit_array("keep", shape, bool)
                    test = _audit_array("test", shape, bool)
                    np.not_equal(spin[a, :w][:, :, None], spin[b, :w][:, None, :], out=keep)
                    if lo == 0:  # a cell with itself
                        keep &= upper[:w, :w]
                    d2 = _audit_array("d2", shape, float)
                    for k, x in enumerate(coords):
                        sq = _audit_array("sq", shape, float) if k else d2
                        np.subtract(x[a, :w][:, :, None], x[b, :w][:, None, :], out=sq)
                        np.multiply(sq, sq, out=sq)
                        if k:
                            np.add(d2, sq, out=d2)
                    np.bitwise_and(keep, np.less_equal(d2, range2, out=test), out=keep)
                    m = int(np.count_nonzero(keep))
                    dist = _audit_array("dist", (n + m,), float, kept=n)
                    np.compress(keep.reshape(-1), d2.reshape(-1), out=dist[n:])
                    n += m
        dist.sort()  # its n entries: the last group sized it to n
        np.sqrt(dist, out=dist)
        for i in range(0, n, _AUDIT_PIECE):
            dist[i : i + _AUDIT_PIECE] = self.potential(dist[i : i + _AUDIT_PIECE])
        mobile_spins = self.spin[self.alive & ~self.frozen]
        h_pair = float(np.sum(dist)) - phase.mu * len(mobile_spins)
        h_ref = float(np.sum(phase.neighbor_sum[mobile_spins] - phase.lambda_beta))
        return phase.t * h_pair + (1.0 - phase.t) * h_ref

    # -- window checks

    def _window_ok_after(self, changes) -> bool:
        """Whether every (cell, species) count that the one or two particle
        changes ``(sign, r, species, cell)`` of a proposal alter, net of one
        another, stays inside the window; a count they leave unchanged is
        not checked.  An insertion or a deletion is one change, a flip or a
        displacement two."""
        lo, hi = self._window
        if len(changes) == 1:
            sign, _, s, c = changes[0]
            return lo[s] <= self._counts[c, s] + sign <= hi[s]
        (g, _, s, c), (g2, _, s2, c2) = changes
        if s == s2 and c == c2:
            return not g + g2 or lo[s] <= self._counts[c, s] + g + g2 <= hi[s]
        return (lo[s] <= self._counts[c, s] + g <= hi[s]
                and lo[s2] <= self._counts[c2, s2] + g2 <= hi[s2])

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
    cells, inner = system.grid
    return list(map(tuple, (cells[inner] - system.w).tolist()))


def draw_move_uniforms(rng, n_moves: int, d: int) -> np.ndarray:
    """Uniforms for ``n_moves`` proposals, one row of ``d + 4`` each: kind
    selector, index selector, a d-vector, a species selector and the
    acceptance uniform.  The fixed layout keeps two chains sharing one
    stream aligned even when their move resolutions differ.  One block draws
    the same values as ``d + 4`` single draws per proposal."""
    return rng.random((n_moves, d + 4))


class RowContext:
    """What every row of one sweep of one chain reads, worked out once per
    sweep: the active cells in their order (a birth picks one by index),
    a dict from each active cell to its flat extended cell (a displacement's
    membership test and cell lookup at once), the active volume, and per
    species pair the reference-energy change: a birth of species s adds
    ``dref[s][s]`` and a death takes it away, a flip from s to s2 adds
    ``dref[s][s2]``.  An active cell off the interior raises ValueError: a
    birth there would put a mobile particle on the collar."""

    __slots__ = ("active", "flat", "volume", "dref")

    def __init__(self, system: ParticleSystem, active: list):
        flat = _flat_cells(system.region, active)
        if not system.grid[1][flat].all():  # -1, off the grid, reads a collar cell
            raise ValueError("active cells must be interior cells")
        phase, S = system.phase, system.region.S
        m = phase.neighbor_sum
        self.active = active
        self.flat = dict(zip(active, flat.tolist()))
        self.volume = len(active) * system.region.cell_volume
        self.dref = [[float(m[s] - phase.lambda_beta) if s == s2 else float(m[s2] - m[s])
                      for s2 in range(S)] for s in range(S)]


class Proposal(NamedTuple):
    """One row resolved into a move: its particle changes ``(sign, r,
    species, cell)``, a birth at sign +1 and a death at -1 (a flip or a
    displacement is one of each, the +1 change first), the flat subcell of
    its +1 change (None for a death, or where the proposing chain keeps no
    subcell table), its reference-energy change, its particle-count change,
    its proposal ratio, the index into the local ids of the particle it
    moves (None for a birth) and its edit, ``commit(system, local_ids,
    local_ids[pick])``.  It holds copies of what it read, so any chain whose
    local ids list equal particles may commit it."""

    changes: list
    sub: int | None
    dref: float
    dn: int
    ratio: float
    pick: int | None
    commit: Callable[[ParticleSystem, list, int | None], None]


def _propose(system: ParticleSystem, kernel: MoveKernel, draws, rows: RowContext,
             local_ids: list) -> Proposal | None:
    """Resolve one row ``draws`` of ``draw_move_uniforms``, as floats, into
    a proposal for this system; None for a move rejected outright (nothing
    to pick, or a displacement out of the box or the active cells)."""
    region = system.region
    u, u_a, *frac, u_c, _ = draws
    n_local = len(local_ids)
    grid = None if system._subcounts is None else system._subgrid
    if u < kernel.p_birth:
        active = rows.active
        cell = active[int(u_a * len(active))]
        ell = region.ell_minus
        r = system.place([(c + f) * ell for c, f in zip(cell, frac)], cell)
        sub = None if grid is None else grid.index(r)
        r = np.array(r)
        s = int(u_c * region.S)
        c = rows.flat[cell]

        def commit(system, local_ids, i):
            local_ids.append(system._insert(r, s, c, frozen=False, sub=sub))
        return Proposal([(+1, r, s, c)], sub, rows.dref[s][s],
                        1, rows.volume * region.S / (n_local + 1), None, commit)
    if not n_local:
        return None
    pick = int(u_a * n_local)
    i = local_ids[pick]
    r, s, c = system.pos[i].copy(), int(system.spin[i]), system.cell[i]
    u -= kernel.p_birth
    if u < kernel.p_death:
        def commit(system, local_ids, i):
            system._remove(i)
            local_ids[pick] = local_ids[-1]
            local_ids.pop()
        return Proposal([(-1, r, s, c)], None, -rows.dref[s][s],
                        -1, n_local / (rows.volume * region.S), pick, commit)
    if u - kernel.p_death < kernel.p_move:
        step, side = kernel.step, region.side
        # the operations of r + (2 f - 1) step on arrays, one coordinate at a time
        xs = [x + (2.0 * f - 1.0) * step for x, f in zip(r.tolist(), frac)]
        if not all(0.0 <= x < side for x in xs):
            return None
        c_new = rows.flat.get(tuple([_cell_index(x, region.ell_minus) for x in xs]))
        if c_new is None:
            return None
        sub = None if grid is None else grid.index(xs)
        r_new = np.array(xs)

        if c_new == c:
            def commit(system, local_ids, i):
                system.pos[i] = r_new
                system._refile(i, sub)
        else:
            def commit(system, local_ids, i):
                system._unfile(i)
                system.pos[i] = r_new
                system._file(i, c_new, sub)
        return Proposal([(+1, r_new, s, c_new), (-1, r, s, c)], sub, 0.0, 0, 1.0, pick, commit)
    s_new = (s + 1 + int(u_c * (region.S - 1))) % region.S

    sub = None if grid is None else system._subcell[i]

    def commit(system, local_ids, i):
        system._respin(i, s_new)
    return Proposal([(+1, r, s_new, c), (-1, r, s, c)], sub, rows.dref[s][s_new],
                    0, 1.0, pick, commit)


def _metropolis(system: ParticleSystem, move: Proposal | None, u_accept: float,
                skip: int | None) -> tuple[bool, float]:
    """The tail every proposal takes: the window test, the pair sum without
    ``skip`` (the moved particle) and the accept test against ``u_accept``.
    Returns (accepted, energy change), a rejection when ``move`` is None."""
    if move is None or not system._window_ok_after(move.changes):
        return False, 0.0
    phase = system.phase
    dpair = 0.0
    if phase.t > 0.0:
        dpair = system._pair_delta(move.changes, skip) - phase.mu * move.dn
    dh = phase.t * dpair + (1.0 - phase.t) * move.dref
    return u_accept < move.ratio * math.exp(max(min(-phase.beta * dh, 700.0), -700.0)), dh


def _decide(system: ParticleSystem, move: Proposal | None, u_accept: float,
            skip: int | None) -> tuple[bool, float]:
    """``_metropolis``'s decision, settled first from an upper bound on the
    pair sum where that can accept: at t > 0 on a chain whose running energy
    is unknown (NaN), which an accepted move leaves unknown, so no exact
    energy change is needed.  Such an accept returns a NaN change.  The
    chain then holds its subcell table, ``_subcounts``.

    Each +1 change ``(r, s, c)`` adds at most the table's other-species
    counts of the subcells within range of r's subcell, weighted by
    ``_SubcellGrid.weights``: each weight is the largest V at or beyond the
    two subcells' closest distance shrunk by a relative 1e-9, so it bounds
    V for every particle filed there, and it counts the moved particle of a
    flip too, which the exact sum skips.  A -1 change adds at most 0, since
    V >= 0.  So the exponent from that bound is at most the exact one and
    its threshold at most the exact threshold.  Rounding moves either
    exponent by a few ulps of beta times the sum of the magnitudes of its
    terms, about 1e-14 at this sampler's energies, and a threshold by that
    share; the relative margin of 1e-9 leaves room for it, so the bound
    accepts only where ``_metropolis`` accepts.  Every other case takes
    ``_metropolis`` unchanged."""
    if system._subcounts is not None and move is not None and math.isnan(system._energy) \
            and system.phase.t > 0.0:
        phase = system.phase
        sign, r, s, _ = move.changes[0]  # the +1 change, if there is one
        pair_hi = system._pair_bound(r, s, move.sub) if sign > 0 else 0.0
        dh = phase.t * (pair_hi - phase.mu * move.dn) + (1.0 - phase.t) * move.dref
        bound = move.ratio * math.exp(max(min(-phase.beta * dh, 700.0), -700.0))
        if u_accept < bound * (1.0 - 1e-9):
            if not system._window_ok_after(move.changes):
                return False, 0.0
            return True, math.nan
    return _metropolis(system, move, u_accept, skip)


class TwinRows:
    """Two chains driven by one stream of rows, as in
    ``coupling.crn_sweep``, while they stay *aligned*: the second chain
    would resolve each row to the first chain's proposal.

    They start aligned when their regions and their phases are equal, and
    their local ids ``loc1`` and ``loc2`` are as many and list, index by
    index, particles of equal position, species and cell at the same place
    of their cell's row (checked once, here); equal regions and phases
    give them one pair potential and one window.  While aligned, the second
    chain commits the first chain's proposal on its own ``loc2[pick]``,
    with the first chain's decision and energy change where every cell a
    change touches has a *twin* block (member rows with equal positions and
    spins in the same filing order), as its window test, pair sum and
    accept test would see the same operands in the same order, and else
    with its own decision.  Both chains then make the same edit, which
    keeps them aligned and every twin cell twin, so the flags are built
    once.  Alignment ends at the first row the decisions differ; after it
    each chain proposes and decides alone.  Rows must alternate first
    chain, second chain.

    ``cells`` holds the twin flags, ``blocks`` marks the interior cells
    whose whole block is twin, and ``aligned_rows`` and ``reused`` count
    the rows swept aligned and the rows whose decision was reused."""

    def __init__(self, first: ParticleSystem, second: ParticleSystem, loc1: list, loc2: list):
        self.first = first
        self.aligned = self._aligned(first, second, loc1, loc2)
        self.cells = first.twin_cells(second) if self.aligned else np.zeros(len(first.fill), dtype=bool)
        inner = np.flatnonzero(first.grid[1])
        self.blocks = np.zeros_like(self.cells)
        self.blocks[inner] = self.cells[inner[:, None] + first._ball].all(axis=1)
        self.aligned_rows = self.reused = 0
        self._row = None  # the first chain's _resolve of the current row

    @staticmethod
    def _aligned(first: ParticleSystem, second: ParticleSystem, loc1: list, loc2: list) -> bool:
        if not (first.region == second.region and first.phase == second.phase):
            return False

        def particles(s: ParticleSystem, ids: list):
            ids = np.asarray(ids, dtype=np.int64)
            # an id is filed once, and the entries past the fill read -1
            place = (s.members[s.cell[ids]] == ids[:, None]).argmax(axis=1)
            return s.pos[ids], s.spin[ids], s.cell[ids], place
        return all(map(np.array_equal, particles(first, loc1), particles(second, loc2)))

    def resolve(self, system: ParticleSystem, kernel: MoveKernel, draws, rows: RowContext,
                local_ids: list):
        """``_resolve`` of the current row for one chain of the pair."""
        if not self.aligned:
            return _resolve(system, kernel, draws, rows, local_ids)
        if system is self.first:
            self._row = _resolve(system, kernel, draws, rows, local_ids)
            return self._row
        self.aligned_rows += 1
        move, _, first = self._row
        if move is None:
            return self._row
        i = None if move.pick is None else local_ids[move.pick]
        # a bound accept's NaN change only fits a chain whose energy is unknown too
        if all(self.blocks[c] for *_, c in move.changes) and (
                not math.isnan(first[1]) or math.isnan(system._energy)):
            self.reused += 1
            return move, i, first
        decision = _decide(system, move, draws[-1], i)
        self.aligned = decision[0] == first[0]
        return move, i, decision


def _resolve(system: ParticleSystem, kernel: MoveKernel, draws, rows: RowContext,
             local_ids: list):
    """(proposal, its moved particle, (accepted, energy change)) of one row
    on one chain: ``_propose``, then ``_decide`` on the row's last uniform."""
    move = _propose(system, kernel, draws, rows, local_ids)
    i = None if move is None or move.pick is None else local_ids[move.pick]
    return move, i, _decide(system, move, draws[-1], i)


def apply_move(system: ParticleSystem, kernel: MoveKernel, draws, rows: RowContext,
               local_ids: list, twins: TwinRows | None = None) -> bool:
    """Resolve one row ``draws`` of ``draw_move_uniforms`` into a proposal
    for this system and Metropolis-accept it with the row's last uniform;
    moves that would leave the accuracy window or the active region are
    rejected outright.  ``rows`` is the sweep's ``RowContext`` for this
    system and ``local_ids`` its mobile ids on the active cells.  Returns
    True when accepted.  An accepted move adds its exact energy change to
    the running energy; while that energy is
    unknown at t > 0 (after a bulk edit), the move may instead be accepted
    from a bound on its pair energy without the pair sum, and the energy
    stays unknown until the next read of ``energy`` recomputes it.  The
    decisions are the same either way.  ``twins`` is the pair's
    ``TwinRows`` when two chains share the rows: while they are aligned,
    the second chain takes over the first chain's proposal, and its
    decision where their operands agree."""
    resolve = _resolve if twins is None else twins.resolve
    move, i, (accepted, dh) = resolve(system, kernel, draws, rows, local_ids)
    if accepted:
        move.commit(system, local_ids, i)
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
        local_ids = list(system.mobile_ids)  # all on interior cells (see add_particles)
    else:
        local_ids = system.mobile_in(active)
    rows = RowContext(system, active)
    if n_moves is None:
        n_moves = max(len(local_ids), 1)
    if audit:
        system.energy  # resolve an unknown energy now: audits measure drift from here
    accepted = 0
    for draws in draw_move_uniforms(rng, n_moves, system.region.d).tolist():
        if apply_move(system, kernel, draws, rows, local_ids):
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


# ---------------------------------------------------------------------------
# exact occupancy law for the decoupled case


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
