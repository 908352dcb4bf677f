"""Stopping-set screening for pairs of boundary-conditioned configurations.

Given two particle configurations (with optional polymer marks) on the same
box, a deterministic iteration peels shells of coarse cubes from the region,
classifying each peeled cube as good or bad from local agreement events.  The
iteration is a set-valued stopping time: whether it stops at a given region
is decided by the pair outside that region only.  When it stops with an
all-good shell, the two configurations agree on a collar of the final region
and no polymer touches it; an integer audit function bounds how far
disagreement information can have travelled, which is checked here cube by
cube.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .simulate import ParticleSystem, _block_offsets, _flat_cells

__all__ = [
    "Polymer",
    "PolymerSet",
    "LadderSpec",
    "PairedState",
    "CubePartition",
    "k_function",
    "k_values",
    "theta_events",
    "run_screening",
    "verify_stopping",
    "m_function",
    "peierls_chain_check",
    "touching",
]

C_POL_DEFAULT = 1.0


@dataclass(frozen=True)
class Polymer:
    """Connected union of coarse cubes with a cell-level label map."""

    support: frozenset  # of cube coordinate tuples
    label: int = 0

    def __post_init__(self):
        cubes = sorted(self.support)
        if not cubes:
            raise ValueError("polymer support is empty")
        # connectivity under closure contact
        seen = {cubes[0]}
        frontier = [cubes[0]]
        while frontier:
            new = touching([frontier.pop()]) & self.support - seen
            seen |= new
            frontier.extend(new)
        if seen != self.support:
            raise ValueError("polymer support is not connected")

    @property
    def n_cubes(self) -> int:
        return len(self.support)


class PolymerSet:
    """Mutually disconnected polymers with optional weights obeying the
    exponential size bound."""

    def __init__(self, polymers=(), weights=None, c_pol: float = C_POL_DEFAULT,
                 zeta: float = 1.0, ell_minus: float = 1.0, d: int = 2):
        self.polymers = list(polymers)
        for a, b in itertools.combinations(self.polymers, 2):
            if touching(a.support) & b.support:
                raise ValueError("polymer supports must be mutually disconnected")
        self.weights = None
        if weights is not None:
            weights = list(map(float, weights))
            if len(weights) != len(self.polymers):
                raise ValueError("one weight per polymer required")
            for w, g in zip(weights, self.polymers):
                if not 0.0 <= w <= self.bound(g, c_pol, zeta, ell_minus, d):
                    raise ValueError("weight outside the admissible range")
            self.weights = weights

    @staticmethod
    def bound(polymer: Polymer, c_pol: float, zeta: float, ell_minus: float, d: int = 2) -> float:
        return math.exp(-c_pol * zeta**2 * ell_minus**d * polymer.n_cubes)

    def cubes(self) -> set:
        out = set()
        for g in self.polymers:
            out |= g.support
        return out

    def __len__(self):
        return len(self.polymers)


@dataclass(frozen=True)
class LadderSpec:
    """Accuracy ladder: zeta_n = (2 c_star)^-n * zeta, n = 0..m_bar, with
    m_bar = 2^d + 2, plus the two audit-ball radii as fractions of the coarse
    cube side.  A value: ``levels``, the rungs zeta_0..zeta_m_bar, are built
    once here, read-only; ``dataclasses.replace`` makes a new ladder, and a
    deep copy is the ladder itself."""

    zeta: float
    d: int
    c_star: float = 2.0
    ball_fraction: float = 0.25
    inner_ball_fraction: float = 0.1

    def __post_init__(self):
        for name in ("zeta", "c_star"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"ladder {name} must be positive and finite, got {getattr(self, name)}")
        rungs = self.zeta * self.c_acc ** (-np.arange(self.m_bar + 1, dtype=float))
        rungs.flags.writeable = False
        object.__setattr__(self, "levels", rungs)

    def __deepcopy__(self, memo):
        return self

    @property
    def c_acc(self) -> float:
        return 2.0 * self.c_star

    @property
    def m_bar(self) -> int:
        return 2**self.d + 2

    def bin_deviations(self, b: np.ndarray) -> np.ndarray:
        """Ladder index of each deviation: 0 outside (at or above zeta_2),
        else the first m in 2..m_bar-1 with b in [zeta_{m+1}, zeta_m), else
        m_bar (below the bottom rung, or rungs that do not decrease).  One
        comparison of every deviation against every rung."""
        at_or_above = np.asarray(b, dtype=float)[:, None] >= self.levels
        in_bin = at_or_above[:, 3:] & ~at_or_above[:, 2:-1]  # column m - 2: bin m
        bins = np.where(in_bin.any(axis=1), 2 + in_bin.argmax(axis=1), self.m_bar)
        return np.where(at_or_above[:, 2], 0, bins)


@dataclass
class PairedState:
    """Two chains on the same geometry plus their polymer marks."""

    sys1: ParticleSystem
    sys2: ParticleSystem
    polymers1: PolymerSet = field(default_factory=PolymerSet)
    polymers2: PolymerSet = field(default_factory=PolymerSet)
    ladder: LadderSpec | None = None
    # (ladder, both chains, stamps, cell stamps of each chain, same, dev,
    # bins) of the last cell_table; see there
    _table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sys1.region is not self.sys2.region:
            raise ValueError("the chains must share one region")
        if self.ladder is None:
            self.ladder = LadderSpec(zeta=self.sys1.phase.zeta, d=self.sys1.region.d)

    @property
    def region(self):
        return self.sys1.region

    def polymer_cubes(self) -> set:
        return self.polymers1.cubes() | self.polymers2.cubes()

    def cell_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per flat cell of the extended grid: ``same``, whether the chains
        carry the same particles (positions and spins) there, ``dev``, the
        largest deviation of the first chain's species densities from
        rho_ref, and ``bins``, the ladder bin of ``dev``.  One trailing entry
        answers for every cell off the grid, which is empty in both chains,
        so flat index -1 reads it.

        Patched per cell: when either chain's stamp has moved since the last
        read, only the cells whose ``cell_stamps`` moved in either chain are
        sorted, compared and binned again.  The first read, and the first
        after the ladder or either chain was replaced, starts a fresh table
        and patches every cell; a chain's phase, so ``rho_ref``, is fixed."""
        sys1, sys2, ladder = self.sys1, self.sys2, self.ladder
        rho_ref = sys1.phase.rho_ref
        if (self._table is None or self._table[0] is not ladder
                or self._table[1] is not sys1 or self._table[2] is not sys2):
            n = len(sys1.cell_stamps)
            unseen = np.full(n, -1, dtype=np.int64)
            dev = np.append(np.zeros(n), np.max(np.abs(rho_ref)))
            self._table = (ladder, sys1, sys2, None, unseen, unseen, np.ones(n + 1, dtype=bool),
                           dev, ladder.bin_deviations(dev))
        *_, key, stamps1, stamps2, same, dev, bins = self._table
        if key == (sys1.stamp, sys2.stamp):
            return same, dev, bins
        rows = np.flatnonzero((sys1.cell_stamps != stamps1) | (sys2.cell_stamps != stamps2))
        pos1, spin1 = sys1.sorted_cells(rows)
        pos2, spin2 = sys2.sorted_cells(rows)
        counts = sys1.cell_counts()[rows]
        k = min(spin1.shape[1], spin2.shape[1])
        same[rows] = ((counts.sum(axis=1) == sys2.cell_counts()[rows].sum(axis=1))
                      & (spin1[:, :k] == spin2[:, :k]).all(axis=1)
                      & (pos1[:, :k] == pos2[:, :k]).all(axis=(1, 2)))
        dev[rows] = np.max(np.abs(counts / self.region.cell_volume - rho_ref), axis=1)
        bins[rows] = ladder.bin_deviations(dev[rows])
        self._table = (ladder, sys1, sys2, (sys1.stamp, sys2.stamp), sys1.cell_stamps.copy(),
                       sys2.cell_stamps.copy(), same, dev, bins)
        return same, dev, bins

    def agree(self, cells) -> bool:
        """Whether the two chains carry the same particles (positions and
        spins) on every cell (rows of ``cells``): a lookup in the cell table."""
        same, _, _ = self.cell_table()
        return bool(same[_flat_cells(self.region, cells)].all())


# ---------------------------------------------------------------------------
# geometry helpers (interior cell coordinates; cube coordinates in units of
# the coarse side)


def touching(cubes) -> set:
    """Cubes whose closure meets the closure of a cube in ``cubes``
    (Chebyshev distance at most 1), the cubes themselves included: each
    cube shifted by the 3^d unit offsets, in one broadcast."""
    cubes = np.array(list(cubes), dtype=np.int64)
    if not len(cubes):
        return set()
    d = cubes.shape[1]
    shifted = cubes[:, None] - 1 + _block_offsets(3, d)
    return set(map(tuple, shifted.reshape(-1, d).tolist()))


@functools.lru_cache(maxsize=None)
def _ball_offsets(d: int, ell: float, radius: float, extent: float) -> np.ndarray:
    """Cell offsets, in C order, whose box [off*ell, off*ell + extent] lies
    within ``radius`` of the corner of the centre cell: extent ``ell`` gives
    the point-to-box distance, extent 0 the corner-to-corner one."""
    reach = int(math.ceil(radius / ell)) + 1
    off = _block_offsets(2 * reach + 1, d) - reach
    lo = off * ell
    gap = np.maximum(np.maximum(lo, -(lo + extent)), 0.0)
    out = off[np.sqrt(np.sum(gap**2, axis=1)) <= radius]
    out.flags.writeable = False
    return out


class _CubeLattice:
    """The fixed geometry of one region, one per region (``_lattice``).  The
    cubes of the box and its collar have codes in C order of ``cube + 1``
    (sorted codes, sorted cubes), and their cells rows, cube by cube, C
    order within a cube; ``n_codes`` and ``n_rows`` stand for every cube or
    cell off that grid.  Read-only tables: each row's cell, each code's 3^d
    neighbours, each cube's neighbours on the grid (sorted), and each row's
    flat extended cell (-1 at ``n_rows`` and beyond the particle systems'
    collar, at most one cube wide); each row's balls are ``_ball_rows``."""

    def __init__(self, region):
        d, side = region.d, region.n_plus + 2
        self.d, self.ell = d, region.ell_minus
        self.cpc = int(round(region.ell_plus / region.ell_minus))  # cells per cube side
        self.block, self.n_codes, self.n_rows = self.cpc**d, side**d, (self.cpc * side) ** d
        cubes = _block_offsets(side, d) - 1
        self.cubes = list(map(tuple, cubes.tolist()))
        self.code = {c: i for i, c in enumerate(self.cubes)}
        self.cells = (cubes[:, None] * self.cpc + _block_offsets(self.cpc, d)).reshape(-1, d)
        self._side, self._strides = side, side ** np.arange(d - 1, -1, -1)
        self._local = self.cpc ** np.arange(d - 1, -1, -1)
        corners = (cubes[:, None] - 1 + _block_offsets(3, d)) * self.cpc
        self.neighbours = self.rows(corners) // self.block
        self.flat = np.append(_flat_cells(region, self.cells), -1)
        for table in (self.cells, self.neighbours, self.flat):
            table.flags.writeable = False

    def mask(self, cubes) -> np.ndarray:
        """Whether each code is in the set ``cubes`` (never ``n_codes``)."""
        out = np.zeros(self.n_codes + 1, dtype=bool)
        out[[self.code[c] for c in cubes if c in self.code]] = True
        return out

    def rows(self, cells) -> np.ndarray:
        """Row of each cell along the last axis of ``cells``."""
        cells = np.asarray(cells, dtype=np.int64)
        cube = cells // self.cpc + 1
        off = ((cube < 0) | (cube >= self._side)).any(axis=-1)
        return np.where(off, self.n_rows,
                        cube @ self._strides * self.block + (cells % self.cpc) @ self._local)

    def cube_rows(self, cubes) -> np.ndarray:
        """Rows of the cells of each grid cube, cube by cube."""
        codes = np.array([self.code[c] for c in cubes], dtype=np.int64)
        return (codes[:, None] * self.block + np.arange(self.block)).ravel()


_lattice = functools.lru_cache(maxsize=None)(_CubeLattice)  # one per region


@functools.lru_cache(maxsize=None)
def _ball_rows(region, radius: float, extent: float) -> np.ndarray:
    """Per row of the region's cube lattice, the rows of its
    ``_ball_offsets`` cells, read-only."""
    lattice = _lattice(region)
    ball = _ball_offsets(lattice.d, lattice.ell, radius, extent)
    out = lattice.rows(lattice.cells[:, None] + ball)
    out.flags.writeable = False
    return out


def _near(system: ParticleSystem, cell: tuple, x: np.ndarray, radius: float) -> list:
    """(position, spin) of the cell's particles within ``radius`` of x, sorted."""
    pos, spin = system.cell_particles(cell)
    keep = np.sqrt(np.sum((pos - x) ** 2, axis=1)) <= radius
    return sorted(zip(map(tuple, pos[keep].tolist()), spin[keep].tolist()))


# ---------------------------------------------------------------------------
# the agreement index K and the event Theta


def k_values(pair: PairedState, lambda_cubes: set, cells,
             inner_ball: bool = False) -> np.ndarray:
    """Agreement index at the lattice point of each cell (its corner), for
    the rows of ``cells`` in one pass.

    m_bar + 1 when the audit ball around the point stays inside the running
    region; 0 when the two configurations differ on the ball's intersection
    with the complement; otherwise the ladder bin of the worst cell deviation
    from the reference densities there (0 if even the coarsest rung fails).
    """
    lattice = _lattice(pair.region)
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, lattice.d)
    return _k_rows(pair, lattice.mask(lambda_cubes), cells, lattice.rows(cells), inner_ball)


def _k_rows(pair: PairedState, in_region: np.ndarray, cells: np.ndarray, rows: np.ndarray,
            inner_ball: bool = False) -> np.ndarray:
    """``k_values`` given the running region's code mask and the cells' rows:
    each ball is read from the ball table, or for a cell off the grid built."""
    lattice, ladder = _lattice(pair.region), pair.ladder
    frac = ladder.inner_ball_fraction if inner_ball else ladder.ball_fraction
    r, ell = frac * pair.region.ell_plus, lattice.ell
    if (rows < lattice.n_rows).all():
        balls = _ball_rows(pair.region, r, ell)[rows]
    else:
        balls = lattice.rows(cells[:, None] + _ball_offsets(lattice.d, ell, r, ell))
    # per point, the cells whose box comes within r of it, and which of
    # them lie outside the region
    near = ~in_region[balls // lattice.block]
    same, _, bins = pair.cell_table()
    flat = lattice.flat[balls]
    # the bin of the largest deviation is the smallest bin, as the bins do
    # not increase with the deviation
    k = np.where(near, bins[flat], ladder.m_bar + 1).min(axis=1)
    # chains that agree on a whole cell agree on its part in the ball; on
    # the other cells, only the particles within r of the point are compared
    differ = near & ~same[flat]
    for i in np.flatnonzero(differ.any(axis=1)):
        x = cells[i] * ell
        if any(_near(pair.sys1, c, x, r) != _near(pair.sys2, c, x, r)
               for c in map(tuple, lattice.cells[balls[i, differ[i]]].tolist())):
            k[i] = 0
    return k


def theta_events(pair: PairedState, cells, k) -> np.ndarray:
    """Agreement event at each cell (rows of ``cells``) inside the running
    region given its index k, in one pass: trivially true where k is 0,
    else the two chains carry identical particles on the cell and the first
    chain's density sits within the ladder rung min(k - 1, m_bar)."""
    return _theta(pair, _flat_cells(pair.region, cells), k)


def _theta(pair: PairedState, flat: np.ndarray, k) -> np.ndarray:
    """``theta_events`` at the cells of the given flat indices."""
    k = np.asarray(k, dtype=np.int64)
    same, dev, _ = pair.cell_table()
    rung = pair.ladder.levels[np.minimum(k - 1, pair.ladder.m_bar)]
    return (k == 0) | (same[flat] & (dev[flat] <= rung + 1e-12))


def k_function(pair: PairedState, lambda_cubes: set, cell: tuple,
               inner_ball: bool = False) -> int:
    """``k_values`` at one cell."""
    return int(k_values(pair, lambda_cubes, [cell], inner_ball)[0])


# ---------------------------------------------------------------------------
# the partition and the screening iteration


class CubePartition:
    """Coarse cubes of the box and its one-cube collar with their statuses,
    the running region, and the peeling history.  The running region is a
    frozenset kept with its code mask over ``lattice``; only ``peel``
    replaces the two, and the shell, the collar and the agreement events
    read the mask."""

    def __init__(self, region):
        self.region, self.lattice = region, _lattice(region)
        cubes = self.lattice.cubes
        self.interior = {c for c in cubes if all(0 <= i < region.n_plus for i in c)}
        self.collar = set(cubes) - self.interior
        self.status: dict = {c: "bad" for c in self.collar}
        self._lambda = frozenset(self.interior)
        self._inside = self.lattice.mask(self._lambda)
        self.history: list[dict] = []
        self.stopped = False

    @property
    def lambda_cubes(self) -> frozenset:
        return self._lambda

    def outer_shell(self) -> list:
        """Classified-or-collar cubes outside the running region touching
        it, sorted."""
        lattice, inside = self.lattice, self._inside
        touched = np.zeros_like(inside)
        touched[lattice.neighbours[inside[:-1]]] = True
        return [lattice.cubes[c] for c in np.flatnonzero(touched[:-1] & ~inside[:-1]).tolist()]

    def select_next(self, polymer_cubes: set):
        """The next cube to screen around: the first bad shell cube touching
        a polymer if any, else the first bad shell cube.  Returns
        (cube, screening_set) or None when the sequence has stopped."""
        if self.stopped:
            raise RuntimeError("screening already stopped")
        bad = [c for c in self.outer_shell() if self.status.get(c) == "bad"]
        if not bad:
            self.stopped = True
            return None
        chosen = next((c for c in bad if c in polymer_cubes), bad[0])
        codes = self.lattice.neighbours[self.lattice.code[chosen]]
        return chosen, [self.lattice.cubes[q] for q in codes[self._inside[codes]].tolist()]

    def peel(self, chosen: tuple, sigma: list, statuses: dict):
        """Record the step and take the grid cubes ``sigma`` out of the
        running region, its set and its mask."""
        for q in sigma:
            self.status[q] = statuses[q]
        self._lambda = self._lambda - set(sigma)
        self._inside[[self.lattice.code[q] for q in sigma]] = False
        self.history.append({"selected": chosen, "sigma": list(sigma), "statuses": dict(statuses)})

    def held(self, pair: PairedState, cubes) -> np.ndarray:
        """The agreement event at each cell of the grid cubes at its own
        index K in the running region: cube by cube, in C order within a
        cube."""
        rows = self.lattice.cube_rows(cubes)
        k = _k_rows(pair, self._inside, self.lattice.cells[rows], rows)
        return _theta(pair, self.lattice.flat[rows], k)

    def range_collar(self) -> list:
        """Interior-coordinate cells outside the running region within one
        interaction range 1/gamma of it, in sorted order.  Only cells that
        can hold particles count: those with a flat cell, in the box and its
        frozen collar."""
        if not self._lambda:
            return []
        region, lattice, ell = self.region, self.lattice, self.region.ell_minus
        outside = ~self._inside[:-1].repeat(lattice.block)
        cells = lattice.cells[outside & (lattice.flat[:-1] >= 0)]
        lo = cells * ell
        near = _gaps(lo, lo + ell, self._lambda, region.ell_plus) <= 1.0 / region.gamma
        return sorted(map(tuple, cells[near].tolist()))


def classify_and_peel(partition: CubePartition, pair: PairedState,
                      chosen: tuple, sigma: list):
    """Classify the screening shell of the selected cube and peel it."""
    poly = pair.polymer_cubes()
    statuses = {q: "bad" for q in sigma}
    screened = [] if chosen in poly else [q for q in sigma if q not in poly]
    if screened:
        held = partition.held(pair, screened).reshape(len(screened), -1)
        statuses.update(zip(screened, np.where(held.all(axis=1), "good", "bad").tolist()))
    partition.peel(chosen, sigma, statuses)


def run_screening(pair: PairedState, partition: CubePartition | None = None) -> CubePartition:
    """Iterate the screening on a fixed pair until it stops: each peel
    selects a cube, classifies its screening shell and shrinks the region."""
    if partition is None:
        partition = CubePartition(pair.region)
    while (sel := partition.select_next(pair.polymer_cubes())) is not None:
        classify_and_peel(partition, pair, *sel)
    return partition


# ---------------------------------------------------------------------------
# the audit function M and the stopped-state verification


def m_function(partition: CubePartition, pair: PairedState) -> dict:
    """Iteratively defined audit index on lattice points of peeled cubes.

    Infinite outside the box and on bad cubes; on good cubes it is zero when
    the audit ball misses the older region, else one plus the maximum over
    older lattice points in the ball.  Bounded by m_bar - 2 wherever finite
    on good cubes (the ball is small enough that an age-decreasing chain
    cannot visit that many distinct cubes).
    """
    lattice = partition.lattice
    M = _m_rows(partition, pair)
    rows = lattice.cube_rows(sorted(partition.collar)
                             + [q for step in partition.history for q in step["sigma"]])
    return dict(zip(map(tuple, lattice.cells[rows].tolist()), M[rows].tolist()))


def _m_rows(partition: CubePartition, pair: PairedState) -> np.ndarray:
    """``m_function`` at every lattice row, infinite off the collar and the
    peeled cubes, one peel at a time: a step reads only older steps."""
    lattice = partition.lattice
    r = pair.ladder.ball_fraction * pair.region.ell_plus
    ball = _ball_rows(pair.region, r + 1e-12, 0.0)
    M = np.full(lattice.n_rows + 1, math.inf)
    older = lattice.mask(partition.collar)  # cubes already peeled or collar
    for step in partition.history:
        rows = lattice.cube_rows([q for q in step["sigma"] if step["statuses"][q] == "good"])
        seen = older[ball[rows] // lattice.block]
        worst = np.where(seen, M[ball[rows]], -math.inf).max(axis=1)
        M[rows] = np.where(seen.any(axis=1), 1.0 + worst, 0.0)
        older[[lattice.code[q] for q in step["sigma"]]] = True
    return M


def verify_stopping(pair: PairedState, partition: CubePartition,
                    perturb=None, n_replays: int = 3, seed: int = 0) -> dict:
    """Check the three contracts of a completed screening run.

    (a) replay-measurability: perturbing the pair inside the final region
    does not change the recorded history; (b) if stopped at a nonempty region
    with an all-good shell: the chains agree on the one-range collar of the
    final region and no polymer touches it; (c) the audit index on good cubes
    is below m_bar - 2 or infinite, and where finite the cells pass the
    agreement event on the matching ladder rung.
    """
    region = pair.region
    report = {"replay_ok": True, "shell_ok": None, "audit_ok": True, "failures": []}

    # (a) replay with perturbations confined to the final region
    rng = np.random.default_rng(seed)
    for _ in range(n_replays):
        clone = copy.deepcopy(pair)
        (perturb or _default_perturbation)(clone, partition.lambda_cubes, rng)
        if run_screening(clone).history != partition.history:
            report["replay_ok"] = False
            report["failures"].append("history changed under interior perturbation")
            break

    # (b) stopped-at-nonempty with all-good shell
    if partition.lambda_cubes:
        shell = partition.outer_shell()
        if all(partition.status.get(c) == "good" for c in shell):
            # box cells only: the mobile content there is what the contract
            # compares, the frozen collars are each chain's own boundary
            n = region.cells_per_axis
            collar = [c for c in partition.range_collar() if all(0 <= i < n for i in c)]
            same, _, _ = pair.cell_table()
            held = same[_flat_cells(pair.region, collar)]
            differ = next((c for c, ok in zip(collar, held) if not ok), None)
            if differ is not None:
                report["failures"].append(f"chains differ on collar cell {differ}")
            cubes = [c for g in pair.polymers1.polymers + pair.polymers2.polymers
                     for c in g.support]
            lo = np.array(cubes, dtype=float).reshape(-1, region.d) * region.ell_plus
            gaps = _gaps(lo, lo + region.ell_plus, partition.lambda_cubes, region.ell_plus)
            near = [c for c, gap in zip(cubes, gaps) if gap <= 1.0 / region.gamma]
            report["failures"] += [f"polymer within range of the final region: {c}" for c in near]
            report["shell_ok"] = differ is None and not near

    # (c) audit bounds on good cubes: where the index is finite, the cell
    # passes the agreement event on the matching ladder rung
    lattice = partition.lattice
    M = _m_rows(partition, pair)
    m_bar = pair.ladder.m_bar
    rows = lattice.cube_rows([q for step in partition.history for q in step["sigma"]
                              if step["statuses"][q] == "good"])
    rows = rows[np.isfinite(M[rows])]
    vals = M[rows]
    # audit index val asks for the event on rung h = m_bar - val, which is
    # the event at K = h + 1; val >= m_bar - 2 fails by itself, so it asks
    # for the trivial event at K = 0
    held = _theta(pair, lattice.flat[rows],
                  np.where(vals < m_bar - 2, m_bar + 1 - vals.astype(int), 0))
    audited = zip(map(tuple, lattice.cells[rows].tolist()), vals.tolist())
    for (cell, val), ok in zip(audited, held):
        if val >= m_bar - 2:
            report["audit_ok"] = False
            report["failures"].append(f"audit index {val} at {cell}")
        elif not ok:
            report["audit_ok"] = False
            report["failures"].append(f"agreement event fails on rung {m_bar - int(val)} at {cell}")
    report["ok"] = report["replay_ok"] and report["audit_ok"] and report["shell_ok"] is not False
    return report


def _gaps(lo: np.ndarray, hi: np.ndarray, cubes: set, side: float) -> np.ndarray:
    """Distance from each box [lo[i], hi[i]] to the union of the coarse
    cubes of the given side, in one broadcast over boxes and cubes."""
    clo = np.array(sorted(cubes), dtype=float) * side
    chi = clo + side
    gap = np.maximum(np.maximum(clo[None] - hi[:, None], lo[:, None] - chi[None]), 0.0)
    return np.sqrt(np.sum(gap**2, axis=-1)).min(axis=1)


def _default_perturbation(pair: PairedState, lambda_cubes: set, rng):
    """Move, add and delete a few particles of both chains strictly inside
    the running region.  The cells are taken in sorted cube order, so the
    picks do not depend on how the set of cubes was built."""
    region, lattice = pair.region, _lattice(pair.region)
    cells = list(map(tuple, lattice.cells[lattice.cube_rows(sorted(lambda_cubes))].tolist()))
    if not cells:
        return
    cell_set, ell = set(cells), region.ell_minus
    for system in (pair.sys1, pair.sys2):
        cell = cells[int(rng.random() * len(cells))]
        r = np.asarray(cell, dtype=float) * ell + rng.random(region.d) * ell
        system.add_particles([system.place(r.tolist(), cell)], [int(rng.random() * region.S)])
        # delete one mobile particle from inside the region if any
        inside = system.mobile_in(cell_set)
        if inside:
            system.remove_particles([inside[int(rng.random() * len(inside))]])


# ---------------------------------------------------------------------------
# chain bound on polymer families


def peierls_chain_check(polymers: PolymerSet, weights, c_pol: float = C_POL_DEFAULT,
                        zeta: float = 1.0, ell_minus: float = 1.0, d: int = 2) -> bool:
    """Exhaustively verify the chain bound on a finite polymer family: for
    every sub-family, the total weight of collections containing it, over the
    total weight of all collections, is at most the product of its size
    bounds."""
    weights = list(map(float, weights))
    if len(weights) != len(polymers.polymers):
        raise ValueError("one weight per polymer required")
    bounds = [PolymerSet.bound(g, c_pol, zeta, ell_minus, d) for g in polymers.polymers]
    for w, cap in zip(weights, bounds):
        if w < 0 or w > cap + 1e-15:
            raise ValueError(f"weight {w} violates the admissible bound {cap}")

    def product(values, mask):
        return math.prod(v for i, v in enumerate(values) if mask >> i & 1)

    subset_weight = [product(weights, mask) for mask in range(2 ** len(weights))]
    total = sum(subset_weight)
    for mask in range(1, len(subset_weight)):
        containing = sum(w for m2, w in enumerate(subset_weight) if m2 & mask == mask)
        if containing / total > product(bounds, mask) + 1e-12:
            return False
    return True
