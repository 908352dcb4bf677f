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
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .simulate import ParticleSystem

__all__ = [
    "Polymer",
    "PolymerSet",
    "LadderSpec",
    "PairedState",
    "CubePartition",
    "k_function",
    "theta_event",
    "screening_step",
    "run_screening",
    "verify_stopping",
    "m_function",
    "peierls_chain_check",
    "history_to_csv",
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
        # connectivity under closure contact (Chebyshev distance 1)
        seen = {cubes[0]}
        frontier = [cubes[0]]
        pool = set(cubes)
        while frontier:
            c = frontier.pop()
            for other in pool - seen:
                if max(abs(a - b) for a, b in zip(c, other)) <= 1:
                    seen.add(other)
                    frontier.append(other)
        if seen != pool:
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
            for ca in a.support:
                for cb in b.support:
                    if max(abs(x - y) for x, y in zip(ca, cb)) <= 1:
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
        self.c_pol = c_pol
        self.zeta = zeta
        self.ell_minus = ell_minus
        self.d = d

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


@dataclass
class LadderSpec:
    """Accuracy ladder: zeta_n = (2 c_star)^-n * zeta, n = 0..m_bar, with
    m_bar = 2^d + 2, plus the two audit-ball radii as fractions of the coarse
    cube side (the strict flag restores the vanishing theoretical values)."""

    zeta: float
    d: int
    c_star: float = 2.0
    ball_fraction: float = 0.25
    inner_ball_fraction: float = 0.1
    strict: bool = False

    def __post_init__(self):
        if self.strict:
            self.ball_fraction = 1e-10
            self.inner_ball_fraction = 1e-30

    @property
    def c_acc(self) -> float:
        return 2.0 * self.c_star

    @property
    def m_bar(self) -> int:
        return 2**self.d + 2

    @property
    def levels(self) -> np.ndarray:
        return self.zeta * self.c_acc ** (-np.arange(self.m_bar + 1, dtype=float))

    def bin_deviation(self, b: float) -> int:
        """Ladder index of a deviation: 0 outside (at or above zeta_2),
        m when b falls in [zeta_{m+1}, zeta_m), capped at m_bar below the
        bottom rung."""
        z = self.levels
        if b >= z[2]:
            return 0
        if b < z[self.m_bar]:
            return self.m_bar
        for m in range(2, self.m_bar):
            if z[m + 1] <= b < z[m]:
                return m
        return self.m_bar


@dataclass
class PairedState:
    """Two chains on the same geometry plus their polymer marks."""

    sys1: ParticleSystem
    sys2: ParticleSystem
    polymers1: PolymerSet = field(default_factory=PolymerSet)
    polymers2: PolymerSet = field(default_factory=PolymerSet)
    ladder: LadderSpec | None = None

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


# ---------------------------------------------------------------------------
# geometry helpers (interior cell coordinates; cube coordinates in units of
# the coarse side)


def _cells_per_cube(region) -> int:
    return int(round(region.ell_plus / region.ell_minus))


def _cube_of_cell(cell: tuple, cpc: int) -> tuple:
    return tuple(c // cpc for c in cell)


def _cube_cells(cube: tuple, cpc: int):
    ranges = [range(c * cpc, (c + 1) * cpc) for c in cube]
    return itertools.product(*ranges)


def _cell_corner(cell: tuple, ell: float) -> np.ndarray:
    return np.asarray(cell, dtype=float) * ell


def _dist_point_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    return float(np.sqrt(np.sum(gap**2)))


def _cell_signature(system: ParticleSystem, cell: tuple, x: np.ndarray | None = None,
                    radius: float | None = None):
    """Sorted tuple of (coords..., spin), optionally restricted to a ball
    around x."""
    pos, spin = system.cell_particles(cell)
    rows = []
    for p, s in zip(pos, spin):
        if x is not None and np.linalg.norm(p - x) > radius:
            continue
        rows.append(tuple(p) + (int(s),))
    return tuple(sorted(rows))


def _cell_counts(system: ParticleSystem, cell: tuple) -> np.ndarray:
    _, spin = system.cell_particles(cell)
    out = np.zeros(system.region.S, dtype=np.int64)
    for s in spin:
        out[int(s)] += 1
    return out


# ---------------------------------------------------------------------------
# the agreement index K and the event Theta


def k_function(pair: PairedState, lambda_cubes: set, cell: tuple,
               inner_ball: bool = False) -> int:
    """Agreement index at a lattice point (the corner of ``cell``).

    m_bar + 1 when the audit ball around the point stays inside the running
    region; 0 when the two configurations differ on the ball's intersection
    with the complement; otherwise the ladder bin of the worst cell deviation
    from the reference densities there (0 if even the coarsest rung fails).
    """
    region = pair.region
    ladder = pair.ladder
    ell, ell_plus = region.ell_minus, region.ell_plus
    cpc = _cells_per_cube(region)
    frac = ladder.inner_ball_fraction if inner_ball else ladder.ball_fraction
    r = frac * ell_plus
    x = _cell_corner(cell, ell)

    # cells whose box comes within r of x
    reach = int(math.ceil(r / ell)) + 1
    near_cells = []
    outside_nonempty = False
    for off in itertools.product(range(-reach, reach + 1), repeat=region.d):
        c = tuple(cell[k] + off[k] for k in range(region.d))
        lo = _cell_corner(c, ell)
        hi = lo + ell
        if _dist_point_box(x, lo, hi) > r:
            continue
        if _cube_of_cell(c, cpc) in lambda_cubes:
            continue
        near_cells.append(c)
        outside_nonempty = True
    if not outside_nonempty:
        return ladder.m_bar + 1

    for c in near_cells:
        sig1 = _cell_signature(pair.sys1, c, x=x, radius=r)
        sig2 = _cell_signature(pair.sys2, c, x=x, radius=r)
        if sig1 != sig2:
            return 0

    vol = region.cell_volume
    ref = pair.sys1.phase.rho_ref
    worst = 0.0
    for c in near_cells:
        dens = _cell_counts(pair.sys1, c) / vol
        worst = max(worst, float(np.max(np.abs(dens - ref))))
    return ladder.bin_deviation(worst)


def theta_event(pair: PairedState, cell: tuple, k_value: int) -> bool:
    """Agreement event at a cell inside the running region: trivially true
    when the index is 0, else the two chains carry identical particles on the
    cell and the first chain's density sits within the ladder rung."""
    if k_value == 0:
        return True
    sig1 = _cell_signature(pair.sys1, cell)
    sig2 = _cell_signature(pair.sys2, cell)
    if sig1 != sig2:
        return False
    region = pair.region
    dens = _cell_counts(pair.sys1, cell) / region.cell_volume
    dev = float(np.max(np.abs(dens - pair.sys1.phase.rho_ref)))
    level = min(k_value - 1, pair.ladder.m_bar)
    return dev <= pair.ladder.levels[level] + 1e-12


# ---------------------------------------------------------------------------
# the partition and the screening iteration


class CubePartition:
    """Coarse cubes of the box and its one-cube collar with their statuses,
    the running region, and the peeling history."""

    def __init__(self, region):
        self.region = region
        n = region.n_plus
        d = region.d
        self.interior = {c for c in itertools.product(range(n), repeat=d)}
        self.collar = {
            c
            for c in itertools.product(range(-1, n + 1), repeat=d)
            if c not in self.interior
        }
        self.status: dict = {c: "bad" for c in self.collar}
        self.lambda_cubes = set(self.interior)
        self.history: list[dict] = []
        self.stopped = False

    def adjacent(self, a: tuple, b: tuple) -> bool:
        return max(abs(x - y) for x, y in zip(a, b)) <= 1

    def outer_shell(self, cube_set: set) -> list:
        """Classified-or-collar cubes outside the set touching it, sorted."""
        out = set()
        universe = self.interior | self.collar
        for c in universe - cube_set:
            if any(self.adjacent(c, q) for q in cube_set):
                out.add(c)
        return sorted(out)

    def select_next(self, polymer_cubes: set):
        """The next cube to screen around: the first bad shell cube touching
        a polymer if any, else the first bad shell cube.  Returns
        (cube, screening_set) or None when the sequence has stopped."""
        if self.stopped:
            raise RuntimeError("screening already stopped")
        if not self.lambda_cubes:
            self.stopped = True
            return None
        shell = self.outer_shell(self.lambda_cubes)
        bad = [c for c in shell if self.status.get(c) == "bad"]
        if not bad:
            self.stopped = True
            return None
        chosen = None
        for c in bad:
            if c in polymer_cubes:
                chosen = c
                break
        if chosen is None:
            chosen = bad[0]
        sigma = sorted(q for q in self.lambda_cubes if self.adjacent(chosen, q))
        return chosen, sigma

    def peel(self, chosen: tuple, sigma: list, statuses: dict):
        for q in sigma:
            self.status[q] = statuses[q]
            self.lambda_cubes.discard(q)
        self.history.append({"selected": chosen, "sigma": list(sigma), "statuses": dict(statuses)})


def classify_and_peel(partition: CubePartition, pair: PairedState,
                      chosen: tuple, sigma: list):
    """Classify the screening shell of the selected cube and peel it."""
    cpc = _cells_per_cube(pair.region)
    poly = pair.polymer_cubes()
    statuses = {}
    if chosen in poly:
        for q in sigma:
            statuses[q] = "bad"
    else:
        for q in sigma:
            if q in poly:
                statuses[q] = "bad"
                continue
            good = True
            for cell in _cube_cells(q, cpc):
                kv = k_function(pair, partition.lambda_cubes, cell)
                if not theta_event(pair, cell, kv):
                    good = False
                    break
            statuses[q] = "good" if good else "bad"
    partition.peel(chosen, sigma, statuses)


def screening_step(partition: CubePartition, pair: PairedState) -> bool:
    """One peel on a fixed pair: select the cube, classify its screening
    shell, shrink the region.  Returns False when the sequence has stopped."""
    sel = partition.select_next(pair.polymer_cubes())
    if sel is None:
        return False
    chosen, sigma = sel
    classify_and_peel(partition, pair, chosen, sigma)
    return True


def run_screening(pair: PairedState, partition: CubePartition | None = None) -> CubePartition:
    """Iterate the screening on a fixed pair until it stops."""
    if partition is None:
        partition = CubePartition(pair.region)
    while screening_step(partition, pair):
        pass
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
    region = pair.region
    ladder = pair.ladder
    cpc = _cells_per_cube(region)
    ell, ell_plus = region.ell_minus, region.ell_plus
    r = ladder.ball_fraction * ell_plus
    M: dict[tuple, float] = {}
    age: dict[tuple, int] = {}
    for c in partition.collar:
        age[c] = -1
        for cell in _cube_cells(c, cpc):
            M[cell] = math.inf
    lam = set(partition.interior)
    for n, step in enumerate(partition.history):
        lam_n_c_cubes = set(age)  # cubes already peeled or collar
        for q in step["sigma"]:
            status = step["statuses"][q]
            for cell in _cube_cells(q, cpc):
                if status == "bad":
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
                    y_cube = _cube_of_cell(y_cell, cpc)
                    if y_cube not in lam_n_c_cubes:
                        continue
                    val = M.get(y_cell, math.inf)
                    best = val if best is None else max(best, val)
                M[cell] = 0.0 if best is None else 1.0 + best
        for q in step["sigma"]:
            age[q] = n
    return M


def verify_stopping(pair: PairedState, partition: CubePartition,
                    perturb=None, n_replays: int = 3, seed: int = 0) -> dict:
    """Check the three contracts of a completed screening run.

    (a) replay-measurability: perturbing the pair inside the final region
    does not change the recorded history; (b) if stopped at a nonempty region
    with an all-good shell: the chains agree on the one-range collar of the
    final region and no polymer touches it; (c) the audit index on good cubes
    is below m_bar - 2 or infinite, and where finite the cells carry equal
    particles with deviation within the matching ladder rung.
    """
    region = pair.region
    ladder = pair.ladder
    cpc = _cells_per_cube(region)
    report = {"replay_ok": True, "shell_ok": None, "audit_ok": True, "failures": []}

    # (a) replay with perturbations confined to the final region
    rng = np.random.default_rng(seed)
    base_history = [(h["selected"], tuple(h["sigma"]), tuple(sorted(h["statuses"].items())))
                    for h in partition.history]
    for _ in range(n_replays):
        clone = copy.deepcopy(pair)
        if perturb is not None:
            perturb(clone, partition.lambda_cubes, rng)
        else:
            _default_perturbation(clone, partition.lambda_cubes, rng)
        repart = run_screening(clone)
        new_hist = [(h["selected"], tuple(h["sigma"]), tuple(sorted(h["statuses"].items())))
                    for h in repart.history]
        if new_hist != base_history:
            report["replay_ok"] = False
            report["failures"].append("history changed under interior perturbation")
            break

    # (b) stopped-at-nonempty with all-good shell
    if partition.lambda_cubes:
        shell = partition.outer_shell(partition.lambda_cubes)
        if all(partition.status.get(c) == "good" for c in shell):
            ok = True
            # box cells only: the mobile content there is what the contract
            # compares, the frozen collars are each chain's own boundary
            n = region.cells_per_axis
            for cell in _range_collar_cells(region, partition.lambda_cubes):
                if not all(0 <= c < n for c in cell):
                    continue
                if _cell_signature(pair.sys1, cell) != _cell_signature(pair.sys2, cell):
                    ok = False
                    report["failures"].append(f"chains differ on collar cell {cell}")
                    break
            rng_len = 1.0 / region.gamma
            for g in list(pair.polymers1.polymers) + list(pair.polymers2.polymers):
                for cube in g.support:
                    lo = np.asarray(cube, dtype=float) * region.ell_plus
                    hi = lo + region.ell_plus
                    gap = _boxes_gap(lo, hi, partition.lambda_cubes, region.ell_plus)
                    if gap <= rng_len:
                        ok = False
                        report["failures"].append(f"polymer within range of the final region: {cube}")
            report["shell_ok"] = ok

    # (c) audit bounds on good cubes
    M = m_function(partition, pair)
    m_bar = ladder.m_bar
    for step in partition.history:
        for q in step["sigma"]:
            if step["statuses"][q] != "good":
                continue
            for cell in _cube_cells(q, cpc):
                val = M[cell]
                if not (math.isinf(val) or val < m_bar - 2):
                    report["audit_ok"] = False
                    report["failures"].append(f"audit index {val} at {cell}")
                    continue
                if math.isinf(val):
                    continue
                h = m_bar - int(val)
                if h > 0:
                    if _cell_signature(pair.sys1, cell) != _cell_signature(pair.sys2, cell):
                        report["audit_ok"] = False
                        report["failures"].append(f"unequal cells at finite audit index {cell}")
                        continue
                    dens = _cell_counts(pair.sys1, cell) / region.cell_volume
                    dev = float(np.max(np.abs(dens - pair.sys1.phase.rho_ref)))
                    if dev > ladder.levels[min(h, m_bar)] + 1e-12:
                        report["audit_ok"] = False
                        report["failures"].append(
                            f"deviation {dev} above rung {h} at {cell}"
                        )
    report["ok"] = (
        report["replay_ok"]
        and report["audit_ok"]
        and (report["shell_ok"] is not False)
    )
    return report


def _boxes_gap(lo, hi, cubes: set, side: float) -> float:
    """Distance from the box [lo, hi] to the union of coarse cubes."""
    best = math.inf
    for cube in cubes:
        clo = np.asarray(cube, dtype=float) * side
        chi = clo + side
        gap = np.maximum(np.maximum(clo - hi, lo - chi), 0.0)
        best = min(best, float(np.sqrt(np.sum(gap**2))))
    return best


def _range_collar_cells(region, cubes: set) -> list:
    """Interior-coordinate cells outside ``cubes`` within one interaction
    range 1/gamma of them, frozen-collar cells included, in sorted order.

    Gaps are ``_boxes_gap``'s, taken for every candidate cell against every
    cube corner in one broadcast."""
    if not cubes:
        return []
    cpc = _cells_per_cube(region)
    ell, side = region.ell_minus, region.ell_plus
    rng_len = 1.0 / region.gamma
    cube_arr = np.array(sorted(cubes), dtype=np.int64)
    margin = int(math.ceil(rng_len / ell)) + 1
    lo_cell = cube_arr.min(axis=0) * cpc - margin
    hi_cell = (cube_arr.max(axis=0) + 1) * cpc + margin
    axes = [np.arange(a, b) for a, b in zip(lo_cell, hi_cell)]
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, region.d)
    inside = ((cells // cpc)[:, None] == cube_arr[None]).all(axis=-1).any(axis=1)
    cells = cells[~inside]
    lo = cells.astype(float) * ell
    hi = lo + ell
    clo = cube_arr.astype(float) * side
    chi = clo + side
    gap = np.maximum(np.maximum(clo[None] - hi[:, None], lo[:, None] - chi[None]), 0.0)
    dist = np.sqrt(np.sum(gap**2, axis=-1)).min(axis=1)
    return [tuple(c) for c in cells[dist <= rng_len].tolist()]


def _default_perturbation(pair: PairedState, lambda_cubes: set, rng):
    """Move, add and delete a few particles of both chains strictly inside
    the running region."""
    region = pair.region
    cpc = _cells_per_cube(region)
    cells = []
    for cube in lambda_cubes:
        cells.extend(_cube_cells(cube, cpc))
    if not cells:
        return
    ell = region.ell_minus
    cell_set = set(cells)
    for system in (pair.sys1, pair.sys2):
        cell = cells[int(rng.random() * len(cells))]
        r = (_cell_corner(cell, ell) + rng.random(region.d) * ell)
        system._insert(r, int(rng.random() * region.S), frozen=False)
        # delete one mobile particle from inside the region if any
        inside = system.mobile_in(cell_set)
        if inside:
            system._remove(inside[int(rng.random() * len(inside))])


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
    n = len(weights)
    total = 0.0
    subset_weight = {}
    for mask in range(2**n):
        w = 1.0
        for i in range(n):
            if mask >> i & 1:
                w *= weights[i]
        subset_weight[mask] = w
        total += w
    for mask in range(1, 2**n):
        containing = sum(w for m2, w in subset_weight.items() if m2 & mask == mask)
        chain_bound = 1.0
        for i in range(n):
            if mask >> i & 1:
                chain_bound *= bounds[i]
        if containing / total > chain_bound + 1e-12:
            return False
    return True


def history_to_csv(partition: CubePartition, path):
    import csv

    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["step", "selected", "sigma_cube", "status"])
        for n, step in enumerate(partition.history):
            for q in step["sigma"]:
                wr.writerow([n, repr(step["selected"]), repr(q), step["statuses"][q]])
