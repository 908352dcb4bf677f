"""Builders for boundary data and paired states used by the coupling
experiments: in-window frozen collars, identical or independently drawn
pairs, and hand-placed polymer marks."""

from __future__ import annotations

import numpy as np

from .screening import LadderSpec, PairedState, Polymer, PolymerSet
from .simulate import ParticleSystem, PhaseTarget, SimRegion

__all__ = [
    "fill_boundary",
    "fill_interior",
    "make_pair",
    "make_identical_pair",
    "make_mismatched_pair",
    "inject_polymer",
]


def fill_boundary(system: ParticleSystem, seed: int):
    """Populate the frozen collar (the cells within one interaction range of
    the box, outside it, in C order) with the rounded reference counts at
    uniform positions."""
    counts = np.round(system.phase.rho_ref * system.region.cell_volume).astype(int)
    w, n, d = system.w, system.n_int, system.region.d
    cells = np.indices((n + 2 * w,) * d).reshape(d, -1).T - w
    collar = cells[((cells < 0) | (cells >= n)).any(axis=1)]
    system.add_boundary(*system.draw_uniform(collar, counts, np.random.default_rng(seed)))


def fill_interior(system: ParticleSystem, seed: int):
    """Uniform in-window interior content at the rounded reference counts."""
    rng = np.random.default_rng(seed)
    system.seed_phase_configuration(rng=rng)


def make_pair(region: SimRegion, phase: PhaseTarget, boundary_seeds: tuple,
              interior_seeds: tuple, ladder: LadderSpec | None = None) -> PairedState:
    s1 = ParticleSystem(region, phase, seed=0)
    s2 = ParticleSystem(region, phase, seed=1)
    fill_boundary(s1, boundary_seeds[0])
    fill_boundary(s2, boundary_seeds[1])
    fill_interior(s1, interior_seeds[0])
    fill_interior(s2, interior_seeds[1])
    return PairedState(s1, s2, ladder=ladder)


def make_identical_pair(region: SimRegion, phase: PhaseTarget, seed: int,
                        ladder: LadderSpec | None = None) -> PairedState:
    """Both chains carry byte-identical boundary and interior content."""
    return make_pair(region, phase, (seed, seed), (seed + 7, seed + 7), ladder=ladder)


def make_mismatched_pair(region: SimRegion, phase: PhaseTarget, seed: int,
                         ladder: LadderSpec | None = None) -> PairedState:
    """Independently drawn boundaries (equal interior start; the coupled
    dynamics resamples it anyway)."""
    return make_pair(region, phase, (seed, seed + 13_371), (seed + 7, seed + 7), ladder=ladder)


def inject_polymer(pair: PairedState, cubes, into_first: bool = True,
                   label: int = 0) -> PairedState:
    """Attach a polymer with the given cube support to one chain's marks."""
    poly = Polymer(support=frozenset(map(tuple, cubes)), label=label)
    existing = pair.polymers1 if into_first else pair.polymers2
    new_set = PolymerSet(list(existing.polymers) + [poly])
    if into_first:
        pair.polymers1 = new_set
    else:
        pair.polymers2 = new_set
    return pair
