"""Finite-range pair kernels.

The interaction is built from a smooth radial probability kernel J supported
in |r| <= 1/2, scaled to range 1/gamma and convolved with itself, so that the
pair potential is nonnegative, has range 1/gamma exactly, and integrates to
one.  This module holds the base profile, its d-dimensional normalization,
the tabulated radial self-convolution used by the particle sampler, and the
cell-averaged lattice kernel used by the coarse-grained functional.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.integrate import quad


def bump_profile(r):
    """Quartic bump (1 - (2r)^2)^2 on r <= 1/2, un-normalized."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= 0.5, (1.0 - 4.0 * r * r) ** 2, 0.0)
    return float(out) if out.ndim == 0 else out


def _sphere_area(d: int) -> float:
    # surface of the unit sphere in d dimensions
    from scipy.special import gamma as gamma_fn

    return 2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0)


@lru_cache(maxsize=None)
def bump_norm(d: int) -> float:
    """Normalization constant making the quartic bump integrate to 1 in R^d."""
    val, _ = quad(lambda r: bump_profile(r) * r ** (d - 1), 0.0, 0.5, epsabs=1e-14, epsrel=1e-13)
    return 1.0 / (val * _sphere_area(d))


def normalized_bump(d: int):
    """The default base profile: radial, C^1, supported in |r| <= 1/2,
    unit integral in R^d."""
    c = bump_norm(d)

    def profile(r):
        return c * bump_profile(r)

    return profile


def profile_integral(profile, d: int) -> float:
    """Quadrature of a radial profile over R^d (for normalization checks);
    accurate to ~1e-12, well below the 1e-8 tolerance enforced on profiles."""
    val, _ = quad(lambda r: float(profile(r)) * r ** (d - 1), 0.0, 0.5, epsabs=1e-14, epsrel=1e-13)
    return float(val * _sphere_area(d))


# ---------------------------------------------------------------------------
# radial self-convolution (particle-level pair potential)


@lru_cache(maxsize=8)
def _self_convolution_table(d: int, n_table: int, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(J * J)(v) for |v| in [0, 1], J the normalized bump at unit scale.

    Computed with a deterministic midpoint grid; d = 3 uses cylindrical
    coordinates around the shift axis.  For the shift v only grid points
    with axial coordinate >= v - 1/2 reach the shifted support, so in d = 2
    and 3 each sum runs over that sorted suffix (columns) of the grid alone.
    """
    prof = normalized_bump(d)
    shifts = np.linspace(0.0, 1.0, n_table)
    if d == 1:
        h = 1.0 / n_grid
        zs = -0.5 + (np.arange(n_grid) + 0.5) * h
        jz = prof(np.abs(zs))
        vals = np.array([np.sum(jz * prof(np.abs(zs - v))) * h for v in shifts])
    elif d == 2:
        h = 1.0 / n_grid
        g = -0.5 + (np.arange(n_grid) + 0.5) * h
        gx, gy = np.meshgrid(g, g, indexing="ij")
        r0 = np.hypot(gx, gy)
        j0 = prof(r0)
        mask = j0 > 0
        px, py, j0m = gx[mask], gy[mask], j0[mask]  # px sorted ascending
        starts = np.searchsorted(px, shifts - 0.5)
        vals = np.array(
            [np.sum(j0m[k:] * prof(np.hypot(px[k:] - v, py[k:]))) * h * h
             for v, k in zip(shifts, starts)]
        )
    elif d == 3:
        h = 1.0 / n_grid
        rho = (np.arange(n_grid // 2) + 0.5) * h  # cylindrical radius
        zax = -0.5 + (np.arange(n_grid) + 0.5) * h
        R, Z = np.meshgrid(rho, zax, indexing="ij")
        j0 = prof(np.hypot(R, Z))
        ring = 2.0 * np.pi * R * h * h  # volume element of each ring
        starts = np.searchsorted(zax, shifts - 0.5)
        vals = np.array(
            [np.sum(j0[:, k:] * prof(np.hypot(R[:, k:], Z[:, k:] - v)) * ring[:, k:])
             for v, k in zip(shifts, starts)]
        )
    else:
        raise ValueError(f"dimension {d} not supported")
    return shifts, vals


def pair_potential_table(gamma: float, d: int, n_table: int = 1001, n_grid: int = 400):
    """Radial table of the pair potential V(r) = gamma^d (J*J)(gamma r).

    Returns (radii, values) with radii spanning [0, 1/gamma]; V vanishes
    beyond 1/gamma.  Linear interpolation between the tabulated points is the
    contract used by the sampler.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    shifts, vals = _self_convolution_table(d, n_table, n_grid)
    return shifts / gamma, gamma**d * vals


class PairPotential:
    """Interpolated finite-range pair potential between unlike species."""

    def __init__(self, gamma: float, d: int, n_table: int = 1001, n_grid: int = 400):
        self.gamma = float(gamma)
        self.d = int(d)
        self.range = 1.0 / gamma
        self._radii, self._vals = pair_potential_table(gamma, d, n_table, n_grid)

    def __call__(self, dist):
        dist = np.asarray(dist, dtype=float)
        # right=0.0 zeroes V past _radii[-1], which is self.range
        out = np.interp(dist, self._radii, self._vals, right=0.0)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# lattice cell-averaged kernel


@lru_cache(maxsize=32)
def lattice_kernel_stencil(gamma: float, ell: float, d: int, n_panel: int = 4,
                           profile=None) -> np.ndarray:
    """Spatial part of the coarse-grained pair kernel as a stencil.

    Builds the cell average of J_gamma on the ell-lattice by midpoint panels
    (n_panel per axis per cell), normalizes it to be exactly a discrete
    probability kernel, then self-convolves.  Entry [off + R] is the coupling
    between cells at integer offset ``off``; the stencil is symmetric with
    radius R and its full-lattice row sums are 1 to machine precision.
    ``profile`` is the radial base profile J (default: the normalized bump).
    The result is cached per argument tuple and returned read-only.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension {d} not supported")
    if not 0 < gamma * ell < 1:
        raise ValueError("need 0 < gamma * ell < 1")
    prof = normalized_bump(d) if profile is None else profile
    h = ell / n_panel
    # cells at offset o interact when some panel pair is within range 1/(2 gamma)
    r_cells = int(np.ceil(0.5 / (gamma * ell))) + 1
    offs = np.arange(-r_cells, r_cells + 1)
    pan = (np.arange(n_panel) + 0.5) * h
    grids = np.meshgrid(*([pan] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)  # panel midpoints in one cell

    # discrete normalization: the midpoint sum of gamma^d J(gamma |v|) over
    # the h-grid replaces the continuum integral, making row sums exact
    reach = int(np.ceil(0.5 / (gamma * h))) + 1
    gax = np.arange(-reach, reach + 1) * h
    ggrids = np.meshgrid(*([gax] * d), indexing="ij")
    rr = np.sqrt(sum(g**2 for g in ggrids))
    z_h = h**d * np.sum(gamma**d * np.asarray(prof(gamma * rr)))
    if abs(z_h - 1.0) > 1e-2:
        raise ValueError("panel grid too coarse for the requested range")

    shape = (len(offs),) * d
    cell_avg = np.zeros(shape)
    diff0 = pts[None, :, :] - pts[:, None, :]  # panel-pair offsets within cells
    for idx in np.ndindex(*shape):
        off = np.array([offs[k] for k in idx], dtype=float) * ell
        dist = np.sqrt(np.sum((diff0 + off) ** 2, axis=2))
        cell_avg[idx] = np.mean(gamma**d * np.asarray(prof(gamma * dist))) / z_h
    # cell_avg is J^(ell)(0, off); multiply by ell^d to make a stochastic
    # matrix, then self-convolve for the two-step kernel (direct method keeps
    # exact zeros and nonnegativity)
    from scipy.signal import convolve

    M = ell**d * cell_avg
    W = convolve(M, M, mode="full", method="direct")
    W.flags.writeable = False
    return W


def stencil_radius(W: np.ndarray) -> int:
    return (W.shape[0] - 1) // 2
