"""Finite-range pair kernels.

The interaction is built from a smooth radial probability kernel J supported
in |r| <= 1/2, scaled to range 1/gamma and convolved with itself, so that the
pair potential is nonnegative, has range 1/gamma exactly, and integrates to
one.  This module holds the base profile, its d-dimensional normalization,
the tabulated radial self-convolution used by the particle sampler (a radial
Gauss-Legendre rule over a closed-form angular integral, exact to about
1e-13 and built in tens of milliseconds), and the cell-averaged lattice
kernel used by the coarse-grained functional.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def bump_profile(r):
    """Quartic bump (1 - (2r)^2)^2 on r <= 1/2, un-normalized."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= 0.5, (1.0 - 4.0 * r * r) ** 2, 0.0)
    return float(out) if out.ndim == 0 else out


def _sphere_area(d: int) -> float:
    # surface of the unit sphere in d dimensions
    return 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)


# 1 / (|S^(d-1)| * quad of the bump times r^(d-1) over [0, 1/2]), as scipy's
# quad computes it; the exact values 15/8, 12/pi and 105/(4 pi) differ from
# these by up to 2 ulp at d = 2 and 3, which moves the lattice decay fits
_BUMP_NORM = {1: 1.875, 2: 3.8197186342054876, 3: 8.355634512324507}


def bump_norm(d: int) -> float:
    """Normalization constant making the quartic bump integrate to 1 in R^d."""
    if d not in _BUMP_NORM:
        raise ValueError(f"dimension {d} not supported")
    return _BUMP_NORM[d]


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
    from scipy.integrate import quad  # only custom profiles come here

    val, _ = quad(lambda r: float(profile(r)) * r ** (d - 1), 0.0, 0.5, epsabs=1e-14, epsrel=1e-13)
    return float(val * _sphere_area(d))


# ---------------------------------------------------------------------------
# radial self-convolution (particle-level pair potential)


_TABLE_BLOCK = 64  # shifts integrated at a time by _self_convolution_table


@lru_cache(maxsize=8)
def _self_convolution_table(d: int, n_table: int, n_nodes: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """(J * J)(v) at n_table shifts v in [0, 1], J the normalized bump at unit scale.

    In polar coordinates x = r w, 1 - 4|x - v e|^2 = a + b u with
    a = 1 - 4r^2 - 4v^2, b = 8rv and u = w.e, so J(|x - v e|) = c (a + b u)^2
    on the cap u >= u0 = clip(-a/b, -1, 1) and the angular integral is in
    closed form: the two points u = +-1 at d = 1, the arc theta <= arccos(u0)
    at d = 2 and the polar cap at d = 3.  The radial integral over [0, 1/2]
    is split at |1/2 - v|, where the cap is the whole sphere or empty on one
    side, and each piece is an n_nodes-point Gauss-Legendre rule in s with
    r = lo + (hi - lo) s^2, which clears the square-root branch of the cap at
    the split.  At d = 1 and 3 the integrand is then a polynomial in s and the
    rule is exact; at d = 2 64 and 128 nodes agree to about 1e-14.

    The shifts are integrated ``_TABLE_BLOCK`` at a time, by the same
    expressions per shift, so the table does not depend on the block size
    bit for bit and the temporaries stay at about 2 n_nodes _TABLE_BLOCK
    floats each.  Both arrays are cached per argument and returned
    read-only, since every caller shares them.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension {d} not supported")
    shifts = np.linspace(0.0, 1.0, n_table)
    s, w = np.polynomial.legendre.leggauss(n_nodes)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    vals = np.concatenate([_shift_integrals(d, shifts[i : i + _TABLE_BLOCK], s, w)
                           for i in range(0, n_table, _TABLE_BLOCK)])
    shifts.flags.writeable = vals.flags.writeable = False
    return shifts, vals


def _shift_integrals(d: int, shifts: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(J * J) at each of ``shifts`` by the rule of ``_self_convolution_table``,
    with Gauss-Legendre nodes ``s`` and weights ``w`` mapped to [0, 1]."""
    c = bump_norm(d)
    v = shifts[:, None, None]
    kink = np.abs(0.5 - v)
    lo = np.concatenate([np.zeros_like(kink), kink], axis=1)  # (shift, piece, 1)
    hi = np.concatenate([kink, np.full_like(kink, 0.5)], axis=1)
    r = lo + (hi - lo) * s * s
    dr = (hi - lo) * 2.0 * s * w
    a = 1.0 - 4.0 * r * r - 4.0 * v * v
    b = 8.0 * r * v
    if d == 1:
        angular = np.maximum(a + b, 0.0) ** 2 + np.maximum(a - b, 0.0) ** 2
    else:
        # b = 0 (r = 0 or v = 0): the cap is everything or nothing
        u0 = np.clip(np.divide(-a, b, out=np.where(a >= 0, -1.0, 1.0), where=b > 0), -1.0, 1.0)
        if d == 2:
            angular = (2.0 * a * a + b * b) * np.arccos(u0) + (4.0 * a + b * u0) * b * np.sqrt(1.0 - u0 * u0)
        else:
            top, bottom = a + b, a + b * u0
            angular = 2.0 * np.pi / 3.0 * (1.0 - u0) * (top * top + top * bottom + bottom * bottom)
    radial = c * c * (1.0 - 4.0 * r * r) ** 2 * r ** (d - 1)
    return np.sum(radial * angular * dr, axis=(1, 2))


class PairPotential:
    """Interpolated finite-range pair potential V(r) = gamma^d (J*J)(gamma r)
    between unlike species.

    The table has n_table radii spanning [0, 1/gamma]; V vanishes beyond
    1/gamma.  Linear interpolation between the tabulated points is the
    contract used by the sampler.  Every value of V lies between 0 and the
    largest tabulated value, ``tail_max(0)``: an interpolated value is a
    convex combination of two table entries.
    """

    def __init__(self, gamma: float, d: int, n_table: int = 1001):
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self.d = int(d)
        self.range = 1.0 / gamma
        shifts, vals = _self_convolution_table(self.d, n_table)
        self._radii, self._vals = shifts / gamma, gamma**d * vals

    def tail_max(self, dist):
        """Per distance r, the largest value of V at r or beyond: the
        largest table value from the table interval holding r on, since an
        interpolated value is a convex combination of its interval's ends.
        No monotonicity of the table is assumed."""
        tail = np.maximum.accumulate(self._vals[::-1])[::-1]
        k = np.searchsorted(self._radii, np.asarray(dist, dtype=float), side="right") - 1
        return tail[np.maximum(k, 0)]

    def __call__(self, dist):
        """V at ``dist``: an array for an array, an ``np.float64`` (a
        float) for a scalar."""
        # right=0.0 zeroes V past _radii[-1], which is self.range
        return np.interp(dist, self._radii, self._vals, right=0.0)


# ---------------------------------------------------------------------------
# lattice cell-averaged kernel


def lattice_kernel_stencil(gamma: float, ell: float, d: int, n_panel: int = 4,
                           profile=None) -> np.ndarray:
    """Spatial part of the coarse-grained pair kernel as a stencil.

    Builds the cell average of J_gamma on the ell-lattice by midpoint panels
    (n_panel per axis per cell), normalizes it to be exactly a discrete
    probability kernel, then self-convolves.  Entry [off + R] is the coupling
    between cells at integer offset ``off``; the stencil is symmetric with
    radius R and its full-lattice row sums are 1 to machine precision.
    ``profile`` is the radial base profile J (default: the normalized bump).
    The result is cached per value of the five arguments, defaults included,
    and returned read-only.
    """
    # one positional key: lru_cache would file (g, l, 2) and (g, l, 2, 4, None)
    # apart
    return _lattice_kernel_stencil(gamma, ell, d, n_panel, profile)


@lru_cache(maxsize=32)
def _lattice_kernel_stencil(gamma, ell, d, n_panel, profile) -> np.ndarray:
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
    # matrix, then self-convolve for the two-step kernel
    W = _self_convolve(ell**d * cell_avg)
    W.flags.writeable = False
    return W


def _self_convolve(M: np.ndarray) -> np.ndarray:
    """Full self-convolution M * M of an array with equal sides, by the
    direct sum, which keeps exact zeros and nonnegativity: np.convolve at
    d = 1, and above it one shifted copy of M per entry, added in C order."""
    if M.ndim == 1:
        return np.convolve(M, M)
    n = M.shape[0]
    W = np.zeros((2 * n - 1,) * M.ndim)
    for idx in np.ndindex(*M.shape):
        W[tuple(slice(i, i + n) for i in idx)] += M[idx] * M
    return W


def stencil_radius(W: np.ndarray) -> int:
    return (W.shape[0] - 1) // 2
