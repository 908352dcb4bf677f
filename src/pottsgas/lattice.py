"""Coarse-grained free-energy functional on a finite density lattice.

Densities live on the cells of an ell-lattice inside a box, with frozen
boundary densities on a collar wide enough to cover the interaction stencil.
The functional couples unlike species through the cell-averaged two-step
kernel, carries the entropy-minus-chemical-potential term, an interpolation
parameter t that switches between the full interaction (t=1) and a linear
reference energy (t=0), an optional one-body correction, an optional bounded
perturbation hook, and an optional quartic barrier that relaxes the
hard accuracy tube.  The minimizer is unique in the relevant boxes and decays
exponentially away from boundary perturbations; both facts are exercised
numerically here.  It is found by one damped fixed-point loop, rho =
exp(-beta * drift) projected on a box around the reference phase, which
raises if it stalls or runs out of iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import lattice_kernel_stencil, profile_integral, stencil_radius
from .meanfield import PhaseTarget

__all__ = [
    "LatticeSpec",
    "CoarseKernel",
    "LatticeField",
    "FunctionalConfig",
    "SinePerturbation",
    "DecayFloorError",
    "build_kernel",
    "lp_functional",
    "one_body_term",
    "penalty",
    "objective",
    "gradient",
    "minimize",
    "MinimizeResult",
    "hessian_matrix",
    "hessian_coercivity",
    "decay_experiment",
    "DecayFit",
    "field_to_csv",
    "decay_fit_to_json",
]

# elements of one gathered chunk of tap windows in CoarseKernel.apply (512 KB
# of float64): large enough to amortize the per-chunk calls, small enough to
# stay in cache
_CHUNK_ELEMENTS = 1 << 16

# output cells times taps above which CoarseKernel.apply convolves by FFT.
# Measured at margin=radius (BENCH_lattice_fft.json), FFT wins from about 20k
# at d = 1 and 25k at d = 2; at d = 3 the passes stay within about 20% of
# each other up to 250k.  The narrow decay stencils of the benchmark (at most
# 12,900) stay on the strided pass, bit-identical to ndimage
_FFT_CELL_TAPS = 100_000


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry: dimension, cell size, interior cell counts, range parameter,
    species count."""

    d: int
    ell: float
    shape: tuple
    gamma: float
    S: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if len(self.shape) != self.d:
            raise ValueError("shape must have one entry per dimension")
        if not 0 < self.gamma * self.ell < 1:
            raise ValueError("cell size must be below the interaction range")
        if self.S < 2:
            raise ValueError("need at least two species")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))


class CoarseKernel:
    """Cell-averaged two-step interaction kernel with unlike-species mixing.

    ``stencil`` is the spatial part; its full-lattice row sums are exactly 1.
    The species factor is 1 between distinct species and 0 on the diagonal.
    """

    def __init__(self, spec: LatticeSpec, stencil: np.ndarray):
        self.spec = spec
        self.stencil = stencil
        self.radius = stencil_radius(stencil)  # in cells
        # the taps of the flipped stencil, in C order, keeping the weights
        # above machine epsilon: the terms, and their order, of
        # ndimage.convolve's sum at each cell.  Column j of ``tap_index``
        # reads the cell at offset tap_index[:, j] - radius.
        flipped = stencil[(slice(None, None, -1),) * stencil.ndim]
        keep = np.abs(flipped) > np.finfo(float).eps
        self.tap_index = np.argwhere(keep).T  # (d, n_taps)
        self.tap_weight = flipped[keep]  # (n_taps,)
        self._plans = {}  # (values.shape, margin) -> _ApplyPlan
        self._spectra = {}  # FFT buffer grid shape -> the stencil's transform

    def apply(self, values: np.ndarray, margin: int = 0) -> np.ndarray:
        """V-bar acting on a ((*grid, S)) density array, returned on the cells
        at least ``margin`` cells in from every edge (cells beyond the array
        count as 0).

        Up to ``_FFT_CELL_TAPS`` output cells times taps this is the strided
        pass, equal to ``ndimage.convolve`` with ``mode="constant"`` bit for
        bit; above it, the FFT pass, equal to it within a few 1e-15 of the
        largest species total."""
        return self._convolve(*self._filled(values, margin))

    def _filled(self, values: np.ndarray, margin: int) -> tuple["_ApplyPlan", np.ndarray]:
        """The plan for this input shape and margin, and a fresh buffer that
        it filled from ``values``."""
        key = (values.shape, margin)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _ApplyPlan(self, values.shape, margin)
        return plan, plan.fill(values)

    def _convolve(self, plan: "_ApplyPlan", buf: np.ndarray) -> np.ndarray:
        """V-bar of a buffer that ``plan.fill()`` filled: the strided pass up to
        ``_FFT_CELL_TAPS`` output cells times taps, the FFT pass above."""
        if math.prod(plan.out_shape[:-1]) * self.tap_weight.size <= _FFT_CELL_TAPS:
            return self._apply_strided(plan, buf)
        return self._apply_fft(plan, buf)

    def _apply_strided(self, plan: "_ApplyPlan", buf: np.ndarray) -> np.ndarray:
        """One accumulator over the species total and the S species sums the
        taps in order from 0.0, so each cell equals ``ndimage.convolve`` bit
        for bit.  The taps go in chunks: each tap's window of the input is
        gathered at once, weighted, the running sum added to the chunk's first
        row, and the rows summed along the tap axis, which numpy adds one row
        after the other.  The gathers copy, so ``buf`` is left as it was."""
        # windows[j...] is the input block that tap j multiplies: the view
        # sliding_window_view(buf, shape + buf.shape[-1:]) returns, less its
        # window axis of length 1
        windows = np.ndarray(plan.window_shape, float, buffer=buf, strides=plan.window_strides)
        acc = np.zeros(plan.out_shape)
        for index, weight in plan.chunks:
            chunk = windows[index]
            chunk *= weight
            chunk[0] += acc
            acc = chunk.sum(axis=0)
        return acc[..., :1] - acc[..., 1:]

    def _apply_fft(self, plan: "_ApplyPlan", buf: np.ndarray) -> np.ndarray:
        """The same sums as one circular convolution over the zero-bordered
        buffer, whose side per axis is the output's plus twice the radius:
        every tap of an output cell reads inside it, so nothing wraps.  The
        stencil's transform is kept per buffer shape."""
        window = buf.shape[:-1]
        axes = tuple(range(len(window)))
        spectrum = self._spectra.get(window)
        if spectrum is None:
            spectrum = self._spectra[window] = np.fft.rfftn(self.stencil, window, axes)[..., None]
        conv = np.fft.irfftn(np.fft.rfftn(buf, axes=axes) * spectrum, window, axes=axes)
        # circular index y holds sum_k stencil[k] * buf[y - k]: the output
        # cell at x is y = x + 2 * radius
        acc = conv[(slice(2 * self.radius, None),) * len(window)]
        return acc[..., :1] - acc[..., 1:]

    def dense_interior_matrix(self) -> np.ndarray:
        """Dense matrix of the kernel restricted to interior sites, ordered as
        (cell, species) with cells in C order."""
        spec = self.spec
        coords = np.indices(spec.shape).reshape(spec.d, -1).T  # (n, d)
        diff = coords[:, None, :] - coords[None, :, :]
        inside = np.all(np.abs(diff) <= self.radius, axis=-1)
        # clipped so that pairs beyond the stencil index it in bounds; the
        # mask then zeroes them
        idx = tuple(np.clip(diff + self.radius, 0, 2 * self.radius).transpose(2, 0, 1))
        spatial = np.where(inside, self.stencil[idx], 0.0)
        mix = np.ones((spec.S, spec.S)) - np.eye(spec.S)
        return np.kron(spatial, mix)


class _ApplyPlan:
    """What ``CoarseKernel.apply`` needs for one input shape and margin,
    worked out once: where the input goes in the zero-padded buffer, where
    the output cells' own inputs sit in it, the shape and strides of the
    tap-window view, and each chunk's tap indices and weight column.  The
    chunk size is the ``_CHUNK_ELEMENTS`` in force when the plan is built."""

    def __init__(self, kern: CoarseKernel, in_shape: tuple, margin: int):
        r = kern.radius
        grid = in_shape[:-1]
        shape = tuple(n - 2 * margin for n in grid)
        lo, pad = max(margin - r, 0), max(r - margin, 0)
        self.buf_shape = tuple(n + 2 * r for n in shape) + (in_shape[-1] + 1,)
        self.src = tuple(slice(lo, n - lo) for n in grid)
        dst = tuple(slice(pad, pad + n - 2 * lo) for n in grid)
        self.dst_total = dst + (0,)
        self.dst_species = dst + (slice(1, None),)
        # output cell x reads its own input at buffer cell x + r: with the
        # margin at a field's collar, the window of the field's interior
        self.interior = tuple(slice(r, r + n) for n in shape)
        self.out_shape = shape + self.buf_shape[-1:]
        strides = np.empty(self.buf_shape).strides
        self.window_shape = (2 * r + 1,) * len(shape) + self.out_shape
        self.window_strides = strides[:-1] + strides
        step = max(1, _CHUNK_ELEMENTS // int(np.prod(self.out_shape)))
        self.chunks = [
            (tuple(kern.tap_index[:, k:k + step].copy()),
             kern.tap_weight[k:k + step].reshape((-1,) + (1,) * len(self.out_shape)))
            for k in range(0, kern.tap_weight.size, step)
        ]

    def fill(self, values: np.ndarray) -> np.ndarray:
        """The input on the cells within the radius of the output, the species
        total first; zero beyond the array.

        Every call returns a fresh buffer, owned by its caller: ``apply``
        convolves it once and drops it, so it stays reentrant.  A caller that
        keeps its buffer, as one minimization does, rewrites only the cells
        that change, at ``interior``, and nothing else writes to it."""
        buf = np.zeros(self.buf_shape)
        src = values[self.src]
        buf[self.dst_total] = src.sum(axis=-1)
        buf[self.dst_species] = src
        return buf


def build_kernel(spec: LatticeSpec, profile=None, n_panel: int = 4) -> CoarseKernel:
    """Cell-average the scaled base profile and self-convolve it.

    ``profile`` must be a radial probability density supported in r <= 1/2
    (default: the normalized bump); deviation of its integral from 1 beyond
    1e-8 is a domain error.
    """
    if profile is not None:
        total = profile_integral(profile, spec.d)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"profile integrates to {total}, not 1")
    W = lattice_kernel_stencil(spec.gamma, spec.ell, spec.d, n_panel, profile)
    return CoarseKernel(spec, W)


# ---------------------------------------------------------------------------
# fields


class LatticeField:
    """Densities on the extended grid: interior box plus a frozen collar.

    ``values`` has shape (*(shape + 2w), S); the first/last w slices along
    each axis are boundary data.  Interior entries are the unknowns.
    """

    def __init__(self, spec: LatticeSpec, values: np.ndarray, collar: int):
        expected = tuple(n + 2 * collar for n in spec.shape) + (spec.S,)
        if values.shape != expected:
            raise ValueError(f"expected array of shape {expected}, got {values.shape}")
        # written so that NaN fails too
        if not np.all(values >= 0):
            raise ValueError(f"densities must be nonnegative, got {values[~(values >= 0)][0]}")
        self.spec = spec
        self.values = values
        self.collar = collar

    @property
    def interior_slices(self):
        w = self.collar
        return tuple(slice(w, w + n) for n in self.spec.shape)

    @property
    def interior(self) -> np.ndarray:
        return self.values[self.interior_slices]

    def with_interior(self, rho: np.ndarray) -> "LatticeField":
        vals = self.values.copy()
        vals[self.interior_slices] = rho
        return LatticeField(self.spec, vals, self.collar)

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.values.shape[:-1], dtype=bool)
        mask[self.interior_slices] = False
        return mask

    @staticmethod
    def constant(spec: LatticeSpec, collar: int, vec) -> "LatticeField":
        vals = np.broadcast_to(
            np.asarray(vec, dtype=float), tuple(n + 2 * collar for n in spec.shape) + (spec.S,)
        ).copy()
        return LatticeField(spec, vals, collar)


@dataclass(frozen=True, kw_only=True, eq=False)
class FunctionalConfig(PhaseTarget):
    """The functional's parameters: the phase it is built on, with the
    fields, defaults, checks and value equality of ``PhaseTarget``, plus the
    relaxed box half-width, barrier cutoff, one-body switch and perturbation."""

    box: float  # half-width of the relaxed box around rho_ref
    epsilon: float = 0.0  # 0 disables the quartic barrier
    one_body: bool = False
    perturbation: "SinePerturbation | None" = None

    def __post_init__(self):
        super().__post_init__()
        if not self.epsilon >= 0:  # NaN included
            raise ValueError("epsilon must be nonnegative")
        if not self.zeta < self.box / 2:
            raise ValueError("need zeta < box/2 for the barrier analysis")


class SinePerturbation:
    """Bounded perturbation hook with gradient sup-norm
    amplitude * (gamma ell)^a0; stands in for neglected many-body terms."""

    def __init__(self, amplitude: float, a0: float, gamma_ell: float):
        if not 0 <= amplitude <= 1:
            raise ValueError("amplitude must be in [0,1] to respect the gradient bound")
        self.scale = amplitude * gamma_ell**a0

    def value(self, rho: np.ndarray) -> float:
        return self.scale * float(np.sum(np.sin(rho)))

    def grad(self, rho: np.ndarray) -> np.ndarray:
        return self.scale * np.cos(rho)

    def hess_diag(self, rho: np.ndarray) -> np.ndarray:
        return -self.scale * np.sin(rho)


# ---------------------------------------------------------------------------
# functional terms


def lp_functional(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig) -> float:
    """Quadratic interaction (weight t), entropy minus chemical-potential
    term, and the linear reference energy (weight 1-t)."""
    rho = field.interior
    u_int = kernel.apply(rho)  # the interior density alone, zero elsewhere
    u_all = kernel.apply(field.values, field.collar)  # interior and boundary
    # sum rho * u_all = (rho, V rho) + (rho, V rho_bar); subtract half the
    # interior-interior part to weight it 1/2
    quad = float(np.sum(rho * u_all) - 0.5 * np.sum(rho * u_int))
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(rho > 0, -rho * (np.log(np.where(rho > 0, rho, 1.0)) - 1.0), 0.0)
    istar = ent + cfg.beta * cfg.lambda_beta * rho
    linear = float(np.sum(cfg.neighbor_sum * rho))
    return cfg.t * quad - float(np.sum(istar)) / cfg.beta + (1.0 - cfg.t) * linear


def one_body_term(field: LatticeField, cfg: FunctionalConfig) -> float:
    """Second-order entropy correction plus the chemical-potential offset."""
    rho = field.interior
    if np.any(rho <= 0):
        raise ValueError("one-body term needs strictly positive densities")
    ell_d = field.spec.ell ** field.spec.d
    logs = np.log(np.sqrt(2.0 * np.pi * ell_d * rho))
    return float(np.sum(logs + cfg.t * (cfg.lambda_beta - cfg.mu) * rho)) / (cfg.beta * ell_d)


def penalty(field: LatticeField, cfg: FunctionalConfig) -> float:
    """Quartic barrier outside the accuracy tube; zero inside it."""
    if cfg.epsilon == 0.0:
        return 0.0
    up, dn = _excess(field.interior, cfg)
    return float(np.sum(up**4 + dn**4)) / (4.0 * cfg.epsilon)


def _excess(rho: np.ndarray, cfg: FunctionalConfig) -> tuple[np.ndarray, np.ndarray]:
    """How far each density lies above and below the accuracy tube: (up >= 0,
    dn <= 0), both zero inside it."""
    up = np.clip(rho - (cfg.rho_ref + cfg.zeta), 0.0, None)
    dn = np.clip(rho - (cfg.rho_ref - cfg.zeta), None, 0.0)
    return up, dn


def objective(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig) -> float:
    total = lp_functional(field, kernel, cfg)
    if cfg.one_body:
        total += one_body_term(field, cfg)
    if cfg.perturbation is not None:
        total += cfg.perturbation.value(field.interior)
    total += penalty(field, cfg)
    return total


def gradient(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig) -> np.ndarray:
    """Analytic gradient of the objective w.r.t. interior densities."""
    rho = field.interior
    drift = _drift(rho, kernel.apply(field.values, field.collar), cfg,
                   field.spec.ell ** field.spec.d, (1.0 - cfg.t) * cfg.neighbor_sum)
    return drift + np.log(rho) / cfg.beta


def _drift(rho, u_all, cfg, ell_d, linear):
    """The gradient less the entropy's log(rho)/beta, given the interaction
    field ``u_all`` on the interior and ``linear = (1 - t) * neighbor_sum``.
    Stationarity is the fixed point rho = exp(-beta * drift)."""
    g = cfg.t * u_all + linear - cfg.lambda_beta
    if cfg.one_body:
        g = g + (0.5 / rho + cfg.t * (cfg.lambda_beta - cfg.mu)) / (cfg.beta * ell_d)
    if cfg.perturbation is not None:
        g = g + cfg.perturbation.grad(rho)
    if cfg.epsilon > 0:
        up, dn = _excess(rho, cfg)
        g = g + (up**3 + dn**3) / cfg.epsilon
    return g


# ---------------------------------------------------------------------------
# minimization


@dataclass
class MinimizeResult:
    field: LatticeField
    iterations: int
    residual: float
    dispersion: float = 0.0
    cells_on_box_face: int = 0  # interior cells with a density on a box face


def _minimize_single(start: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig,
                     tol: float, max_iter: int, lo: np.ndarray,
                     hi: np.ndarray) -> tuple[LatticeField, int, float]:
    """Damped fixed-point iteration from ``start``, whose interior it
    overwrites with each iterate, inside the box [lo, hi].

    One convolution buffer serves the whole minimization: filled once from
    ``start``, it keeps the frozen collar, and each evaluation rewrites only
    the interior's species total and species."""
    spec = start.spec
    ell_d = spec.ell**spec.d
    linear = (1.0 - cfg.t) * cfg.neighbor_sum  # constant over the minimization
    plan, buf = kernel._filled(start.values, start.collar)
    window = buf[plan.interior]
    interior = start.values[start.interior_slices]  # a view: iterates go in here
    rho = interior.copy()
    alpha = 0.5
    prev_res = np.inf
    stall = 0
    for it in range(max_iter):
        # the fixed-point target exp(-beta * drift) and the sup distance of
        # the clipped target from rho; np.minimum(np.maximum(...)) gives
        # np.clip's floats without its Python-level wrapper
        window[..., 0] = rho.sum(axis=-1)
        window[..., 1:] = rho
        target = np.exp(-cfg.beta * _drift(rho, kernel._convolve(plan, buf), cfg, ell_d, linear))
        res = float(np.abs(np.minimum(np.maximum(target, lo), hi) - rho).max())
        if res < tol:
            return start, it, res
        if not res < np.inf:  # NaN included
            raise ValueError(f"fixed-point residual {res} at iteration {it}")
        if res >= prev_res:
            alpha = max(alpha * 0.5, 0.05)
            stall += 1
        else:
            stall = 0
        if stall >= 8:
            raise RuntimeError(f"fixed point stalled: residual {res:.3e} has not fallen "
                               f"for 8 iterations at iteration {it}")
        prev_res = res
        rho = np.minimum(np.maximum((1.0 - alpha) * rho + alpha * target, lo), hi)
        interior[...] = rho
    raise RuntimeError(
        f"minimization did not reach residual {tol}: last fixed-point residual {res:.3e}"
    )


def minimize(boundary_field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig,
             n_starts: int = 1, seed: int = 0, tol: float = 1e-12,
             max_iter: int = 20000, box_override: float | None = None) -> MinimizeResult:
    """Minimize the objective at fixed boundary data.

    One loop of damped fixed-point iteration (adaptive damping from 0.5),
    projected on the box and run at most ``max_iter`` (at least 1) times;
    converged when the fixed-point residual drops below ``tol`` in sup norm.
    A residual that has not fallen for 8 iterations in a row, or no
    convergence within ``max_iter``, raises RuntimeError.  With ``n_starts``
    > 1, random initializations inside the accuracy tube must land on the
    same field within 1e-8 or a RuntimeError is raised.  ``box_override``
    shrinks the projection box (e.g. to the accuracy tube itself for the
    hard-constrained problem).  ``cells_on_box_face`` counts the interior
    cells of the result with some density on a face of that box.

    With ``cfg.one_body`` every species needs ``ell^d (rho_ref - zeta) > 1/2``,
    so that the curvature's diagonal (1/(beta rho)) (1 - 1/(2 ell^d rho)) is
    positive on the whole accuracy tube; otherwise a ValueError is raised.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if not tol > 0:  # NaN included
        raise ValueError(f"tol must be positive, got {tol}")
    if cfg.one_body:
        n_low = boundary_field.spec.ell ** boundary_field.spec.d * (cfg.rho_ref - cfg.zeta)
        if np.any(n_low <= 0.5):
            s = int(np.argmin(n_low))
            raise ValueError(f"one-body term outside its domain: species {s} has "
                             f"ell^d (rho_ref - zeta) = {n_low[s]:.4g}, not above 1/2")
    box = cfg.box if box_override is None else box_override
    lo = np.maximum(cfg.rho_ref - box, 1e-12)
    hi = cfg.rho_ref + box
    bvals = boundary_field.values[boundary_field.boundary_mask()]
    inside = np.abs(bvals - np.broadcast_to(cfg.rho_ref, bvals.shape)) <= cfg.box + 1e-12
    if not np.all(inside):  # NaN is outside
        raise ValueError(f"boundary data leaves the relaxed box around the reference phase: "
                         f"density {bvals[~inside][0]}")
    rng = np.random.default_rng(seed)
    shape = boundary_field.interior.shape
    starts = [np.broadcast_to(cfg.rho_ref, shape)] + [
        np.maximum(cfg.rho_ref + rng.uniform(-cfg.zeta, cfg.zeta, size=shape), 1e-12)
        for _ in range(n_starts - 1)
    ]
    results = [_minimize_single(boundary_field.with_interior(rho0), kernel, cfg, tol, max_iter, lo, hi)
               for rho0 in starts]
    best, dispersion = results[0], 0.0
    if len(results) > 1:
        # the largest difference between two starts, cell by cell: rounding
        # is monotone, so max - min is the largest pairwise difference
        dispersion = float(np.ptp([r[0].interior for r in results], axis=0).max())
        if dispersion > 1e-8:
            raise RuntimeError(f"multi-start dispersion {dispersion:.3e} exceeds 1e-8")
        # the objective only ranks several starts
        best = min(results, key=lambda r: objective(r[0], kernel, cfg))
    rho = best[0].interior
    on_face = int(np.sum(np.any((rho <= lo) | (rho >= hi), axis=-1)))
    return MinimizeResult(field=best[0], iterations=best[1], residual=best[2], dispersion=dispersion,
                          cells_on_box_face=on_face)


# ---------------------------------------------------------------------------
# curvature


def hessian_matrix(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig) -> np.ndarray:
    """Dense curvature of the objective at the field, over interior sites.
    A one-body field needs ell^d rho above 1/2 at every site."""
    rho = field.interior.reshape(-1)
    if np.any(rho <= 0):
        raise ValueError("curvature needs positive densities")
    diag = 1.0 / (cfg.beta * rho)
    if cfg.one_body:
        ell_d = field.spec.ell ** field.spec.d
        if np.any(ell_d * rho <= 0.5):
            raise ValueError(f"one-body curvature needs ell^d rho above 1/2, "
                             f"got {ell_d * rho.min():.4g}")
        diag = diag - 0.5 / (cfg.beta * ell_d * rho**2)
    if cfg.perturbation is not None:
        diag = diag + cfg.perturbation.hess_diag(field.interior).reshape(-1)
    if cfg.epsilon > 0:
        up, dn = _excess(field.interior, cfg)
        diag = diag + (3.0 * (up**2 + dn**2) / cfg.epsilon).reshape(-1)
    # built in the fresh kernel matrix, with no second n x n array: the
    # same floats as t * dense + np.diag(diag)
    A = kernel.dense_interior_matrix()
    A *= cfg.t
    A.flat[:: len(diag) + 1] += diag
    return A


def hessian_coercivity(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig,
                       kappa: float) -> tuple[float, bool]:
    """Smallest eigenvalue of the curvature and whether it clears ``kappa``.

    Precondition: the field sits within 4 zeta of the reference phase."""
    if not np.all(np.abs(field.interior - cfg.rho_ref) <= 4.0 * cfg.zeta + 1e-15):
        raise ValueError("field outside the 4-zeta tube")
    ev = float(np.linalg.eigvalsh(hessian_matrix(field, kernel, cfg))[0])
    return ev, ev >= kappa


# ---------------------------------------------------------------------------
# decay experiment


class DecayFloorError(ValueError):
    """Fewer than two interior differences sit above the resolvable floor, or
    they are all equal: there is no decay to fit."""


_DECAY_FLOOR = 1e-14  # smallest per-cell difference decay_experiment fits
_DECAY_TOL = 1e-12  # fixed-point tolerance of decay_experiment's two minimizations


@dataclass
class DecayFit:
    omega_hat: float
    r_squared: float
    n_cells: int
    max_difference: float
    prefactor: float


def decay_experiment(boundary_a: LatticeField, boundary_b: LatticeField,
                     far_mask: np.ndarray, kernel: CoarseKernel, cfg: FunctionalConfig) -> DecayFit:
    """Minimize with two boundaries differing only inside a far region and
    fit log(difference) against gamma times the distance to that region.

    ``far_mask`` is a boolean array over the extended grid marking the far
    region; the two boundary fields must agree exactly outside it, since the
    fit reads differences down to ``_DECAY_FLOOR``.
    """
    spec = boundary_a.spec
    if far_mask.shape != boundary_a.values.shape[:-1]:
        raise ValueError(f"far_mask has shape {far_mask.shape}, not the extended grid's "
                         f"{boundary_a.values.shape[:-1]}")
    outside = ~far_mask
    if not np.array_equal(boundary_a.values[outside], boundary_b.values[outside]):
        raise ValueError("boundaries differ outside the declared far region")
    if np.any(far_mask & ~boundary_a.boundary_mask()):
        raise ValueError("far region must sit in the boundary collar")

    fa = minimize(boundary_a, kernel, cfg, tol=_DECAY_TOL).field
    fb = minimize(boundary_b, kernel, cfg, tol=_DECAY_TOL).field
    diff = np.max(np.abs(fa.interior - fb.interior), axis=-1)  # per cell

    # distances between cell centers, in length units
    w = boundary_a.collar
    grid_coords = np.indices(diff.shape).reshape(spec.d, -1).T + w
    far_coords = np.argwhere(far_mask)
    dists = np.min(
        np.sqrt(((grid_coords[:, None, :] - far_coords[None, :, :]) ** 2).sum(axis=2)), axis=1
    ) * spec.ell

    vals = diff.reshape(-1)
    keep = vals > _DECAY_FLOOR
    fit = _log_linear_fit(spec.gamma * dists[keep], np.log(vals[keep]))
    if fit is None:
        raise DecayFloorError("fewer than two differences above the floor, or all "
                              "equal; nothing to fit")
    prefactor, rate, r2 = fit
    return DecayFit(
        omega_hat=rate,
        r_squared=r2,
        n_cells=int(np.sum(keep)),
        max_difference=float(vals.max()),
        prefactor=prefactor,
    )


def _log_linear_fit(x, log_y):
    """Least-squares fit of ``log_y = log(prefactor) - rate * x``; returns
    ``(prefactor, rate, r_squared)``, or None for fewer than two points or a
    flat ``log_y``, where there is no decay to fit."""
    x = np.asarray(x, dtype=float)
    log_y = np.asarray(log_y, dtype=float)
    if len(x) < 2:
        return None
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    if ss_tot == 0:
        return None
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, log_y, rcond=None)
    ss_res = float(np.sum((log_y - A @ coef) ** 2))
    return float(np.exp(coef[0])), float(-coef[1]), 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# serialization


def field_to_csv(field: LatticeField, fh):
    """Rows of (index..., species, value) over the full extended grid, to a
    text file opened with ``newline=""``."""
    import csv

    wr = csv.writer(fh)
    wr.writerow([f"i{k}" for k in range(field.spec.d)] + ["species", "value"])
    for idx in np.ndindex(*field.values.shape[:-1]):
        for s in range(field.spec.S):
            wr.writerow(list(idx) + [s, repr(float(field.values[idx + (s,)]))])


def decay_fit_to_json(fit: DecayFit) -> str:
    import json

    return json.dumps(
        {
            "omega_hat": fit.omega_hat,
            "r_squared": fit.r_squared,
            "n_cells": fit.n_cells,
            "max_difference": fit.max_difference,
            "prefactor": fit.prefactor,
        }
    )
