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
numerically here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import lattice_kernel_stencil, profile_integral, stencil_radius

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
    "field_from_csv",
    "decay_fit_to_json",
]


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
        self.support_length = 1.0 / spec.gamma + 2.0 * spec.ell
        # (index, weight) per tap of the flipped stencil, in C order, keeping
        # the weights above machine epsilon: the terms, and their order, of
        # ndimage.convolve's sum at each cell.  Tap j reads the cell at
        # offset j - radius.
        flipped = stencil[(slice(None, None, -1),) * stencil.ndim]
        keep = np.abs(flipped) > np.finfo(float).eps
        self.taps = list(zip(np.argwhere(keep).tolist(), flipped[keep].tolist()))

    def apply(self, values: np.ndarray, margin: int = 0) -> np.ndarray:
        """V-bar acting on a ((*grid, S)) density array, returned on the cells
        at least ``margin`` cells in from every edge (cells beyond the array
        count as 0).

        One accumulator over the species total and the S species sums the
        taps in order from 0.0, so each cell equals ``ndimage.convolve`` with
        ``mode="constant"`` bit for bit."""
        x = np.concatenate([values.sum(axis=-1, keepdims=True), values], axis=-1)
        pad = max(self.radius - margin, 0)
        x = np.pad(x, [(pad, pad)] * (x.ndim - 1) + [(0, 0)])
        shape = tuple(n - 2 * margin for n in values.shape[:-1])
        start = margin + pad - self.radius
        acc = np.zeros(shape + x.shape[-1:])
        for idx, w in self.taps:
            acc += x[tuple(slice(start + j, start + j + n) for j, n in zip(idx, shape))] * w
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
        if np.any(values < 0):
            raise ValueError("densities must be nonnegative")
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

    def in_tube(self, rho_ref: np.ndarray, width: float) -> bool:
        return bool(np.all(np.abs(self.interior - rho_ref) <= width + 1e-15))

    @staticmethod
    def constant(spec: LatticeSpec, collar: int, vec) -> "LatticeField":
        vals = np.broadcast_to(
            np.asarray(vec, dtype=float), tuple(n + 2 * collar for n in spec.shape) + (spec.S,)
        ).copy()
        return LatticeField(spec, vals, collar)


@dataclass
class FunctionalConfig:
    """Parameters of the functional: temperature, tangent slope, interpolation
    weight, reference phase vector, accuracy and box widths, barrier cutoff,
    one-body switch and optional perturbation hook."""

    beta: float
    lambda_beta: float
    t: float
    rho_ref: np.ndarray
    zeta: float
    box: float  # half-width of the relaxed box around rho_ref
    epsilon: float = 0.0  # 0 disables the quartic barrier
    one_body: bool = False
    lam: float | None = None  # chemical potential in the one-body term
    a0: float = 0.5
    perturbation: "SinePerturbation | None" = None

    def __post_init__(self):
        self.rho_ref = np.asarray(self.rho_ref, dtype=float)
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0,1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not self.zeta < self.box / 2:
            raise ValueError("need zeta < box/2 for the barrier analysis")
        if self.lam is None:
            self.lam = self.lambda_beta

    @property
    def neighbor_sum(self) -> np.ndarray:
        # linear coefficient of the reference energy: sum over other species
        return self.rho_ref.sum() - self.rho_ref


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


def _interaction_field(field: LatticeField, kernel: CoarseKernel) -> np.ndarray:
    """V-bar applied to the full (interior + boundary) density, on the
    interior."""
    return kernel.apply(field.values, field.collar)


def lp_functional(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig) -> float:
    """Quadratic interaction (weight t), entropy minus chemical-potential
    term, and the linear reference energy (weight 1-t)."""
    rho = field.interior
    u_int = kernel.apply(rho)  # the interior density alone, zero elsewhere
    u_all = _interaction_field(field, kernel)
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
    return float(np.sum(logs + cfg.t * (cfg.lambda_beta - cfg.lam) * rho)) / (cfg.beta * ell_d)


def penalty(field: LatticeField, cfg: FunctionalConfig) -> float:
    """Quartic barrier outside the accuracy tube; zero inside it."""
    if cfg.epsilon == 0.0:
        return 0.0
    rho = field.interior
    up = np.clip(rho - (cfg.rho_ref + cfg.zeta), 0.0, None)
    dn = np.clip(rho - (cfg.rho_ref - cfg.zeta), None, 0.0)
    return float(np.sum(up**4 + dn**4)) / (4.0 * cfg.epsilon)


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
    u_all = _interaction_field(field, kernel)
    g = cfg.t * u_all + (1.0 - cfg.t) * cfg.neighbor_sum
    g = g + np.log(rho) / cfg.beta - cfg.lambda_beta
    if cfg.one_body:
        ell_d = field.spec.ell ** field.spec.d
        g = g + (0.5 / rho + cfg.t * (cfg.lambda_beta - cfg.lam)) / (cfg.beta * ell_d)
    if cfg.perturbation is not None:
        g = g + cfg.perturbation.grad(rho)
    if cfg.epsilon > 0:
        up = np.clip(rho - (cfg.rho_ref + cfg.zeta), 0.0, None)
        dn = np.clip(rho - (cfg.rho_ref - cfg.zeta), None, 0.0)
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


def _fixed_point_map(rho, u_all, cfg, ell_d):
    expo = -cfg.beta * (cfg.t * u_all + (1.0 - cfg.t) * cfg.neighbor_sum - cfg.lambda_beta)
    if cfg.one_body:
        expo = expo - (0.5 / rho + cfg.t * (cfg.lambda_beta - cfg.lam)) / ell_d
    if cfg.perturbation is not None:
        expo = expo - cfg.beta * cfg.perturbation.grad(rho)
    if cfg.epsilon > 0:
        up = np.clip(rho - (cfg.rho_ref + cfg.zeta), 0.0, None)
        dn = np.clip(rho - (cfg.rho_ref - cfg.zeta), None, 0.0)
        expo = expo - cfg.beta * (up**3 + dn**3) / cfg.epsilon
    return np.exp(expo)


def _minimize_single(start: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig,
                     tol: float, max_iter: int, box: float) -> tuple[LatticeField, int, float]:
    spec = start.spec
    ell_d = spec.ell**spec.d
    lo = np.maximum(cfg.rho_ref - box, 1e-12)
    hi = cfg.rho_ref + box
    fld = start
    rho = fld.interior.copy()
    alpha = 0.5
    prev_res = np.inf
    stall = 0
    for it in range(max_iter):
        u_all = _interaction_field(fld, kernel)
        target = _fixed_point_map(rho, u_all, cfg, ell_d)
        res = float(np.max(np.abs(np.clip(target, lo, hi) - rho)))
        if res < tol:
            return fld, it, res
        if res >= prev_res:
            alpha = max(alpha * 0.5, 0.05)
            stall += 1
        else:
            stall = 0
        if stall >= 8:
            break  # hand over to projected gradient
        prev_res = res
        rho = np.clip((1.0 - alpha) * rho + alpha * target, lo, hi)
        fld = fld.with_interior(rho)
    else:
        it = max_iter

    # projected-gradient fallback with backtracking line search
    step = 1.0
    f_cur = objective(fld, kernel, cfg)
    for jt in range(max_iter):
        g = gradient(fld, kernel, cfg)
        u_all = _interaction_field(fld, kernel)
        target = np.clip(_fixed_point_map(rho, u_all, cfg, ell_d), lo, hi)
        res = float(np.max(np.abs(target - rho)))
        # gradient can vanish on the box faces where the fixed point cannot;
        # accept either certificate
        proj_res = float(np.max(np.abs(np.clip(rho - g, lo, hi) - rho)))
        if res < tol or proj_res < tol:
            return fld, it + jt, min(res, proj_res)
        while step > 1e-14:
            cand = np.clip(rho - step * g, lo, hi)
            cand_f = fld.with_interior(cand)
            f_new = objective(cand_f, kernel, cfg)
            if f_new <= f_cur - 1e-4 * float(np.sum(g * (rho - cand))):
                rho, fld, f_cur = cand, cand_f, f_new
                step = min(step * 1.6, 1e3)
                break
            step *= 0.5
        else:
            return fld, it + jt, res
    raise RuntimeError(
        f"minimization did not reach residual {tol}: last fixed-point residual {res:.3e}"
    )


def minimize(boundary_field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig,
             n_starts: int = 1, seed: int = 0, tol: float = 1e-12,
             max_iter: int = 20000, box_override: float | None = None) -> MinimizeResult:
    """Minimize the objective at fixed boundary data.

    Damped fixed-point iteration (adaptive damping from 0.5), switching to a
    projected-gradient descent if it stalls; converged when the fixed-point
    residual drops below ``tol`` in sup norm.  With ``n_starts`` > 1, random
    initializations inside the accuracy tube must land on the same field
    within 1e-8 or a RuntimeError is raised.  ``box_override`` shrinks the
    projection box (e.g. to the accuracy tube itself for the hard-constrained
    problem).
    """
    box = cfg.box if box_override is None else box_override
    bvals = boundary_field.values[boundary_field.boundary_mask()]
    if np.any(np.abs(bvals - np.broadcast_to(cfg.rho_ref, bvals.shape)) > cfg.box + 1e-12):
        raise ValueError("boundary data leaves the relaxed box around the reference phase")
    rng = np.random.default_rng(seed)
    results = []
    first = _minimize_single(boundary_field.with_interior(
        np.broadcast_to(cfg.rho_ref, boundary_field.interior.shape).copy()
    ), kernel, cfg, tol, max_iter, box)
    results.append(first)
    for _ in range(n_starts - 1):
        rho0 = cfg.rho_ref + rng.uniform(-cfg.zeta, cfg.zeta, size=boundary_field.interior.shape)
        rho0 = np.maximum(rho0, 1e-12)
        results.append(_minimize_single(boundary_field.with_interior(rho0), kernel, cfg, tol, max_iter, box))
    fields = [r[0].interior for r in results]
    dispersion = 0.0
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            dispersion = max(dispersion, float(np.max(np.abs(fields[a] - fields[b]))))
    if dispersion > 1e-8:
        raise RuntimeError(f"multi-start dispersion {dispersion:.3e} exceeds 1e-8")
    best = min(results, key=lambda r: objective(r[0], kernel, cfg))
    return MinimizeResult(field=best[0], iterations=best[1], residual=best[2], dispersion=dispersion)


# ---------------------------------------------------------------------------
# curvature


def hessian_matrix(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig) -> np.ndarray:
    """Dense curvature of the objective at the field, over interior sites."""
    rho = field.interior.reshape(-1)
    if np.any(rho <= 0):
        raise ValueError("curvature needs positive densities")
    A = cfg.t * kernel.dense_interior_matrix()
    diag = 1.0 / (cfg.beta * rho)
    if cfg.one_body:
        ell_d = field.spec.ell ** field.spec.d
        diag = diag - 0.5 / (cfg.beta * ell_d * rho**2)
    if cfg.perturbation is not None:
        diag = diag + cfg.perturbation.hess_diag(field.interior).reshape(-1)
    if cfg.epsilon > 0:
        r = field.interior
        up = np.clip(r - (cfg.rho_ref + cfg.zeta), 0.0, None)
        dn = np.clip(r - (cfg.rho_ref - cfg.zeta), None, 0.0)
        diag = diag + (3.0 * (up**2 + dn**2) / cfg.epsilon).reshape(-1)
    return A + np.diag(diag)


def hessian_coercivity(field: LatticeField, kernel: CoarseKernel, cfg: FunctionalConfig,
                       kappa: float) -> tuple[float, bool]:
    """Smallest eigenvalue of the curvature and whether it clears ``kappa``.

    Precondition: the field sits within 4 zeta of the reference phase."""
    if not field.in_tube(cfg.rho_ref, 4.0 * cfg.zeta):
        raise ValueError("field outside the 4-zeta tube")
    ev = float(np.linalg.eigvalsh(hessian_matrix(field, kernel, cfg))[0])
    return ev, ev >= kappa


# ---------------------------------------------------------------------------
# decay experiment


class DecayFloorError(ValueError):
    """All interior differences sit below the resolvable floor."""


@dataclass
class DecayFit:
    omega_hat: float
    r_squared: float
    n_cells: int
    max_difference: float
    prefactor: float


def decay_experiment(boundary_a: LatticeField, boundary_b: LatticeField,
                     far_mask: np.ndarray, kernel: CoarseKernel, cfg: FunctionalConfig,
                     floor: float = 1e-14, tol: float = 1e-12) -> DecayFit:
    """Minimize with two boundaries differing only inside a far region and
    fit log(difference) against gamma times the distance to that region.

    ``far_mask`` is a boolean array over the extended grid marking the far
    region; the two boundary fields must agree outside it.
    """
    spec = boundary_a.spec
    outside = ~far_mask
    if not np.allclose(boundary_a.values[outside], boundary_b.values[outside]):
        raise ValueError("boundaries differ outside the declared far region")
    if np.any(far_mask & ~boundary_a.boundary_mask()):
        raise ValueError("far region must sit in the boundary collar")

    fa = minimize(boundary_a, kernel, cfg, tol=tol).field
    fb = minimize(boundary_b, kernel, cfg, tol=tol).field
    diff = np.max(np.abs(fa.interior - fb.interior), axis=-1)  # per cell

    # distances between cell centers, in length units
    w = boundary_a.collar
    grid_coords = np.indices(diff.shape).reshape(spec.d, -1).T + w
    far_coords = np.argwhere(far_mask)
    dists = np.min(
        np.sqrt(((grid_coords[:, None, :] - far_coords[None, :, :]) ** 2).sum(axis=2)), axis=1
    ) * spec.ell

    vals = diff.reshape(-1)
    keep = vals > floor
    if not np.any(keep):
        raise DecayFloorError("all differences below the floor; nothing to fit")
    x = spec.gamma * dists[keep]
    y = np.log(vals[keep])
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(
        omega_hat=float(-coef[1]),
        r_squared=r2,
        n_cells=int(np.sum(keep)),
        max_difference=float(vals.max()),
        prefactor=float(np.exp(coef[0])),
    )


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


def field_from_csv(path, spec: LatticeSpec, collar: int) -> LatticeField:
    import csv

    shape = tuple(n + 2 * collar for n in spec.shape) + (spec.S,)
    vals = np.zeros(shape)
    with open(path) as fh:
        rd = csv.reader(fh)
        next(rd)
        for row in rd:
            *idx, s, v = row
            vals[tuple(int(i) for i in idx) + (int(s),)] = float(v)
    return LatticeField(spec, vals, collar)


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
