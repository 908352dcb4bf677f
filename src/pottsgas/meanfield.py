"""Mean-field thermodynamics of the multi-species repulsive gas.

Everything here is exact 64-bit arithmetic on closed forms: the two branches
of the canonical free energy, the Maxwell (common tangent) construction that
yields the coexistence interval and transition chemical potential, the S+1
coexisting minimizers with their Hessians, and the one-temperature rescaling
that generates the whole phase diagram from a single solve.

Conventions: densities are plain numpy arrays of length S, ``x`` is the total
density, ``z`` in [0,1] the order parameter of the constrained minimizer
(z=0 disordered, z=1 fully ordered).  The ordered branch is parametrized
internally by ``w = 1 - z`` because ``z(x) -> 1`` exponentially fast in x and
the closed forms suffer catastrophic cancellation when written in z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "SpinSystem",
    "PhaseTarget",
    "CoexistenceSolution",
    "free_energy",
    "axis_density",
    "coexistence_threshold",
    "order_parameter_floor",
    "ratio_curve",
    "ratio_inverse",
    "canonical_free_energy",
    "one_sided_derivatives",
    "second_derivative",
    "spinodal_roots",
    "slope_gap",
    "convexity_breakpoints",
    "critical_spin_counts",
    "common_tangent",
    "convex_envelope_oracle",
    "minimizers",
    "hessian",
    "kappa_star",
    "rescale",
    "phase_diagram_curve",
    "write_phase_diagram_csv",
    "solution_to_json",
]


@dataclass(frozen=True)
class SpinSystem:
    """Spin count, inverse temperature and chemical potential."""

    S: int
    beta: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.S < 2:
            raise ValueError(f"spin count must be >= 2, got {self.S}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class PhaseTarget:
    """The phase of a restricted ensemble and of the coarse-grained
    functional: densities per species, tangent chemical potential,
    temperature, accuracy window, interpolation weight and the actual
    chemical potential ``lam``, kept as given: None follows ``lambda_beta``,
    also through ``dataclasses.replace``.  ``mu`` is ``lam`` resolved, the
    value the sampler and the functional read; ``lam=phase.mu`` pins it.  A
    value: ``rho_ref`` is a read-only copy, ``neighbor_sum`` (per species,
    the other species' summed density) is built once, read-only, and two
    instances of one class with equal fields, ``rho_ref`` by value and
    ``lam`` resolved, are equal and hash equal."""

    rho_ref: np.ndarray
    lambda_beta: float
    beta: float = 1.0
    zeta: float = 0.5
    t: float = 1.0
    lam: float | None = None

    def __post_init__(self):
        rho_ref = np.array(self.rho_ref, dtype=float)
        sums = rho_ref.sum() - rho_ref
        rho_ref.flags.writeable = sums.flags.writeable = False
        object.__setattr__(self, "rho_ref", rho_ref)
        object.__setattr__(self, "neighbor_sum", sums)
        object.__setattr__(self, "mu", self.lambda_beta if self.lam is None else self.lam)
        if not 0 < self.beta < np.inf:  # NaN included
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        for name, value in (("lambda_beta", self.lambda_beta), ("lam", self.mu)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0,1]")

    def _values(self) -> tuple:
        """The fields in declaration order, ``lam`` resolved, ``rho_ref`` a tuple."""
        names = ("mu" if f.name == "lam" else f.name for f in fields(self))
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, name) for name in names))

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __deepcopy__(self, memo):
        return self


def _check_coexistence_spins(S: int):
    if S < 3:
        raise ValueError(f"coexistence requires S >= 3, got S={S}")


# ---------------------------------------------------------------------------
# free energy of a density vector


def free_energy(rho, sys: SpinSystem) -> float:
    """Grand-canonical free energy of a density vector.

    0.5 * sum_{s != s'} rho_s rho_s' + beta^-1 sum_s rho_s (log rho_s - 1)
    - lam * sum_s rho_s, with rho log rho := 0 at rho = 0.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (sys.S,):
        raise ValueError(f"expected {sys.S} components, got shape {rho.shape}")
    if np.any(rho < 0):
        raise ValueError("density components must be nonnegative")
    interaction = 0.5 * (np.sum(rho) ** 2 - np.sum(rho**2))
    safe = np.where(rho > 0, rho, 1.0)
    entropy = np.sum(np.where(rho > 0, rho * (np.log(safe) - 1.0), 0.0))
    return float(interaction + entropy / sys.beta - sys.lam * np.sum(rho))


def axis_density(z: float, x: float, S: int) -> np.ndarray:
    """Density vector with one enhanced species: rho_1 = x(1+(S-1)z)/S,
    rho_s = x(1-z)/S for s >= 2."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"order parameter must lie in [0,1], got {z}")
    if not x > 0:
        raise ValueError(f"total density must be positive, got {x}")
    rho = np.full(S, x * (1.0 - z) / S)
    rho[0] = x * (1.0 + (S - 1) * z) / S
    return rho


# ---------------------------------------------------------------------------
# ordered-branch parametrization


def coexistence_threshold(S: int) -> float:
    """Total density above which the constrained minimizer orders:
    2 (S-1)/(S-2) log(S-1)."""
    _check_coexistence_spins(S)
    return 2.0 * (S - 1) / (S - 2) * np.log(S - 1.0)


def order_parameter_floor(S: int) -> float:
    """Smallest order parameter on the ordered branch, z_S = (S-2)/(S-1)."""
    _check_coexistence_spins(S)
    return (S - 2.0) / (S - 1.0)


def ratio_curve(z, S: int):
    """R(z) = z^-1 log[(1+(S-1)z)/(1-z)] on [z_S, 1)."""
    _check_coexistence_spins(S)
    z = np.asarray(z, dtype=float)
    if np.any(z < order_parameter_floor(S) - 1e-12) or np.any(z >= 1.0):
        raise ValueError("z outside [z_S, 1)")
    out = np.log((1.0 + (S - 1) * z) / (1.0 - z)) / z
    return float(out) if out.ndim == 0 else out


def _ratio_inverse_w(x, S: int):
    """Solve log((S-(S-1)w)/w) = x(1-w) for w = 1-z, vectorized Newton.

    The root is unique in (0, 1/(S-1)]; w ~ S e^-x for large x, so iterating
    in w keeps full relative precision where 1-z underflows.
    """
    x = np.asarray(x, dtype=float)
    w_top = 1.0 / (S - 1.0)
    w = np.minimum(w_top, S * np.exp(-x))
    w = np.maximum(w, 1e-300)
    for _ in range(80):
        phi = np.log((S - (S - 1) * w) / w) - x * (1.0 - w)
        dphi = x - 1.0 / w - (S - 1.0) / (S - (S - 1) * w)
        step = phi / dphi
        w_new = w - step
        # Newton can overshoot the domain near the w_top end; bisect back in.
        w_new = np.where(w_new <= 0, 0.5 * w, w_new)
        w_new = np.minimum(w_new, w_top)
        if np.all(np.abs(w_new - w) <= 1e-16 * np.abs(w) + 1e-300):
            w = w_new
            break
        w = w_new
    return w


def ratio_inverse(x, S: int):
    """Inverse of the ratio curve: the unique z(x) in [z_S, 1) with R(z)=x.

    The root is found in the gap variable w = 1-z, so it stays accurate for
    arbitrarily large x; the returned z however saturates float64 once
    w ~ e^-x drops below the spacing of doubles near 1 (x around 37 + log S).
    """
    x = np.asarray(x, dtype=float)
    x_s = coexistence_threshold(S)
    if np.any(x < x_s - 1e-9):
        raise ValueError(f"x below the ordering threshold {x_s}")
    z = 1.0 - _ratio_inverse_w(np.maximum(x, x_s), S)
    z = np.minimum(z, np.nextafter(1.0, 0.0))
    return float(z) if z.ndim == 0 else z


# ---------------------------------------------------------------------------
# canonical free energy: branches, derivatives, convexity


def _fdis(x, S):
    x = np.asarray(x, dtype=float)
    return 0.5 * (S - 1.0) / S * x**2 + x * (np.log(x / S) - 1.0)


def _ford(x, S, w=None):
    x = np.asarray(x, dtype=float)
    if w is None:
        w = _ratio_inverse_w(x, S)
    big = x * (S - (S - 1.0) * w) / S
    small = x * w / S
    inter = 0.5 * (x**2 - big**2 - (S - 1) * small**2)
    small_ent = np.where(small > 0, small * (np.log(np.where(small > 0, small, 1.0)) - 1.0), 0.0)
    ent = big * (np.log(big) - 1.0) + (S - 1) * small_ent
    return inter + ent


def _fdis_p(x, S):
    x = np.asarray(x, dtype=float)
    return (S - 1.0) / S * x + np.log(x / S)


def _ford_p(x, S, w=None):
    x = np.asarray(x, dtype=float)
    if w is None:
        w = _ratio_inverse_w(x, S)
    return (S - 1.0) / S * x + np.log(x / S) + np.log(w) + x * (1.0 - w) / S


def _fdis_pp(x, S):
    x = np.asarray(x, dtype=float)
    return (S - 1.0) / S + 1.0 / x


def _ford_pp(x, S, w=None):
    # (S-1)/S * z'/(x z) * (R+ - x)(x - R-), with z' = 1/R'(z(x))
    x = np.asarray(x, dtype=float)
    if w is None:
        w = _ratio_inverse_w(x, S)
    z = 1.0 - w
    # R'(z) = [1/(1-z) - 1/(1+(S-1)z) - z R(z)] / z^2 and z R(z(x)) = (1-w) x
    rp = (1.0 / w - 1.0 / (S - (S - 1) * w) - (1.0 - w) * x) / z**2
    rm_, rp_ = _spinodal_roots_w(w, S)
    return (S - 1.0) / S * (1.0 / rp) / (x * z) * (rp_ - x) * (x - rm_)


def canonical_free_energy(x, S: int, beta: float = 1.0):
    """Canonical free energy f(x): disordered branch below the threshold,
    ordered branch above.  Other temperatures come from the beta=1 solve via
    the exact scaling f_b(x) = b^-2 f_1(b x) - b^-1 x log(b)."""
    _check_coexistence_spins(S)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("total density must be positive")
    if beta != 1.0:
        return canonical_free_energy(beta * x, S) / beta**2 - x * np.log(beta) / beta
    x_s = coexistence_threshold(S)
    out = np.where(x <= x_s, _fdis(np.minimum(x, x_s), S), _ford(np.maximum(x, x_s), S))
    return float(out) if out.ndim == 0 else out


def one_sided_derivatives(x: float, S: int, beta: float = 1.0) -> tuple[float, float]:
    """(left, right) derivative of the canonical free energy at x.

    They differ only at the branch point, where left - right equals
    (1 - 2/S) log(S-1).
    """
    _check_coexistence_spins(S)
    if not x > 0:
        raise ValueError("total density must be positive")
    if beta != 1.0:
        left, right = one_sided_derivatives(beta * x, S)
        scale = lambda d: d / beta - np.log(beta) / beta
        return scale(left), scale(right)
    x_s = coexistence_threshold(S)
    left = _fdis_p(x, S) if x <= x_s else _ford_p(x, S)
    right = _fdis_p(x, S) if x < x_s else _ford_p(x, S)
    return float(left), float(right)


def slope_gap(S: int) -> float:
    """Closed form of the derivative jump at the branch point."""
    _check_coexistence_spins(S)
    return (1.0 - 2.0 / S) * np.log(S - 1.0)


def second_derivative(x: float, S: int, branch: str = "auto") -> float:
    """f''(x) on the requested branch ('disordered', 'ordered' or 'auto')."""
    _check_coexistence_spins(S)
    if not x > 0:
        raise ValueError("total density must be positive")
    x_s = coexistence_threshold(S)
    if branch == "auto":
        branch = "disordered" if x <= x_s else "ordered"
    if branch == "disordered":
        return float(_fdis_pp(x, S))
    if branch == "ordered":
        if x < x_s - 1e-9:
            raise ValueError("ordered branch starts at the threshold")
        return float(_ford_pp(max(x, x_s), S))
    raise ValueError(f"unknown branch {branch!r}")


def _spinodal_roots_w(w, S):
    # roots of X^2 - b X - c with
    #   b = S(S-2) / [(S-1)(1+(S-1)z)],  c = S^2 / [(S-1)(1-z)(1+(S-1)z)]
    big = S - (S - 1.0) * w  # = 1 + (S-1) z
    disc = S * (S + (3.0 * S - 4.0) * (1.0 - w)) / w
    pref = S / (2.0 * (S - 1.0))
    rp = pref * ((S - 2.0) + np.sqrt(disc)) / big
    rm = pref * ((S - 2.0) - np.sqrt(disc)) / big
    return rm, rp


def spinodal_roots(z: float, S: int) -> tuple[float, float]:
    """Roots (R-, R+) of the convexity polynomial of the ordered branch;
    R- < 0 < R+ always, and the branch is convex at x iff R- < x < R+ fails
    on neither side."""
    _check_coexistence_spins(S)
    if not order_parameter_floor(S) <= z < 1.0:
        raise ValueError("z outside [z_S, 1)")
    rm, rp = _spinodal_roots_w(1.0 - z, S)
    return float(rm), float(rp)


def _concavity_excess(z, S):
    # H(z) = z [R+(z) - R(z)]: negative where the ordered branch is concave.
    rm, rp = _spinodal_roots_w(1.0 - np.asarray(z, dtype=float), S)
    return z * rp - np.log((1.0 + (S - 1) * z) / (1.0 - z))


def convexity_breakpoints(S: int):
    """(z_star, x_star) where the ordered branch turns convex, or None.

    For 3 <= S <= 59 there is a unique z_star in (z_S, 1); for S >= 60 the
    ordered branch is convex everywhere and None is returned.
    """
    _check_coexistence_spins(S)
    z_lo = order_parameter_floor(S)
    if _concavity_excess(z_lo, S) >= 0.0:
        return None
    # The excess starts negative, can dip a little further (it is not
    # monotone near z_S for small S) but has a single sign change before
    # diverging to +inf as z -> 1, so the bisection bracket is sound.
    lo, hi = z_lo, 1.0 - 1e-14
    if _concavity_excess(hi, S) <= 0.0:
        raise RuntimeError("no sign change found for the convexity breakpoint")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _concavity_excess(mid, S) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    z_star = 0.5 * (lo + hi)
    return z_star, float(ratio_curve(z_star, S))


def _g_of_s(S):
    # value of the concavity excess at the branch-point order parameter
    S = np.asarray(S, dtype=float)
    disc = S * (8.0 - 11.0 * S + 4.0 * S**2)
    return S * (S - 2.0) * (S - 2.0 + np.sqrt(disc)) / (2.0 * (S - 1.0) ** 3) - 2.0 * np.log(S - 1.0)


def critical_spin_counts() -> tuple[float, float]:
    """(S_star, S_bar): the real spin count where the concavity excess at the
    branch point is most negative, and the one where it changes sign.

    S_star is the unique root of S^3 - 19 S^2 + 48 S - 36; S_bar solves
    G(S) = 0 with G the branch-point excess.
    """
    from scipy.optimize import brentq

    s_star = brentq(lambda s: s**3 - 19.0 * s**2 + 48.0 * s - 36.0, 10.0, 19.0, xtol=1e-12)
    s_bar = brentq(_g_of_s, 50.0, 70.0, xtol=1e-12)
    return float(s_star), float(s_bar)


# ---------------------------------------------------------------------------
# Maxwell construction


@dataclass
class CoexistenceSolution:
    """Common-tangent data at one temperature: coexistence interval, tangent
    slope (the transition chemical potential) and the S+1 minimizers."""

    S: int
    beta: float
    x_minus: float
    x_plus: float
    lambda_beta: float
    minimizers: list = field(default_factory=list)  # S ordered vectors then the uniform one
    kappa_star: float = 0.0

    def __post_init__(self):
        if not self.x_minus < self.x_plus:
            raise ValueError("coexistence interval is empty")


def convex_envelope_oracle(S: int, dx: float = 1e-4, span: tuple[float, float] = (0.3, 3.2),
                           beta: float = 1.0):
    """Brute-force Maxwell construction: dense grid + lower convex hull.

    Returns (x_minus, x_plus, slope) read off the hull segment that bridges
    the branch point.  Independent of the Newton solver; used to initialize it
    and as the acceptance oracle.
    """
    _check_coexistence_spins(S)
    x_s = coexistence_threshold(S) / beta
    xs = np.arange(span[0] * x_s, span[1] * x_s, dx)
    fs = canonical_free_energy(xs, S, beta=beta)
    # Andrew monotone chain, lower hull only (points already sorted in x)
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (xs[i2] - xs[i1]) * (fs[i] - fs[i1]) - (fs[i2] - fs[i1]) * (xs[i] - xs[i1])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    hx = xs[hull]
    k = int(np.searchsorted(hx, x_s)) - 1
    a, b = hull[k], hull[k + 1]
    slope = (fs[b] - fs[a]) / (xs[b] - xs[a])
    return float(xs[a]), float(xs[b]), float(slope)


def common_tangent(S: int, beta: float = 1.0) -> CoexistenceSolution:
    """Solve the Maxwell construction.

    Newton iteration on (x-, x+) for equal slopes matching the secant,
    initialized from a coarse convex-hull pass; temperatures other than 1 are
    served by rescaling the beta=1 solution.
    """
    _check_coexistence_spins(S)
    if beta != 1.0:
        return rescale(common_tangent(S, 1.0), beta)
    xm, xp, _ = convex_envelope_oracle(S, dx=2e-3)
    x_s = coexistence_threshold(S)
    for _ in range(100):
        w = _ratio_inverse_w(np.asarray(xp), S)
        f1, f2 = _fdis(xm, S), _ford(xp, S, w=w)
        d1, d2 = _fdis_p(xm, S), _ford_p(xp, S, w=w)
        gap = xp - xm
        F1 = d1 * gap - (f2 - f1)
        F2 = d2 * gap - (f2 - f1)
        J11 = _fdis_pp(xm, S) * gap
        J12 = d1 - d2
        J22 = _ford_pp(xp, S, w=w) * gap
        det = J11 * J22 - J12 * J12
        step_m = (J22 * F1 - J12 * F2) / det
        step_p = (J11 * F2 - J12 * F1) / det
        xm_new, xp_new = xm - step_m, xp - step_p
        # keep the iterates on their branches
        xm_new = min(max(xm_new, 0.05 * x_s), x_s * (1 - 1e-12))
        xp_new = max(xp_new, x_s * (1 + 1e-12))
        moved = abs(xm_new - xm) + abs(xp_new - xp)
        xm, xp = xm_new, xp_new
        if moved < 1e-14 * (abs(xm) + abs(xp)):
            break
    else:
        raise RuntimeError("common tangent Newton did not converge")
    lam = float(_fdis_p(xm, S))
    if not (second_derivative(xm, S, "disordered") > 0 and second_derivative(xp, S, "ordered") > 0):
        raise RuntimeError("tangent endpoints are not in the convex regions")
    sol = CoexistenceSolution(S=S, beta=1.0, x_minus=float(xm), x_plus=float(xp), lambda_beta=lam)
    sol.minimizers = _build_minimizers(sol)
    sol.kappa_star = kappa_star(sol)
    _check_fixed_point(sol)
    return sol


def _build_minimizers(sol: CoexistenceSolution) -> list[np.ndarray]:
    # called on the beta=1 reference solve; other temperatures go via rescale
    S = sol.S
    w = float(_ratio_inverse_w(np.asarray(sol.x_plus), S))
    big = sol.x_plus * (S - (S - 1.0) * w) / S
    small = sol.x_plus * w / S
    out = []
    for k in range(S):
        rho = np.full(S, small)
        rho[k] = big
        out.append(rho)
    out.append(np.full(S, sol.x_minus / S))
    return out


def _check_fixed_point(sol: CoexistenceSolution, tol: float = 1e-10):
    for rho in sol.minimizers:
        total = np.sum(rho)
        res = np.abs(rho - np.exp(-sol.beta * (total - rho - sol.lambda_beta)))
        if res.max() > tol:
            raise RuntimeError(f"self-consistency residual {res.max():.3e} exceeds {tol}")


def minimizers(S: int, beta: float = 1.0) -> list[np.ndarray]:
    """The S+1 coexisting density vectors (S ordered ones, one per enhanced
    species, then the uniform one)."""
    return common_tangent(S, beta).minimizers


def hessian(rho, beta: float = 1.0) -> np.ndarray:
    """Curvature of the free energy at a positive density vector:
    1/(beta rho_s) on the diagonal, 1 off it."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("Hessian needs strictly positive densities")
    S = len(rho)
    return np.diag(1.0 / (beta * rho)) + (np.ones((S, S)) - np.eye(S))


def kappa_star(sol: CoexistenceSolution) -> float:
    """Smallest Hessian eigenvalue over all coexisting minimizers."""
    smallest = np.inf
    for rho in sol.minimizers:
        ev = np.linalg.eigvalsh(hessian(rho, sol.beta))[0]
        smallest = min(smallest, float(ev))
    if smallest <= 0:
        raise RuntimeError(f"non-positive curvature {smallest} at a minimizer")
    return smallest


def rescale(sol: CoexistenceSolution, beta_prime: float) -> CoexistenceSolution:
    """Map a solution at beta to the one at beta': densities scale by
    a = beta/beta', lambda' = a lambda + a log(a)/beta."""
    if not beta_prime > 0:
        raise ValueError("beta' must be positive")
    a = sol.beta / beta_prime
    lam = a * sol.lambda_beta + a * np.log(a) / sol.beta
    out = CoexistenceSolution(
        S=sol.S,
        beta=beta_prime,
        x_minus=a * sol.x_minus,
        x_plus=a * sol.x_plus,
        lambda_beta=float(lam),
    )
    out.minimizers = [a * rho for rho in sol.minimizers]
    out.kappa_star = kappa_star(out)
    _check_fixed_point(out)
    return out


def phase_diagram_curve(S: int, beta_range: tuple[float, float], n_points: int) -> np.ndarray:
    """Coexistence curve as an (n, 2) table of (beta, lambda_beta), strictly
    sorted in beta, generated by rescaling one reference solve."""
    lo, hi = beta_range
    if not (0 < lo < np.inf and 0 < hi < np.inf):
        raise ValueError(f"beta range must be positive and finite, got {beta_range}")
    if n_points < 1:
        raise ValueError("need at least one point")
    betas = np.sort(np.linspace(lo, hi, n_points) if n_points > 1 else np.array([lo]))
    if np.any(np.diff(betas) <= 0):
        raise ValueError(f"beta range {beta_range} gives repeated betas at {n_points} points")
    ref = common_tangent(S, 1.0)
    rows = [(b, rescale(ref, b).lambda_beta) for b in betas]
    table = np.array(rows)
    if np.any(~np.isfinite(table)):
        raise RuntimeError("non-finite entries in the phase diagram table")
    return table


# ---------------------------------------------------------------------------
# emission


def write_phase_diagram_csv(fh, table: np.ndarray):
    """(beta, lambda_beta) rows, to an open text file."""
    fh.write("beta,lambda_beta\n")
    for b, lam in table:
        fh.write(f"{float(b)!r},{float(lam)!r}\n")


def solution_to_json(sol: CoexistenceSolution) -> str:
    return json.dumps(
        {
            "S": sol.S,
            "beta": sol.beta,
            "x_minus": sol.x_minus,
            "x_plus": sol.x_plus,
            "lambda_beta": sol.lambda_beta,
            "minimizers": [list(map(float, rho)) for rho in sol.minimizers],
            "kappa_star": sol.kappa_star,
        }
    )
