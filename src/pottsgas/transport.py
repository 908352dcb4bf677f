"""Couplings and transport-distance bounds on finite metric spaces.

Small instances are solved exactly (simplex on the transportation polytope),
which turns every bound here into a testable inequality: the overlap coupling
cost, the tilt-path bound for exponential families, the conditioning bound,
the total-variation lower bound, and the Gaussian mean-shift bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteMetricMeasure",
    "Coupling",
    "overlap_coupling",
    "coupling_cost",
    "exact_transport",
    "perturbation_bound",
    "conditioning_bound",
    "tv_lower_bound",
    "gaussian_variation_bound",
    "gaussian_tv_1d",
]

_MARGINAL_TOL = 1e-10


@dataclass
class FiniteMetricMeasure:
    """Probability weights on finitely many points with a full metric table
    and a designated anchor point defining the size |w| = d(w, anchor)."""

    weights: np.ndarray
    metric: np.ndarray
    anchor: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.metric = np.asarray(self.metric, dtype=float)
        n = len(self.weights)
        if self.metric.shape != (n, n):
            raise ValueError("metric table must be square and match the weights")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()}, not 1")
        if not np.allclose(self.metric, self.metric.T, atol=1e-12):
            raise ValueError("metric must be symmetric")
        if np.any(np.abs(np.diag(self.metric)) > 1e-15):
            raise ValueError("metric must vanish on the diagonal")
        # triangle inequality on all triples
        m = self.metric
        if np.any(m[:, None, :] + m[None, :, :] < m[:, :, None] - 1e-12):
            raise ValueError("metric violates the triangle inequality")
        if not 0 <= self.anchor < n:
            raise ValueError("anchor out of range")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def sizes(self) -> np.ndarray:
        """|w| = d(w, anchor) for every point."""
        return self.metric[self.anchor]

    def like(self, weights) -> "FiniteMetricMeasure":
        return FiniteMetricMeasure(np.asarray(weights, dtype=float), self.metric, self.anchor)


@dataclass
class Coupling:
    """Joint weights over support x support with prescribed marginals."""

    joint: np.ndarray

    def __post_init__(self):
        self.joint = np.asarray(self.joint, dtype=float)
        if np.any(self.joint < -1e-12):
            raise ValueError("coupling weights must be nonnegative")

    def check_marginals(self, mu1: FiniteMetricMeasure, mu0: FiniteMetricMeasure):
        if np.max(np.abs(self.joint.sum(axis=1) - mu1.weights)) > _MARGINAL_TOL:
            raise ValueError("row marginal mismatch")
        if np.max(np.abs(self.joint.sum(axis=0) - mu0.weights)) > _MARGINAL_TOL:
            raise ValueError("column marginal mismatch")


def coupling_cost(coupling: Coupling, metric: np.ndarray) -> float:
    return float(np.sum(coupling.joint * metric))


def overlap_coupling(mu1: FiniteMetricMeasure, mu0: FiniteMetricMeasure) -> Coupling:
    """Keep the common mass diagonal and spread the excess as a product.

    Its cost never exceeds sum |w| |mu1(w) - mu0(w)|; for equal measures it
    degenerates to the pure diagonal.
    """
    if mu1.metric is not mu0.metric and not np.array_equal(mu1.metric, mu0.metric):
        raise ValueError("measures must share support and metric")
    m = np.minimum(mu1.weights, mu0.weights)
    overlap_defect = 1.0 - m.sum()
    joint = np.diag(m)
    if overlap_defect > 1e-15:
        joint = joint + np.outer(mu1.weights - m, mu0.weights - m) / overlap_defect
    q = Coupling(joint)
    q.check_marginals(mu1, mu0)
    return q


def exact_transport(mu1: FiniteMetricMeasure, mu0: FiniteMetricMeasure,
                    max_support: int = 12) -> tuple[Coupling, float]:
    """Exact optimal transport by simplex on the transportation polytope."""
    from scipy.optimize import linprog  # 0.4-0.5 s to import: only this solve needs it

    n = mu1.n
    if n > max_support:
        raise ValueError(f"support size {n} exceeds the exact-solver cap {max_support}")
    c = mu1.metric.reshape(-1)
    A_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        A_eq[i, i * n : (i + 1) * n] = 1.0  # row sums
        A_eq[n + i, i::n] = 1.0  # column sums
    b_eq = np.concatenate([mu1.weights, mu0.weights])
    res = linprog(c, A_eq=A_eq[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs-ds")
    if not res.success:
        raise RuntimeError(f"transport solve failed: {res.message}")
    plan = Coupling(np.clip(res.x.reshape(n, n), 0.0, None))
    plan.check_marginals(mu1, mu0)
    return plan, float(res.fun)


def perturbation_bound(h: np.ndarray, v: np.ndarray, nu: np.ndarray,
                       measure_template: FiniteMetricMeasure,
                       n_grid: int = 101) -> dict:
    """Distance bound along the exponential tilt from h to h + v.

    mu_t has density e^{-(h + t v)} against nu.  Returns the grid supremum of
    mu_t(|w||v|) + mu_t(|w|) mu_t(|v|), the crude product bound
    2 sup|w| sup|v|, and the two endpoint measures.
    """
    h = np.asarray(h, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise ValueError("reference measure must be nonnegative")
    sizes = measure_template.sizes

    def tilt(t):
        w = nu * np.exp(-(h + t * v))
        return w / w.sum()

    sup_grid = 0.0
    for t in np.linspace(0.0, 1.0, n_grid):
        mt = tilt(t)
        sup_grid = max(sup_grid, float(mt @ (sizes * np.abs(v)) + (mt @ sizes) * (mt @ np.abs(v))))
    crude = 2.0 * float(sizes.max() * np.abs(v).max())
    return {
        "grid_bound": sup_grid,
        "crude_bound": crude,
        "mu_1": measure_template.like(tilt(1.0)),
        "mu_0": measure_template.like(tilt(0.0)),
    }


def conditioning_bound(mu: FiniteMetricMeasure, event: np.ndarray) -> tuple[Coupling, float]:
    """Coupling of mu with mu conditioned to the event, and the cost bound
    2 sup|w| mu(complement)."""
    event = np.asarray(event, dtype=bool)
    p_event = float(mu.weights[event].sum())
    if p_event <= 0:
        raise ValueError("conditioning event has zero mass")
    cond = np.where(event, mu.weights, 0.0) / p_event
    joint = np.zeros((mu.n, mu.n))
    idx = np.where(event)[0]
    joint[idx, idx] = mu.weights[event]
    out = np.where(~event)[0]
    joint[np.ix_(out, idx)] = np.outer(mu.weights[~event], cond[idx])
    q = Coupling(joint)
    q.check_marginals(mu, mu.like(cond))
    bound = 2.0 * float(mu.sizes.max()) * (1.0 - p_event)
    return q, bound


def tv_lower_bound(mu: FiniteMetricMeasure, nu_meas: FiniteMetricMeasure, events) -> float:
    """m(d) * max_A |mu(A) - nu(A)| over the supplied events; a lower bound
    on the transport distance whenever the minimal positive distance m(d) is
    positive."""
    off = mu.metric[~np.eye(mu.n, dtype=bool)]
    m_d = float(off.min())
    if m_d <= 0:
        raise ValueError("minimal positive distance must be positive")
    best = 0.0
    for ev in events:
        ev = np.asarray(ev, dtype=bool)
        best = max(best, abs(float(mu.weights[ev].sum() - nu_meas.weights[ev].sum())))
    return m_d * best


# ---------------------------------------------------------------------------
# Gaussian mean-shift bound


def gaussian_variation_bound(C: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> float:
    """Bound on the L1 distance of two Gaussian densities differing only in
    the mean: 2 ||C^-1|| ||b1-b2||_2 (sum_i C_ii)^(1/2)."""
    C = np.asarray(C, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if not np.allclose(C, C.T, atol=1e-12):
        raise ValueError("covariance must be symmetric")
    ev = np.linalg.eigvalsh(C)
    if ev[0] <= 0:
        raise ValueError("covariance must be positive definite")
    inv_norm = 1.0 / float(ev[0])
    return 2.0 * inv_norm * float(np.linalg.norm(b1 - b2)) * float(np.sqrt(np.trace(C)))


def gaussian_tv_1d(var: float, delta: float) -> float:
    """Exact total variation (sup over events) of two 1-d Gaussians with
    common variance and mean gap delta: 2 Phi(delta / (2 sigma)) - 1, which
    is erf(delta / (2 sigma sqrt 2))."""
    if var <= 0:
        raise ValueError("variance must be positive")
    return math.erf(abs(delta) / (2.0 * math.sqrt(2.0 * var)))
