"""Inverse bounds for banded, coercive matrices.

A symmetric matrix bounded below by kappa plus a small banded perturbation is
invertible, its inverse norm is controlled by the coercivity margin, and the
inverse entries decay exponentially away from the diagonal with a rate set by
the band-weighted norm.  These facts back the curvature analysis of the
lattice functional; here they are verified directly against dense inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BandedInstanceSpec",
    "random_instance",
    "decay_bound_report",
    "decaying_inverse_check",
    "projection_bound_check",
]


@dataclass(frozen=True)
class BandedInstanceSpec:
    """Generator parameters: size, coercivity floor, band half-width,
    perturbation size as a fraction of kappa, decay rate unit."""

    n: int = 30
    kappa: float = 1.0
    band: int = 3
    eps_fraction: float = 0.5
    gamma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.eps_fraction < 1:
            raise ValueError("perturbation fraction must be in [0,1)")
        if self.kappa <= 0 or self.gamma <= 0:
            raise ValueError("kappa and gamma must be positive")


def _band_mask(n: int, band: int) -> np.ndarray:
    idx = np.arange(n)
    return np.abs(np.subtract.outer(idx, idx)) <= band


def random_instance(spec: BandedInstanceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw (A, R1): A symmetric banded with smallest eigenvalue exactly
    kappa, R1 banded with spectral norm eps_fraction * kappa."""
    rng = np.random.default_rng(spec.seed)
    mask = _band_mask(spec.n, spec.band)
    M = rng.normal(size=(spec.n, spec.n)) * mask
    A = 0.5 * (M + M.T)
    shift = spec.kappa - np.linalg.eigvalsh(A)[0]
    A = A + shift * np.eye(spec.n)
    R1 = rng.normal(size=(spec.n, spec.n)) * mask
    target = spec.eps_fraction * spec.kappa
    if target > 0:
        R1 *= target / np.linalg.norm(R1, 2)
    else:
        R1 = np.zeros_like(R1)
    return A, R1


def _abs_distance(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=float)
    return np.abs(np.subtract.outer(idx, idx))


def decay_bound_report(A: np.ndarray, R1: np.ndarray, kappa: float, gamma: float) -> dict:
    """Verify the three inverse bounds on B = A + R1 against the dense inverse.

    Hypotheses: A symmetric with (u, Au) >= kappa (u,u) and the spectral norm
    of R1 strictly below kappa; violation is a precondition error.  Returns
    the measured quantities and margins; all ``ok_*`` flags must be true.
    """
    n = A.shape[0]
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("A must be symmetric")
    lam_min = float(np.linalg.eigvalsh(A)[0])
    if lam_min < kappa - 1e-10:
        raise ValueError(f"A is not coercive at level {kappa}: min eig {lam_min}")
    eps = float(np.linalg.norm(R1, 2))
    if eps >= kappa:
        raise ValueError(f"perturbation norm {eps} is not below kappa {kappa}")
    kp = kappa - eps
    B = A + R1
    Binv = np.linalg.inv(B)

    dist = _abs_distance(n)
    # band-weighted norm: sup_i sum_j |B(i,j)| e^{gamma |i-j|}
    a = float(np.max(np.sum(np.abs(B) * np.exp(gamma * dist), axis=1)))
    op_norm = float(np.linalg.norm(Binv, 2))
    ok_norm = op_norm <= 1.0 / kp + 1e-10

    entry_bound = (1.0 / a + 1.0 / kp) * np.exp(-kp * gamma * dist / (a + kp))
    entry_margin = float(np.min(entry_bound - np.abs(Binv)))
    ok_entries = bool(np.all(np.abs(Binv) <= entry_bound + 1e-12))

    D = np.diag(np.diag(A))
    R = (A - D) + R1
    r_inf = float(np.max(np.sum(np.abs(R), axis=1)))
    inf_bound = 1.0 / kappa + r_inf / kappa**2 * (1.0 + r_inf / kp)
    inf_norm = float(np.max(np.sum(np.abs(Binv), axis=1)))
    ok_inf = inf_norm <= inf_bound + 1e-10

    return {
        "n": n,
        "kappa": kappa,
        "eps": eps,
        "kappa_prime": kp,
        "band_weighted_norm": a,
        "inverse_norm": op_norm,
        "ok_norm": ok_norm,
        "entry_margin": entry_margin,
        "ok_entries": ok_entries,
        "inverse_inf_norm": inf_norm,
        "inf_norm_bound": inf_bound,
        "ok_inf": ok_inf,
    }


def decaying_inverse_check(spec: BandedInstanceSpec) -> dict:
    """Generate an admissible instance from the spec and verify the bounds."""
    A, R1 = random_instance(spec)
    return decay_bound_report(A, R1, spec.kappa, spec.gamma)


def projection_bound_check(n: int = 40, b: float = 20.0, c: float = 2.0, band: int = 2,
                           seed: int = 0, gamma: float = 0.3) -> dict:
    """Sandwich bound for C' A^{-1} C'' with A = D + R, diagonal D >= b and
    banded factors of weighted norm at most c: the product norm is at most
    2 c^2 / b once b >= 2 c."""
    if b < 2 * c:
        raise ValueError("need b >= 2c for the series bound")
    rng = np.random.default_rng(seed)
    mask = _band_mask(n, band)

    def banded_with_norm(target):
        M = rng.normal(size=(n, n)) * mask
        weight = np.exp(gamma * _abs_distance(n))
        cur = np.max(np.sum(np.abs(M) * weight, axis=1))
        return M * (target / cur)

    Cp = banded_with_norm(c / 3.0)
    Cpp = banded_with_norm(c / 3.0)
    R = banded_with_norm(c / 3.0)
    D = np.diag(b + np.abs(rng.normal(size=n)))
    A = D + R
    B = Cp @ np.linalg.inv(A) @ Cpp
    norm = float(np.linalg.norm(B, 2))
    bound = 2.0 * c**2 / b
    # weighted-row variant: the support width of the factors enters through
    # c_prime = band * gamma, and the same series argument needs
    # c e^{c_prime} <= b/2
    c_prime = band * gamma
    weighted = float(np.max(np.sum(np.abs(B) * np.exp(gamma * _abs_distance(n)), axis=1)))
    weighted_bound = 2.0 * c**2 * np.exp(2.0 * c_prime) / b
    ok_weighted = (c * np.exp(c_prime) > b / 2) or (weighted <= weighted_bound + 1e-12)
    return {
        "norm": norm,
        "bound": bound,
        "ok_norm": norm <= bound + 1e-12,
        "weighted_row_norm": weighted,
        "weighted_bound": weighted_bound,
        "ok_weighted": ok_weighted,
    }
