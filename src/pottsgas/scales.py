"""Validation of the length-scale ladder.

The analysis behind the numerics assumes a hierarchy of scales tied to the
interaction range: a microscopic mesh, a coarse-graining cell, the range
itself, a block scale, and an accuracy exponent.  The orderings are
asymptotic statements about the small-range limit, so a desk-scale
configuration cannot honor them; they are therefore reported as warnings,
never as errors.  The structural divisibility requirements, by contrast, are
hard constraints enforced by the geometry types themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScaleSet", "validate_scales"]


@dataclass(frozen=True)
class ScaleSet:
    """The four lengths and the accuracy parameter."""

    gamma: float
    ell0: float
    ell_minus: float
    ell_plus: float
    zeta: float
    d: int = 2

    def __post_init__(self):
        for name in ("gamma", "ell0", "ell_minus", "ell_plus"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.zeta):
            raise ValueError(f"zeta must be finite, got {self.zeta}")
        if self.d < 1:
            raise ValueError(f"dimension must be at least 1, got {self.d}")

    def exponents(self) -> dict:
        """Exponents alpha_plus, alpha_minus, a reconstructed from the
        lengths: ell_minus = gamma^-(1-alpha_minus), ell_plus =
        gamma^-(1+alpha_plus), zeta = gamma^a (meaningful for gamma < 1)."""
        if self.gamma >= 1:
            raise ValueError("exponents are defined for gamma < 1")
        log_inv = -math.log(self.gamma)
        alpha_minus = 1.0 - math.log(self.ell_minus) / log_inv
        alpha_plus = math.log(self.ell_plus) / log_inv - 1.0
        a = -math.log(self.zeta) / log_inv if self.zeta > 0 else math.inf
        return {"alpha_plus": alpha_plus, "alpha_minus": alpha_minus, "a": a}


def validate_scales(scales: ScaleSet) -> list[str]:
    """Warnings for every violated asymptotic ordering; empty when the
    configuration is consistent with the small-range hierarchy."""
    warnings = []
    rng = 1.0 / scales.gamma
    if not scales.ell0 < scales.ell_minus:
        warnings.append(f"mesh {scales.ell0} not below cell size {scales.ell_minus}")
    if not scales.ell_minus < rng:
        warnings.append(f"cell size {scales.ell_minus} not below the range {rng}")
    if not rng < scales.ell_plus:
        warnings.append(f"range {rng} not below the block size {scales.ell_plus}")
    if scales.ell0 > math.sqrt(rng) * (1 + 1e-9):
        warnings.append(
            f"mesh {scales.ell0} above sqrt of the range {math.sqrt(rng):.4g}"
        )
    try:
        ex = scales.exponents()
    except ValueError:
        warnings.append("gamma >= 1: the scale exponents are undefined")
        return warnings
    ap, am, a = ex["alpha_plus"], ex["alpha_minus"], ex["a"]
    if not 0 < a < am:
        warnings.append(f"accuracy exponent a={a:.4g} not in (0, alpha_minus={am:.4g})")
    if not am < ap:
        warnings.append(f"alpha_minus={am:.4g} not below alpha_plus={ap:.4g}")
    if not ap < 0.5:
        warnings.append(f"alpha_plus={ap:.4g} not below 1/2")
    # alpha_minus >= 1 (ell_minus <= 1) already fails one of the two checks
    # above, and at alpha_minus = 1 this ratio divides by zero
    if am < 1 and not (ap + am) * scales.d / (2 * (1 - am)) < 1e-3:
        warnings.append(
            f"(alpha_+ + alpha_-) d / (2(1 - alpha_-)) = "
            f"{(ap + am) * scales.d / (2 * (1 - am)):.4g} not below 1/1000"
        )
    if not 8 * ap + 9 * am < 0.5:
        warnings.append(f"8 alpha_+ + 9 alpha_- = {8 * ap + 9 * am:.4g} not below 1/2")
    return warnings
