import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.signal import convolve
from scipy.special import gamma as gamma_fn

from pottsgas import kernels
from pottsgas.kernels import (
    PairPotential,
    _self_convolution_table,
    _self_convolve,
    bump_norm,
    bump_profile,
    normalized_bump,
)

N_TABLE = 101


def _quad(f, lo, hi):
    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] if hi > lo else 0.0


def quad_convolution(d: int, v: float) -> float:
    """(J * J)(v) by nested adaptive quadrature in polar coordinates.

    x = r w with u = w.e; the shifted profile is positive on u > u0, where the
    circle |x| = r crosses |x - v e| = 1/2, so the inner integral runs over
    that cap alone, and the outer one is split at |1/2 - v|, where the cap
    stops being the whole sphere or starts being nonempty.
    """
    prof = normalized_bump(d)
    if d == 1:
        return _quad(lambda x: prof(abs(x)) * prof(abs(x - v)), v - 0.5, 0.5)

    def shifted(r, u):
        return prof(np.sqrt(max(r * r + v * v - 2.0 * r * v * u, 0.0)))

    def cap(r):
        u0 = (r * r + v * v - 0.25) / (2.0 * r * v) if r * v > 0 else -1.0
        u0 = min(max(u0, -1.0), 1.0)
        if d == 2:
            return 2.0 * _quad(lambda t: shifted(r, np.cos(t)), 0.0, np.arccos(u0))
        return 2.0 * np.pi * _quad(lambda u: shifted(r, u), u0, 1.0)

    def radial(r):
        return prof(r) * r ** (d - 1) * cap(r)

    kink = abs(0.5 - v)
    return _quad(radial, 0.0, kink) + _quad(radial, kink, 0.5)


@pytest.mark.parametrize("d, exact", [(1, 15 / 8), (2, 12 / np.pi), (3, 105 / (4 * np.pi))])
def test_bump_norm_is_the_quadrature_constant(d, exact):
    # the stored constants are the adaptive-quadrature values bit for bit,
    # not the closed forms, which differ in the last bits at d = 2 and 3
    val, _ = quad(lambda r: bump_profile(r) * r ** (d - 1), 0.0, 0.5, epsabs=1e-14, epsrel=1e-13)
    assert bump_norm(d) == 1.0 / (val * (2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0)))
    assert abs(bump_norm(d) - exact) <= 2 * np.spacing(exact)


def test_bump_norm_rejects_other_dimensions():
    with pytest.raises(ValueError):
        bump_norm(4)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_self_convolution_table_matches_quadrature(d):
    shifts, vals = _self_convolution_table(d, N_TABLE)
    for v in (0.0, 0.3, 0.77, 1.0):
        k = int(round(v * (N_TABLE - 1)))
        want = quad_convolution(d, shifts[k])
        assert abs(vals[k] - want) <= 1e-12 * abs(want), (v, vals[k], want)
    assert vals[-1] == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_self_convolution_table_converges_in_nodes(d):
    _, v64 = _self_convolution_table(d, N_TABLE, 64)
    _, v128 = _self_convolution_table(d, N_TABLE, 128)
    assert np.max(np.abs(v64 - v128)) <= 1e-13 * np.max(v128)


@pytest.mark.parametrize("gamma", [0.2, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_potential_integrates_to_one(d, gamma):
    # a cubic spline through the table is good to ~1e-12 here; the linear
    # interpolation the sampler uses would be good only to ~1e-6 at d = 2
    pot = PairPotential(gamma, d)
    r, vals = pot._radii, pot._vals
    area = 2.0 * np.pi ** (d / 2) / gamma_fn(d / 2)
    total = area * CubicSpline(r, vals * r ** (d - 1)).integrate(0.0, pot.range)
    assert total == pytest.approx(1.0, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("gamma, d", [(0.0, 2), (-0.5, 2), (float("nan"), 2), (0.5, 4)])
def test_pair_potential_rejects_bad_arguments(gamma, d):
    with pytest.raises(ValueError):
        PairPotential(gamma, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(0, 2**16), st.booleans())
def test_self_convolve_is_scipy_direct_convolution(d, n, seed, symmetric):
    # bit-equal to the direct method the stencil used to call
    M = np.random.default_rng(seed).random((n,) * d)
    if symmetric:  # as a cell-averaged stencil is
        M = M + np.flip(M)
    assert np.array_equal(_self_convolve(M), convolve(M, M, mode="full", method="direct"))



def test_stencil_cache_files_defaults_and_explicit_arguments_together():
    # the lattice workload asks for (gamma, ell, 2) and build_kernel for
    # (gamma, ell, 2, 4, None): one build between them
    before = kernels._lattice_kernel_stencil.cache_info()
    first = kernels.lattice_kernel_stencil(0.3713, 1.0, 2)
    again = kernels.lattice_kernel_stencil(0.3713, 1.0, 2, 4, None)
    by_name = kernels.lattice_kernel_stencil(gamma=0.3713, ell=1.0, d=2, n_panel=4)
    after = kernels._lattice_kernel_stencil.cache_info()
    assert first is again is by_name
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
