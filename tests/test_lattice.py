from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from pottsgas import lattice as lat
from pottsgas import meanfield as mf
from pottsgas.kernels import normalized_bump


@pytest.fixture(scope="module")
def sol3():
    return mf.common_tangent(3)


@pytest.fixture(scope="module")
def spec2d():
    return lat.LatticeSpec(d=2, ell=2.0, shape=(8, 8), gamma=0.05, S=3)


@pytest.fixture(scope="module")
def kernel2d(spec2d):
    return lat.build_kernel(spec2d)


def make_cfg(sol3, t=1.0, **kw):
    rho_ref = sol3.minimizers[-1]  # uniform phase
    box = 0.5 * min(
        np.max(np.abs(np.asarray(a) - np.asarray(b)))
        for i, a in enumerate(sol3.minimizers)
        for b in sol3.minimizers[i + 1 :]
    )
    base = dict(
        beta=1.0,
        lambda_beta=sol3.lambda_beta,
        t=t,
        rho_ref=rho_ref,
        zeta=0.05,
        box=box,
    )
    base.update(kw)
    return lat.FunctionalConfig(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        lat.LatticeSpec(d=2, ell=3.0, shape=(4, 4), gamma=0.5, S=3)  # gamma*ell >= 1
    with pytest.raises(ValueError):
        lat.LatticeSpec(d=2, ell=1.0, shape=(4,), gamma=0.2, S=3)


@pytest.mark.parametrize("bad", [-10.0, float("nan")])
def test_nan_and_negative_densities_rejected(spec2d, kernel2d, sol3, bad):
    # every comparison with NaN is False, so both checks are written to
    # pass only on densities known to be in range
    cfg = make_cfg(sol3)
    field = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    vals = field.values.copy()
    vals[0, 0, 1] = bad
    with pytest.raises(ValueError, match="densities must be nonnegative, got"):
        lat.LatticeField(spec2d, vals, kernel2d.radius)
    field.values[0, 0, 1] = bad  # past the constructor, onto the boundary
    with pytest.raises(ValueError, match="leaves the relaxed box"):
        lat.minimize(field, kernel2d, cfg)


def test_kernel_row_sums_and_symmetry(kernel2d):
    W = kernel2d.stencil
    assert abs(W.sum() - 1.0) < 1e-10
    assert np.allclose(W, W[::-1, ::-1])
    assert np.all(W >= 0)


def test_kernel_same_species_zero(spec2d, kernel2d):
    # populate a single species; the interaction field on that species is 0
    vals = np.zeros((8, 8, 3))
    vals[3, 4, 1] = 2.0
    out = kernel2d.apply(vals)
    assert np.all(out[..., 1] == 0.0)
    assert out[3, 4, 0] > 0 and out[3, 4, 2] > 0


def test_kernel_support_bound(spec2d, kernel2d):
    # no coupling beyond range + two cell widths (sup distance)
    W = kernel2d.stencil
    R = kernel2d.radius
    cutoff = kernel2d.support_length
    for idx in np.ndindex(*W.shape):
        off = np.array(idx) - R
        if np.max(np.abs(off)) * spec2d.ell > cutoff:
            assert W[idx] == 0.0


def ndimage_apply(kern, values):
    """The kernel as S+1 ndimage convolutions: the species total minus each
    species, on the whole grid, cells beyond it counting as 0."""
    def conv(a):
        return ndimage.convolve(a, kern.stencil, mode="constant", cval=0.0)
    total = conv(values.sum(axis=-1))
    return np.stack([total - conv(values[..., s]) for s in range(values.shape[-1])], axis=-1)


def tap_loop_oracle(kern, values, margin=0):
    """The kernel as one loop over the taps of the flipped stencil, in C order,
    each adding its weighted window of the zero-padded species total and
    species to one accumulator that starts at 0.0."""
    flipped = kern.stencil[(slice(None, None, -1),) * kern.stencil.ndim]
    keep = np.abs(flipped) > np.finfo(float).eps
    taps = list(zip(np.argwhere(keep).tolist(), flipped[keep].tolist()))
    x = np.concatenate([values.sum(axis=-1, keepdims=True), values], axis=-1)
    pad = max(kern.radius - margin, 0)
    x = np.pad(x, [(pad, pad)] * (x.ndim - 1) + [(0, 0)])
    shape = tuple(n - 2 * margin for n in values.shape[:-1])
    start = margin + pad - kern.radius
    acc = np.zeros(shape + x.shape[-1:])
    for idx, w in taps:
        acc += x[tuple(slice(start + j, start + j + n) for j, n in zip(idx, shape))] * w
    return acc[..., :1] - acc[..., 1:]


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), S=st.integers(2, 4), inner=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([None, 1, 300]), data=st.data())
def test_apply_is_bit_identical_to_the_tap_loop(d, S, inner, seed, chunk, data):
    # a random, asymmetric stencil with zero and sub-epsilon weights, built
    # without the stencil cache; chunk caps the elements gathered at once
    # (None: the module's cap), so small caps carry the running sum across
    # many chunk boundaries.  A kernel plans its chunks under the cap in force
    # at its first call with a shape, so each example builds its own kernel.
    radius = data.draw(st.integers(0, 8 if d < 3 else 4))
    rng = np.random.default_rng(seed)
    stencil = rng.uniform(0.0, 1.0, size=(2 * radius + 1,) * d)
    stencil *= rng.choice([0.0, 1e-17, 1.0], p=[0.2, 0.1, 0.7], size=stencil.shape)
    kern = lat.CoarseKernel(lat.LatticeSpec(d=d, ell=1.0, shape=(inner,) * d, gamma=0.5, S=S), stencil)
    margin = data.draw(st.integers(0, radius + 1))
    values = rng.uniform(0.1, 1.0, size=(inner + 2 * margin,) * d + (S,))
    with mock.patch.object(lat, "_CHUNK_ELEMENTS", chunk or lat._CHUNK_ELEMENTS):
        out = kern.apply(values, margin)
    assert np.array_equal(out, tap_loop_oracle(kern, values, margin))


@pytest.mark.parametrize("margin", [0, 12])
def test_apply_over_many_chunks_is_bit_identical_to_the_tap_loop(margin):
    # radius 12, 401 taps on a 16x16 interior: 64 taps a chunk, 7 chunks.
    # Above _FFT_CELL_TAPS, so apply would take the FFT pass: the strided
    # pass is called by name
    kern = lat.build_kernel(lat.LatticeSpec(d=2, ell=2.0, shape=(16, 16), gamma=0.05, S=3))
    assert kern.radius == 12 and kern.tap_weight.size == 401
    assert kern.tap_weight.size * 16 * 16 * 4 > 6 * lat._CHUNK_ELEMENTS
    values = np.random.default_rng(4).uniform(0.1, 1.0, size=(16 + 2 * margin,) * 2 + (3,))
    assert np.array_equal(kern._apply_strided(*kern._filled(values, margin)), tap_loop_oracle(kern, values, margin))


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), S=st.integers(2, 4), inner=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_fft_pass_matches_the_tap_loop(d, S, inner, seed, data):
    # the FFT pass reorders the sums, so on a stencil summing to 1, as the
    # lattice stencils do, it agrees with the tap loop to a few ulp of the
    # largest species total, whatever the stencil's shape
    radius = data.draw(st.integers(0, 8 if d < 3 else 4))
    rng = np.random.default_rng(seed)
    stencil = rng.uniform(0.0, 1.0, size=(2 * radius + 1,) * d)
    stencil *= rng.choice([0.0, 1e-17, 1.0], p=[0.2, 0.1, 0.7], size=stencil.shape)
    if stencil.any():
        stencil /= stencil.sum()
    kern = lat.CoarseKernel(lat.LatticeSpec(d=d, ell=1.0, shape=(inner,) * d, gamma=0.5, S=S), stencil)
    margin = data.draw(st.integers(0, radius + 1))
    values = rng.uniform(0.1, 1.0, size=(inner + 2 * margin,) * d + (S,))
    out = kern._apply_fft(*kern._filled(values, margin))
    want = tap_loop_oracle(kern, values, margin)
    assert out.shape == want.shape
    assert np.max(np.abs(out - want)) <= 1e-13 * values.sum(axis=-1).max()


@pytest.mark.parametrize("gamma", [0.5, 0.3, 0.2])
def test_apply_on_the_narrow_decay_stencils_is_the_tap_loop(gamma):
    # the benchmark's narrow decay stencils on their 10x10 boxes: the fits
    # read boundary responses down to 1e-14, and a reordered sum moves
    # omega_hat by about 1e-6, so these must stay on the strided pass
    cells = 10
    kern = lat.build_kernel(lat.LatticeSpec(d=2, ell=1.0, shape=(cells, cells), gamma=gamma, S=3))
    r = kern.radius
    values = np.random.default_rng(5).uniform(0.1, 1.0, size=(cells + 2 * r,) * 2 + (3,))
    assert np.array_equal(kern.apply(values, r), tap_loop_oracle(kern, values, r))


def test_apply_takes_the_fft_pass_above_the_size_rule():
    # the benchmark's wide stencil on a 16x16 interior: 1,437 taps
    kern = lat.build_kernel(lat.LatticeSpec(d=2, ell=1.0, shape=(16, 16), gamma=0.05, S=3))
    r = kern.radius
    assert 16 * 16 * kern.tap_weight.size > lat._FFT_CELL_TAPS
    values = np.random.default_rng(6).uniform(0.1, 1.0, size=(16 + 2 * r,) * 2 + (3,))
    assert np.array_equal(kern.apply(values, r), kern._apply_fft(*kern._filled(values, r)))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), S=st.integers(2, 3), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([None, 1, 300]), data=st.data())
def test_one_kernel_over_interleaved_shapes_and_margins(d, S, seed, chunk, data):
    # apply keeps a plan per (input shape, margin): calls that alternate
    # between shapes and margins (0, inside, at and past the radius) must each
    # equal the tap loop, and a later call must not change an earlier result
    radius = data.draw(st.integers(1, 5 if d < 3 else 2))
    rng = np.random.default_rng(seed)
    stencil = rng.uniform(0.0, 1.0, size=(2 * radius + 1,) * d)
    stencil *= rng.choice([0.0, 1.0], p=[0.2, 0.8], size=stencil.shape)
    kern = lat.CoarseKernel(lat.LatticeSpec(d=d, ell=1.0, shape=(1,) * d, gamma=0.5, S=S), stencil)
    margins = st.sampled_from([0, 1, radius, radius + 1, radius + 2])
    calls = data.draw(st.lists(st.tuples(st.integers(1, 3), margins), min_size=2, max_size=6))
    kept = []
    with mock.patch.object(lat, "_CHUNK_ELEMENTS", chunk or lat._CHUNK_ELEMENTS):
        for inner, margin in calls + calls[:1]:  # the first key again: a reused plan
            values = rng.uniform(0.1, 1.0, size=(inner + 2 * margin,) * d + (S,))
            out = kern.apply(values, margin)
            assert np.array_equal(out, tap_loop_oracle(kern, values, margin))
            kept.append((out, out.copy()))
    assert all(np.array_equal(out, copy) for out, copy in kept)


def test_apply_with_no_taps_is_zero():
    spec = lat.LatticeSpec(d=2, ell=1.0, shape=(3, 3), gamma=0.3, S=3)
    kern = lat.CoarseKernel(spec, np.zeros((3, 3)))
    assert kern.tap_weight.size == 0
    values = np.random.default_rng(1).uniform(0.1, 1.0, size=(5, 5, 3))
    for margin in (0, 1):
        out = kern.apply(values, margin)
        assert out.shape == (5 - 2 * margin,) * 2 + (3,)
        assert np.array_equal(out, tap_loop_oracle(kern, values, margin))
        assert not np.any(out)


@pytest.mark.parametrize("S", [2, 3, 4])
@pytest.mark.parametrize("d, gamma, ell, cells", [
    (1, 0.25, 1.0, 9), (2, 0.3, 1.0, 10), (3, 0.3, 1.0, 4),
    (2, 0.05, 2.0, 8),  # wide: radius 12
])
def test_apply_is_bit_identical_to_ndimage(d, gamma, ell, cells, S):
    # the strided pass must add the same products in the same order as
    # ndimage.convolve; a changed summation order in numpy or scipy shows
    # here.  Some of these sizes are above _FFT_CELL_TAPS, so the pass is
    # called by name
    kern = lat.build_kernel(lat.LatticeSpec(d=d, ell=ell, shape=(cells,) * d, gamma=gamma, S=S))
    r = kern.radius
    rng = np.random.default_rng(d * 10 + S)
    values = rng.uniform(0.1, 1.0, size=(cells + 2 * r,) * d + (S,))
    full = ndimage_apply(kern, values)
    for margin in (0, 1, r, r + 1):
        inner = tuple(slice(margin, n - margin) for n in values.shape[:-1])
        assert np.array_equal(kern._apply_strided(*kern._filled(values, margin)), full[inner]), margin


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), ell=st.floats(0.5, 2.0), S=st.integers(2, 4), data=st.data())
def test_apply_on_a_constant_density_is_the_row_sum(d, ell, S, data):
    # away from the edges a constant density sees whole stencil rows, which
    # sum to 1: V-bar is (sum(rho) - rho_s) * stencil.sum()
    gamma_ell = data.draw(st.floats(0.2 if d == 3 else 0.1, 0.75))  # small d=3 stencils
    kern = lat.build_kernel(lat.LatticeSpec(d=d, ell=ell, shape=(1,) * d, gamma=gamma_ell / ell, S=S))
    W = kern.stencil
    assert abs(W.sum() - 1.0) < 1e-10
    rho = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=S, max_size=S)))
    margin = kern.radius + data.draw(st.integers(0, 2))
    inner = data.draw(st.integers(1, 3))
    values = np.broadcast_to(rho, (inner + 2 * margin,) * d + (S,))
    out = kern.apply(values, margin)
    assert out.shape == (inner,) * d + (S,)
    want = (rho.sum() - rho) * W.sum()
    assert np.allclose(out, want, rtol=1e-12, atol=0.0)


def test_kernel_dense_matches_apply(spec2d, kernel2d):
    rng = np.random.default_rng(3)
    dense = kernel2d.dense_interior_matrix()
    vals = np.zeros((8, 8, 3))
    rho = rng.uniform(0.2, 1.0, size=vals.shape)
    # zero boundary: interior-only application equals the dense product
    out = kernel2d.apply(rho)
    assert np.allclose(dense @ rho.reshape(-1), out.reshape(-1), atol=1e-12)


@pytest.mark.parametrize("cells", [5, 9])
def test_dense_interior_matrix_on_a_box_wider_than_the_stencil(cells):
    # radius 6 at gamma=0.25, ell=1: nine cells are wider than radius + 1
    spec = lat.LatticeSpec(d=1, ell=1.0, shape=(cells,), gamma=0.25, S=3)
    kern = lat.build_kernel(spec)
    pad = kern.radius
    n = cells * spec.S
    # column j of the oracle is apply on the zero-padded unit vector e_j
    oracle = np.empty((n, n))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        vals = np.pad(unit.reshape(cells, spec.S), ((pad, pad), (0, 0)))
        oracle[:, j] = kern.apply(vals)[pad:pad + cells].reshape(-1)
    assert np.array_equal(kern.dense_interior_matrix(), oracle)


def test_hessian_coercivity_on_a_box_wider_than_the_stencil(sol3):
    spec = lat.LatticeSpec(d=2, ell=2.0, shape=(16, 16), gamma=0.05, S=3)
    kern = lat.build_kernel(spec)
    assert spec.shape[0] > kern.radius + 1
    cfg = make_cfg(sol3, one_body=True)
    base = lat.LatticeField.constant(spec, kern.radius, cfg.rho_ref)
    rng = np.random.default_rng(0)
    rho = cfg.rho_ref + rng.uniform(-4 * cfg.zeta, 4 * cfg.zeta, size=spec.shape + (spec.S,))
    ev, ok = lat.hessian_coercivity(base.with_interior(rho), kern, cfg, kappa=0.5 * sol3.kappa_star)
    assert ok, ev


def test_build_kernel_rejects_unnormalized(spec2d):
    bump = normalized_bump(2)
    with pytest.raises(ValueError):
        lat.build_kernel(spec2d, profile=lambda r: 1.05 * np.asarray(bump(r)))


def test_build_kernel_reuses_the_cached_stencil(spec2d, kernel2d):
    again = lat.build_kernel(spec2d)
    assert again.stencil is kernel2d.stencil
    assert not again.stencil.flags.writeable


def test_explicit_default_profile_gives_the_same_stencil(spec2d, kernel2d):
    explicit = lat.build_kernel(spec2d, profile=normalized_bump(2))
    assert np.array_equal(explicit.stencil, kernel2d.stencil)


def test_perfect_field_gradient_vanishes(spec2d, kernel2d, sol3):
    for k, rho_ref in ((3, sol3.minimizers[-1]), (0, sol3.minimizers[0])):
        for t in (0.0, 0.5, 1.0):
            cfg = make_cfg(sol3, t=t, rho_ref=rho_ref)
            fld = lat.LatticeField.constant(spec2d, kernel2d.radius, rho_ref)
            g = lat.gradient(fld, kernel2d, cfg)
            assert np.max(np.abs(g)) < 1e-12


def test_functional_scalar_limit(sol3):
    # a single cell with a zero kernel reduces to the scalar expression
    spec = lat.LatticeSpec(d=1, ell=1.0, shape=(1,), gamma=0.3, S=3)
    zeroW = np.zeros((3,))
    kern = lat.CoarseKernel(spec, zeroW)
    cfg = make_cfg(sol3, t=0.3)
    rho = np.array([[0.9, 0.7, 0.5]])
    fld = lat.LatticeField(spec, np.vstack([[cfg.rho_ref], rho, [cfg.rho_ref]]), 1)
    val = lat.lp_functional(fld, kern, cfg)
    m = cfg.neighbor_sum
    istar = -rho[0] * (np.log(rho[0]) - 1) + cfg.beta * cfg.lambda_beta * rho[0]
    expected = -np.sum(istar) / cfg.beta + (1 - cfg.t) * np.sum(m * rho[0])
    assert val == pytest.approx(expected, rel=1e-13)


def test_functional_t_zero_no_interaction(spec2d, kernel2d, sol3):
    rng = np.random.default_rng(5)
    cfg = make_cfg(sol3, t=0.0)
    rho = rng.uniform(0.3, 1.2, size=(8, 8, 3))
    fld = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref).with_interior(rho)
    val = lat.lp_functional(fld, kernel2d, cfg)
    istar = -rho * (np.log(rho) - 1) + cfg.beta * cfg.lambda_beta * rho
    expected = -np.sum(istar) / cfg.beta + np.sum(cfg.neighbor_sum * rho)
    assert val == pytest.approx(expected, rel=1e-12)


def test_one_body_term_values(spec2d, sol3):
    cfg = make_cfg(sol3, one_body=True)
    # lam defaults to lambda_beta: offset term vanishes; log term vanishes at
    # rho = 1/(2 pi ell^d)
    ell_d = spec2d.ell**2
    fld = lat.LatticeField.constant(spec2d, 2, np.full(3, 1.0 / (2 * np.pi * ell_d)))
    assert lat.one_body_term(fld, cfg) == pytest.approx(0.0, abs=1e-13)

    # two-cell hand evaluation
    spec = lat.LatticeSpec(d=1, ell=2.0, shape=(2,), gamma=0.2, S=3)
    rho = np.array([[0.5, 0.6, 0.7], [0.8, 0.9, 1.0]])
    fld2 = lat.LatticeField(spec, np.vstack([[cfg.rho_ref], rho, [cfg.rho_ref]]), 1)
    cfg2 = make_cfg(sol3, one_body=True, lam=sol3.lambda_beta - 0.1, t=0.5)
    expected = np.sum(np.log(np.sqrt(2 * np.pi * 2.0 * rho)) + 0.5 * 0.1 * rho) / 2.0
    assert lat.one_body_term(fld2, cfg2) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        lat.one_body_term(fld2.with_interior(np.zeros((2, 3))), cfg2)


def test_penalty_zero_inside_tube(spec2d, sol3):
    cfg = make_cfg(sol3, epsilon=1e-3)
    inside = cfg.rho_ref + 0.9 * cfg.zeta
    fld = lat.LatticeField.constant(spec2d, 2, inside)
    assert lat.penalty(fld, cfg) == 0.0
    # gradient contribution also vanishes strictly inside
    outside = cfg.rho_ref + 2.0 * cfg.zeta
    fld_out = lat.LatticeField.constant(spec2d, 2, outside)
    assert lat.penalty(fld_out, cfg) > 0.0


def test_gradient_matches_finite_differences(sol3):
    spec = lat.LatticeSpec(d=2, ell=2.0, shape=(3, 3), gamma=0.1, S=3)
    kern = lat.build_kernel(spec)
    rng = np.random.default_rng(11)
    for trial in range(20):
        t = rng.uniform(0, 1)
        cfg = make_cfg(
            sol3,
            t=t,
            epsilon=1e-2 if trial % 2 else 0.0,
            one_body=bool(trial % 3),
            lam=sol3.lambda_beta - 0.05,
            perturbation=lat.SinePerturbation(0.5, 0.5, spec.gamma * spec.ell) if trial % 4 == 0 else None,
        )
        base = lat.LatticeField.constant(spec, kern.radius, cfg.rho_ref)
        rho = cfg.rho_ref + rng.uniform(-1.5 * cfg.zeta, 1.5 * cfg.zeta, size=(3, 3, 3))
        fld = base.with_interior(rho)
        g = lat.gradient(fld, kern, cfg)
        H = lat.hessian_matrix(fld, kern, cfg)
        h = 1e-6
        for _ in range(6):
            idx = tuple(rng.integers(0, 3, size=2)) + (int(rng.integers(0, 3)),)
            up = base.with_interior(rho.copy())
            up.interior[idx] += h
            dn = base.with_interior(rho.copy())
            dn.interior[idx] -= h
            fd = (lat.objective(up, kern, cfg) - lat.objective(dn, kern, cfg)) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            # the curvature's column at idx against central differences of
            # the gradient
            fd_col = (lat.gradient(up, kern, cfg) - lat.gradient(dn, kern, cfg)) / (2 * h)
            col = H[:, np.ravel_multi_index(idx, rho.shape)]
            assert col == pytest.approx(fd_col.reshape(-1), rel=1e-5, abs=1e-7)


def test_minimize_perfect_boundary_exact(spec2d, kernel2d, sol3):
    for rho_ref in (sol3.minimizers[-1], sol3.minimizers[0]):
        for t in (0.0, 0.5, 1.0):
            cfg = make_cfg(sol3, t=t, rho_ref=rho_ref)
            bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, rho_ref)
            res = lat.minimize(bnd, kernel2d, cfg)
            assert np.max(np.abs(res.field.interior - rho_ref)) < 1e-10


def test_minimize_multistart_unique(spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3, t=1.0)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref * 1.02)
    res = lat.minimize(bnd, kernel2d, cfg, n_starts=4, seed=42)
    assert res.dispersion < 1e-8
    assert res.residual < 1e-12


def test_minimize_t0_matches_percell_newton(spec2d, kernel2d, sol3):
    # at t=0 the stationarity decouples; solve each cell by 1-d Newton
    cfg = make_cfg(sol3, t=0.0, one_body=True)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    res = lat.minimize(bnd, kernel2d, cfg)
    ell_d = spec2d.ell**2
    for s in range(3):
        # solve log(x)/beta + 1/(2 beta ell_d x) = lambda_beta - m_s
        target = cfg.lambda_beta - cfg.neighbor_sum[s]
        x = cfg.rho_ref[s]
        for _ in range(60):
            fval = np.log(x) / cfg.beta + 0.5 / (cfg.beta * ell_d * x) - target
            fp = 1.0 / (cfg.beta * x) - 0.5 / (cfg.beta * ell_d * x**2)
            x = x - fval / fp
        assert np.max(np.abs(res.field.interior[..., s] - x)) < 1e-10


def one_body_case(S, beta=1.0, phase=-1):
    """lp-minimize's config S, d=1, ell=1, cells=[6], gamma=0.1, t=0.5,
    one_body, zeta=0.05 at ``beta``, around ``sol.minimizers[phase]`` (the
    uniform phase by default): the boundary field, kernel and config."""
    sol = mf.common_tangent(S, beta)
    box = 0.5 * max(float(np.max(np.abs(a - b)))
                    for i, a in enumerate(sol.minimizers) for b in sol.minimizers[i + 1:])
    spec = lat.LatticeSpec(d=1, ell=1.0, shape=(6,), gamma=0.1, S=S)
    kern = lat.build_kernel(spec)
    cfg = lat.FunctionalConfig(beta=sol.beta, lambda_beta=sol.lambda_beta, t=0.5,
                               rho_ref=sol.minimizers[phase], zeta=0.05, box=box, one_body=True)
    return lat.LatticeField.constant(spec, kern.radius, cfg.rho_ref), kern, cfg


def stalled_case():
    """The one-body config at S=3, beta=1: the one-body term pulls the damped
    fixed point down towards the box floor, and it stalls on the way."""
    return one_body_case(3)


STALL = "fixed point stalled: residual .* has not fallen for 8 iterations at iteration 14"


def test_minimize_raises_on_a_stalled_fixed_point():
    # the stall is reported at once, not handed to another loop: no
    # objective evaluation and one convolution per iteration
    bnd, kern, cfg = stalled_case()
    with mock.patch.object(lat, "objective", side_effect=lat.objective) as objective, \
            mock.patch.object(lat.CoarseKernel, "_convolve", autospec=True,
                              side_effect=lat.CoarseKernel._convolve) as convolve:
        with pytest.raises(RuntimeError, match=STALL):
            lat.minimize(bnd, kern, cfg)
    assert not objective.called
    assert convolve.call_count == 15


def test_minimize_refuses_a_tube_outside_the_one_body_domain():
    # ordered phase at S=3, beta=0.5: the minority species sit at 0.217, so
    # ell^d (rho_ref - zeta) = 0.167 and the one-body curvature is negative
    # on part of the tube; refused before any iteration
    bnd, kern, cfg = one_body_case(3, beta=0.5, phase=0)
    with mock.patch.object(lat, "_minimize_single") as single:
        with pytest.raises(ValueError, match=r"species 1 has ell\^d \(rho_ref - zeta\) = 0.1671"):
            lat.minimize(bnd, kern, cfg)
    assert not single.called
    # without the one-body term the same tube is admitted
    cfg.one_body = False
    assert lat.minimize(bnd, kern, cfg).residual < 1e-12


def test_minimize_counts_the_cells_on_a_box_face(spec2d, kernel2d, sol3):
    # the one-body config at S=4 ends with its two edge cells on the box
    # floor 1e-12
    bnd, kern, cfg = one_body_case(4)
    res = lat.minimize(bnd, kern, cfg)
    assert np.array_equal(np.all(res.field.interior == 1e-12, axis=-1), [1, 0, 0, 0, 0, 1])
    assert res.cells_on_box_face == 2
    # a perfect boundary reproduces the phase, well inside the box
    cfg = make_cfg(sol3)
    res = lat.minimize(lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref), kernel2d, cfg)
    assert res.cells_on_box_face == 0
    # the hard-constrained problem's box is the accuracy tube: a boundary
    # pulled past it leaves some cells on its faces
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref * 1.12)
    res = lat.minimize(bnd, kernel2d, cfg, box_override=cfg.zeta)
    gap = np.abs(res.field.interior - cfg.rho_ref)
    on_face = np.any(gap >= cfg.zeta * (1 - 1e-12), axis=-1)
    assert 0 < res.cells_on_box_face == on_face.sum()


def strip_case(sol3, cells, gamma):
    """A square box of ``cells`` a side at ell = 1 whose collar is raised on a
    strip, as in the decay experiments: boundary field, kernel and config."""
    spec = lat.LatticeSpec(d=2, ell=1.0, shape=(cells, cells), gamma=gamma, S=3)
    kern = lat.build_kernel(spec)
    cfg = make_cfg(sol3, t=1.0)
    w = kern.radius
    vals = lat.LatticeField.constant(spec, w, cfg.rho_ref).values
    vals[: w - 1] = np.minimum(cfg.rho_ref * 1.25, cfg.rho_ref + 0.9 * cfg.box)
    return lat.LatticeField(spec, vals, w), kern, cfg


@pytest.mark.parametrize("case", ["strided", "fft", "stalled"])
def test_each_fixed_point_evaluation_is_apply_on_the_iterate(sol3, case):
    # the minimizer fills one convolution buffer and then rewrites only its
    # interior each evaluation: the interaction field that reaches _drift
    # must be apply on the field holding the iterate, bit for bit, on the
    # strided pass, the FFT pass and up to a stall
    if case == "stalled":
        bnd, kern, cfg = stalled_case()
    else:
        bnd, kern, cfg = strip_case(sol3, *{"strided": (10, 0.2), "fft": (16, 0.05)}[case])
    assert (bnd.spec.n_cells * kern.tap_weight.size > lat._FFT_CELL_TAPS) == (case == "fft")
    drift, seen = lat._drift, []

    def spy(rho, u_all, *args):
        want = kern.apply(bnd.with_interior(rho).values, bnd.collar)
        seen.append(np.array_equal(u_all, want))
        return drift(rho, u_all, *args)

    with mock.patch.object(lat, "_drift", side_effect=spy):
        if case == "stalled":
            with pytest.raises(RuntimeError, match=STALL):
                lat.minimize(bnd, kern, cfg)
        else:
            assert lat.minimize(bnd, kern, cfg).residual < 1e-12
    assert len(seen) > 5 and all(seen)


@pytest.mark.parametrize("kw, match", [
    ({"n_starts": 0}, "n_starts must be at least 1"),
    ({"n_starts": -2}, "n_starts must be at least 1"),
    ({"tol": float("nan")}, "tol must be positive"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"tol": -1e-12}, "tol must be positive"),
])
def test_minimize_rejects_bad_starts_and_tolerances_before_any_work(spec2d, kernel2d, sol3, kw, match):
    # no residual is below a tol of NaN or at most 0, and fewer than one
    # start is no minimization: both are refused before any iteration
    cfg = make_cfg(sol3)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    with mock.patch.object(lat, "_minimize_single") as single:
        with pytest.raises(ValueError, match=match):
            lat.minimize(bnd, kernel2d, cfg, **kw)
    assert not single.called


def test_minimize_rejects_out_of_box_boundary(spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3)
    bad = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref + 10 * cfg.box)
    with pytest.raises(ValueError):
        lat.minimize(bad, kernel2d, cfg)


def test_minimize_leaves_the_boundary_field_alone(spec2d, kernel2d, sol3):
    # the minimizer writes its iterates into a working copy of the boundary
    # field, never into the caller's values
    cfg = make_cfg(sol3, t=1.0)
    rng = np.random.default_rng(5)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    bnd.values[...] *= rng.uniform(0.99, 1.01, size=bnd.values.shape)
    before = bnd.values.copy()
    for n_starts in (1, 2):
        res = lat.minimize(bnd, kernel2d, cfg, n_starts=n_starts)
        assert np.array_equal(bnd.values, before)
        assert not np.shares_memory(res.field.values, bnd.values)
        assert np.array_equal(res.field.values[bnd.boundary_mask()], before[bnd.boundary_mask()])
        assert np.any(res.field.interior != before[bnd.interior_slices])


@pytest.mark.parametrize("field, bad", [
    ("beta", 0.0), ("beta", -1.0), ("beta", float("nan")), ("beta", float("inf")),
    ("lambda_beta", float("nan")), ("lambda_beta", float("-inf")),
    ("lam", float("nan")), ("lam", float("inf")),
])
def test_functional_config_rejects_bad_beta_and_slopes(sol3, field, bad):
    with pytest.raises(ValueError, match=field):
        make_cfg(sol3, **{field: bad})


def test_minimize_stops_at_the_first_non_finite_residual(spec2d, kernel2d, sol3):
    # a NaN parameter set past the constructor makes every iterate NaN; the
    # loop must fail at once, not run out its 20,000 iterations
    cfg = make_cfg(sol3)
    cfg.beta = float("nan")
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    with mock.patch.object(lat.CoarseKernel, "_convolve", autospec=True,
                           side_effect=lat.CoarseKernel._convolve) as spy:
        with pytest.raises(ValueError, match="fixed-point residual nan at iteration 0"):
            lat.minimize(bnd, kernel2d, cfg)
    assert spy.call_count == 1


@pytest.mark.parametrize("max_iter", [0, -1])
def test_minimize_rejects_fewer_than_one_iteration(spec2d, kernel2d, sol3, max_iter):
    cfg = make_cfg(sol3)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        lat.minimize(bnd, kernel2d, cfg, max_iter=max_iter)


def test_permutation_equivariance(spec2d, kernel2d, sol3):
    perm = np.array([1, 0, 2])
    rho_ref = sol3.minimizers[0]
    cfg = make_cfg(sol3, rho_ref=rho_ref, one_body=False)
    rng = np.random.default_rng(9)
    noise = rng.uniform(-0.02, 0.02, size=(8 + 2 * kernel2d.radius,) * 2 + (1,))
    bvals = np.broadcast_to(rho_ref, noise.shape[:-1] + (3,)) + noise
    bnd = lat.LatticeField(spec2d, np.maximum(bvals, 1e-6), kernel2d.radius)
    res = lat.minimize(bnd, kernel2d, cfg)

    cfg_p = make_cfg(sol3, rho_ref=rho_ref[perm], one_body=False)
    bnd_p = lat.LatticeField(spec2d, np.maximum(bvals, 1e-6)[..., perm], kernel2d.radius)
    res_p = lat.minimize(bnd_p, kernel2d, cfg_p)
    assert np.allclose(res_p.field.interior, res.field.interior[..., perm], atol=1e-10)


def test_strong_convexity_inequality(spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3, t=1.0)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    res = lat.minimize(bnd, kernel2d, cfg)
    min_eig, _ = lat.hessian_coercivity(res.field, kernel2d, cfg, kappa=0.0)
    f_hat = lat.objective(res.field, kernel2d, cfg)
    rng = np.random.default_rng(21)
    for _ in range(100):
        rho = cfg.rho_ref + rng.uniform(-2 * cfg.zeta, 2 * cfg.zeta, size=res.field.interior.shape)
        fld = res.field.with_interior(rho)
        lhs = lat.objective(fld, kernel2d, cfg)
        dist2 = float(np.sum((rho - res.field.interior) ** 2))
        assert lhs >= f_hat + 0.5 * min_eig * dist2 - 1e-9


def test_hessian_coercivity_margin(spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3, t=1.0, one_body=True)
    rng = np.random.default_rng(2)
    base = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    for _ in range(20):
        rho = cfg.rho_ref + rng.uniform(-4 * cfg.zeta, 4 * cfg.zeta, size=(8, 8, 3))
        ev, ok = lat.hessian_coercivity(base.with_interior(rho), kernel2d, cfg, kappa=0.5 * sol3.kappa_star)
        assert ok and ev >= 0.5 * sol3.kappa_star

    out = base.with_interior(np.broadcast_to(cfg.rho_ref + 5 * cfg.zeta, (8, 8, 3)).copy())
    with pytest.raises(ValueError):
        lat.hessian_coercivity(out, kernel2d, cfg, kappa=0.0)


def test_hessian_diagonal_case(sol3):
    # t = 0: curvature is diagonal, eigenvalues are the entries
    spec = lat.LatticeSpec(d=1, ell=2.0, shape=(3,), gamma=0.2, S=3)
    kern = lat.build_kernel(spec)
    cfg = make_cfg(sol3, t=0.0, one_body=True)
    fld = lat.LatticeField.constant(spec, kern.radius, cfg.rho_ref)
    H = lat.hessian_matrix(fld, kern, cfg)
    assert np.allclose(H, np.diag(np.diag(H)))
    expected = 1.0 / (cfg.beta * cfg.rho_ref) - 0.5 / (cfg.beta * 2.0 * cfg.rho_ref**2)
    assert np.allclose(np.diag(H).reshape(3, 3), expected[None, :], atol=1e-14)


def test_hessian_refuses_a_one_body_field_at_half_a_particle_per_cell():
    # the one-body diagonal (1/(beta rho)) (1 - 1/(2 ell^d rho)) is 0 at
    # ell^d rho = 1/2 and negative below it
    bnd, kern, cfg = stalled_case()
    rho = np.full(bnd.interior.shape, 0.6)
    assert np.all(np.diag(lat.hessian_matrix(bnd.with_interior(rho), kern, cfg)) > 0)
    for low in (0.5, 0.2):
        rho[3, 1] = low
        with pytest.raises(ValueError, match=f"ell\\^d rho above 1/2, got {low}"):
            lat.hessian_matrix(bnd.with_interior(rho), kern, cfg)
    cfg.one_body = False
    assert np.all(np.diag(lat.hessian_matrix(bnd.with_interior(rho), kern, cfg)) > 0)


def test_penalty_curvature_is_psd(spec2d, kernel2d, sol3):
    cfg0 = make_cfg(sol3, t=1.0)
    cfg1 = make_cfg(sol3, t=1.0, epsilon=1e-3)
    rho = cfg0.rho_ref + 3.0 * cfg0.zeta  # outside the tube, inside 4 zeta
    fld = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg0.rho_ref).with_interior(
        np.broadcast_to(rho, (8, 8, 3)).copy()
    )
    ev0, _ = lat.hessian_coercivity(fld, kernel2d, cfg0, kappa=0.0)
    ev1, _ = lat.hessian_coercivity(fld, kernel2d, cfg1, kappa=0.0)
    assert ev1 >= ev0 - 1e-12


def test_epsilon_to_zero_stability(spec2d, kernel2d, sol3):
    # boundary pulled away from the reference so the barrier becomes active;
    # the relaxed minimizers approach the tube-constrained one monotonically
    cfg_hard = make_cfg(sol3, t=1.0)
    bnd = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg_hard.rho_ref * 1.12)
    ref = lat.minimize(bnd, kernel2d, cfg_hard, box_override=cfg_hard.zeta).field.interior
    gaps = []
    for eps in (1e-2, 1e-4, 1e-6):
        cfg = make_cfg(sol3, t=1.0, epsilon=eps)
        out = lat.minimize(bnd, kernel2d, cfg).field.interior
        gaps.append(float(np.max(np.abs(out - ref))))
    # the overshoot past the tube edge scales like (eps * pull)^(1/3)
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.3 * gaps[0]
    assert gaps[2] < 1e-2


def test_decay_experiment(sol3):
    spec = lat.LatticeSpec(d=2, ell=1.0, shape=(10, 10), gamma=0.2, S=3)
    kern = lat.build_kernel(spec)
    cfg = make_cfg(sol3, t=1.0)
    w = kern.radius
    base = lat.LatticeField.constant(spec, w, cfg.rho_ref)
    far = np.zeros(base.values.shape[:-1], dtype=bool)
    far[: w // 2, :] = True  # a band of collar cells on one side
    vals_b = base.values.copy()
    vals_b[far] = np.minimum(cfg.rho_ref * 1.25, cfg.rho_ref + 0.9 * cfg.box)
    pert = lat.LatticeField(spec, vals_b, w)

    fit = lat.decay_experiment(base, pert, far, kern, cfg)
    assert fit.omega_hat > 0
    assert fit.r_squared > 0.9

    with pytest.raises(lat.DecayFloorError):
        lat.decay_experiment(base, base, far, kern, cfg)


def test_decay_experiment_rejects_boundaries_that_differ_outside_the_far_region(sol3):
    # the fit reads differences down to 1e-14, so a relative change of 1e-6
    # on the collar opposite the far strip is a second source, not noise
    spec = lat.LatticeSpec(d=2, ell=1.0, shape=(10, 10), gamma=0.5, S=3)
    kern = lat.build_kernel(spec)
    cfg = make_cfg(sol3, t=1.0)
    w = kern.radius
    base = lat.LatticeField.constant(spec, w, cfg.rho_ref)
    far = np.zeros(base.values.shape[:-1], dtype=bool)
    far[: max(1, w - 1), :] = True
    vals_b = base.values.copy()
    vals_b[far] = np.minimum(cfg.rho_ref * 1.25, cfg.rho_ref + 0.9 * cfg.box)
    vals_b[-w:, :] *= 1.0 + 1e-6
    pert = lat.LatticeField(spec, vals_b, w)
    with pytest.raises(ValueError, match="outside the declared far region"):
        lat.decay_experiment(base, pert, far, kern, cfg)


def test_decay_experiment_rejects_a_far_mask_off_the_extended_grid(sol3):
    spec = lat.LatticeSpec(d=2, ell=1.0, shape=(10, 10), gamma=0.5, S=3)
    kern = lat.build_kernel(spec)
    cfg = make_cfg(sol3, t=1.0)
    base = lat.LatticeField.constant(spec, kern.radius, cfg.rho_ref)
    far = np.zeros(spec.shape, dtype=bool)  # the interior's shape, not the extended grid's
    far[0] = True
    n = 10 + 2 * kern.radius
    with pytest.raises(ValueError, match=rf"far_mask has shape \(10, 10\), not the extended "
                                         rf"grid's \({n}, {n}\)"):
        lat.decay_experiment(base, base, far, kern, cfg)


def test_decay_distance_doubling(sol3):
    spec = lat.LatticeSpec(d=2, ell=1.0, shape=(12, 12), gamma=0.25, S=3)
    kern = lat.build_kernel(spec)
    cfg = make_cfg(sol3, t=1.0)
    w = kern.radius
    base = lat.LatticeField.constant(spec, w, cfg.rho_ref)
    far = np.zeros(base.values.shape[:-1], dtype=bool)
    far[: w - 1, :] = True
    vals_b = base.values.copy()
    vals_b[far] = cfg.rho_ref * 1.2
    pert = lat.LatticeField(spec, vals_b, w)
    fit = lat.decay_experiment(base, pert, far, kern, cfg)
    assert fit.omega_hat > 0 and fit.r_squared > 0.9

    fa = lat.minimize(base, kern, cfg).field.interior
    fb = lat.minimize(pert, kern, cfg).field.interior
    diff = np.max(np.abs(fa - fb), axis=-1)
    # max difference drops consistently with the fitted rate as the distance
    # to the far band grows by four cells
    row_max = diff.max(axis=1)
    d0, d1 = 0, 4
    gap = (d1 - d0) * spec.ell * spec.gamma
    assert row_max[d1] <= row_max[d0] * np.exp(-fit.omega_hat * gap) * 2.0


def field_from_csv(path, spec, collar):
    """The extended-grid field that ``lat.field_to_csv`` wrote."""
    import csv

    shape = tuple(n + 2 * collar for n in spec.shape) + (spec.S,)
    vals = np.zeros(shape)
    with open(path) as fh:
        rd = csv.reader(fh)
        next(rd)
        for row in rd:
            *idx, s, v = row
            vals[tuple(int(i) for i in idx) + (int(s),)] = float(v)
    return lat.LatticeField(spec, vals, collar)


def test_field_csv_round_trip(tmp_path, spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3)
    fld = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    p = tmp_path / "field.csv"
    with open(p, "w", newline="") as fh:
        lat.field_to_csv(fld, fh)
    back = field_from_csv(p, spec2d, kernel2d.radius)
    assert np.allclose(back.values, fld.values)


def test_decay_fit_json(sol3):
    fit = lat.DecayFit(omega_hat=1.5, r_squared=0.95, n_cells=64, max_difference=1e-3, prefactor=0.1)
    import json

    data = json.loads(lat.decay_fit_to_json(fit))
    assert data["omega_hat"] == 1.5
    assert data["n_cells"] == 64
