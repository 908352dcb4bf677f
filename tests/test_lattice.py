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


@pytest.mark.parametrize("S", [2, 3, 4])
@pytest.mark.parametrize("d, gamma, ell, cells", [
    (1, 0.25, 1.0, 9), (2, 0.3, 1.0, 10), (3, 0.3, 1.0, 4),
    (2, 0.05, 2.0, 8),  # wide: radius 12
])
def test_apply_is_bit_identical_to_ndimage(d, gamma, ell, cells, S):
    # the tap loop must add the same products in the same order as
    # ndimage.convolve; a changed summation order in numpy or scipy shows here
    kern = lat.build_kernel(lat.LatticeSpec(d=d, ell=ell, shape=(cells,) * d, gamma=gamma, S=S))
    r = kern.radius
    rng = np.random.default_rng(d * 10 + S)
    values = rng.uniform(0.1, 1.0, size=(cells + 2 * r,) * d + (S,))
    full = ndimage_apply(kern, values)
    for margin in (0, 1, r, r + 1):
        inner = tuple(slice(margin, n - margin) for n in values.shape[:-1])
        assert np.array_equal(kern.apply(values, margin), full[inner]), margin


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
        h = 1e-6
        for _ in range(6):
            idx = tuple(rng.integers(0, 3, size=2)) + (int(rng.integers(0, 3)),)
            up = rho.copy()
            up[idx] += h
            dn = rho.copy()
            dn[idx] -= h
            fd = (lat.objective(base.with_interior(up), kern, cfg)
                  - lat.objective(base.with_interior(dn), kern, cfg)) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


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


def test_minimize_rejects_out_of_box_boundary(spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3)
    bad = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref + 10 * cfg.box)
    with pytest.raises(ValueError):
        lat.minimize(bad, kernel2d, cfg)


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


def test_field_csv_round_trip(tmp_path, spec2d, kernel2d, sol3):
    cfg = make_cfg(sol3)
    fld = lat.LatticeField.constant(spec2d, kernel2d.radius, cfg.rho_ref)
    p = tmp_path / "field.csv"
    with open(p, "w", newline="") as fh:
        lat.field_to_csv(fld, fh)
    back = lat.field_from_csv(p, spec2d, kernel2d.radius)
    assert np.allclose(back.values, fld.values)


def test_decay_fit_json(sol3):
    fit = lat.DecayFit(omega_hat=1.5, r_squared=0.95, n_cells=64, max_difference=1e-3, prefactor=0.1)
    import json

    data = json.loads(lat.decay_fit_to_json(fit))
    assert data["omega_hat"] == 1.5
    assert data["n_cells"] == 64
