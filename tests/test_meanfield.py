import json

import numpy as np
import pytest

from pottsgas import meanfield as mf


def test_free_energy_cancellation_points():
    sys3 = mf.SpinSystem(S=3, beta=1.0, lam=0.0)
    # interaction 3 cancels entropy -3
    assert mf.free_energy([1, 1, 1], sys3) == pytest.approx(0.0, abs=1e-14)
    # empty gas
    assert mf.free_energy([0, 0, 0], sys3) == pytest.approx(0.0, abs=1e-14)


def test_free_energy_with_chemical_potential():
    sys3 = mf.SpinSystem(S=3, beta=1.0, lam=1.0)
    # direct evaluation: 3 - 3 - 1*3
    assert mf.free_energy([1, 1, 1], sys3) == pytest.approx(-3.0, abs=1e-14)


def test_free_energy_rejects_negative():
    sys3 = mf.SpinSystem(S=3)
    with pytest.raises(ValueError):
        mf.free_energy([1.0, -0.1, 0.2], sys3)


def test_axis_density_endpoints():
    assert np.allclose(mf.axis_density(0.0, 3.0, 3), [1, 1, 1])
    assert np.allclose(mf.axis_density(1.0, 2.0, 3), [2, 0, 0])
    assert np.allclose(mf.axis_density(0.5, 2.0, 3), [4 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        mf.axis_density(1.2, 1.0, 3)


def test_axis_density_sums_to_x():
    rng = np.random.default_rng(0)
    for _ in range(50):
        S = int(rng.integers(2, 12))
        z, x = rng.uniform(0, 1), rng.uniform(0.1, 20)
        assert np.sum(mf.axis_density(z, x, S)) == pytest.approx(x, rel=1e-14)


def test_threshold_closed_form():
    assert mf.coexistence_threshold(3) == pytest.approx(4 * np.log(2), rel=1e-15)
    assert mf.coexistence_threshold(4) == pytest.approx(3 * np.log(3), rel=1e-15)
    with pytest.raises(ValueError):
        mf.coexistence_threshold(2)


def test_threshold_growth_like_2_log_s():
    svals = np.arange(3, 101)
    xs = np.array([mf.coexistence_threshold(int(s)) for s in svals])
    assert np.all(np.diff(xs) > 0)
    # x_S / (2 log S) -> 1 from above
    ratio = xs / (2 * np.log(svals))
    assert ratio[-1] == pytest.approx(1.0, abs=0.15)
    assert np.all(np.diff(ratio[5:]) < 0)


def test_ratio_curve_threshold_identity():
    for S in (3, 5, 17, 59, 80):
        z_s = mf.order_parameter_floor(S)
        assert mf.ratio_curve(z_s, S) == pytest.approx(mf.coexistence_threshold(S), rel=1e-14)


def test_ratio_curve_value():
    # direct evaluation at S=3, z=0.9
    assert mf.ratio_curve(0.9, 3) == pytest.approx(np.log(2.8 / 0.1) / 0.9, rel=1e-14)


def test_ratio_inverse_round_trips():
    for S in (3, 10, 59, 80):
        x_s = mf.coexistence_threshold(S)
        # cap the grid where z is still resolvable in float64: beyond
        # x ~ 14 + log(S) the gap 1-z is below 1e-6 and the z-representation
        # itself costs more than 1e-10 in R
        x_hi = min(6 * x_s, 14.0 + np.log(S))
        xs = np.linspace(x_s, x_hi, 200)
        zs = mf.ratio_inverse(xs, S)
        assert np.max(np.abs(mf.ratio_curve(zs, S) - xs)) < 1e-10
        zg = np.linspace(mf.order_parameter_floor(S), 1 - 1e-6, 150)
        back = mf.ratio_inverse(mf.ratio_curve(zg, S), S)
        assert np.max(np.abs(back - zg)) < 1e-10
        # the w-form root keeps full relative precision far beyond that wall
        xs_far = np.linspace(x_s, 8 * x_s, 120)
        w = mf._ratio_inverse_w(xs_far, S)
        resid = np.log((S - (S - 1) * w) / w) - xs_far * (1.0 - w)
        assert np.max(np.abs(resid)) < 1e-12 * np.max(xs_far)
    assert mf.ratio_inverse(4 * np.log(2), 3) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        mf.ratio_inverse(1.0, 3)


def test_branches_continuous_at_threshold():
    for S in range(3, 81):
        x_s = mf.coexistence_threshold(S)
        dis = mf._fdis(x_s, S)
        order = mf._ford(x_s, S)
        assert abs(dis - order) < 1e-10 * max(1.0, abs(dis))


def test_slope_gap_closed_form_and_numeric():
    for S in (3, 10, 40, 80):
        x_s = mf.coexistence_threshold(S)
        left, right = mf.one_sided_derivatives(x_s, S)
        assert left - right == pytest.approx(mf.slope_gap(S), abs=1e-10)
        # one-sided finite differences against the branch values
        h = 1e-6
        num_left = (mf.canonical_free_energy(x_s, S) - mf.canonical_free_energy(x_s - h, S)) / h
        num_right = (mf.canonical_free_energy(x_s + h, S) - mf.canonical_free_energy(x_s, S)) / h
        assert num_left - num_right == pytest.approx(mf.slope_gap(S), abs=1e-5)
    assert mf.slope_gap(3) == pytest.approx(np.log(2) / 3, rel=1e-14)


def test_slope_diverges_at_zero_density():
    left, right = mf.one_sided_derivatives(1e-50, 3)
    assert left < -100 and right < -100


def test_second_derivative_disordered():
    assert mf.second_derivative(1.0, 3) == pytest.approx(5 / 3, rel=1e-14)


def test_spinodal_roots_quadratic():
    # S=3, z=1/2: X^2 - 0.75 X - 4.5
    rm, rp = mf.spinodal_roots(0.5, 3)
    disc = np.sqrt(0.75**2 + 4 * 4.5)
    assert rm == pytest.approx((0.75 - disc) / 2, rel=1e-12)
    assert rp == pytest.approx((0.75 + disc) / 2, rel=1e-12)
    assert rm < 0 < rp
    # concave just above the threshold for small S
    assert rp < mf.ratio_curve(0.5, 3)
    assert mf.second_derivative(mf.coexistence_threshold(3) * 1.0001, 3, "ordered") < 0


def test_spinodal_roots_signs_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        S = int(rng.integers(3, 90))
        z = rng.uniform(mf.order_parameter_floor(S), 1 - 1e-9)
        rm, rp = mf.spinodal_roots(z, S)
        assert rm < 0 < rp


def test_concavity_excess_negative_at_g3():
    val = mf._g_of_s(3.0)
    assert val == pytest.approx(3 * (1 + np.sqrt(33)) / 16 - 2 * np.log(2), rel=1e-12)
    assert val < 0


def test_critical_spin_counts():
    s_star, s_bar = mf.critical_spin_counts()
    assert abs(s_star - 16.2) <= 0.1
    assert abs(s_bar - 59.1) <= 0.1


def test_g_sign_change_around_s_bar():
    svals = np.arange(3, 60)
    assert np.all(mf._g_of_s(svals.astype(float)) < 0)
    assert mf._g_of_s(60.0) > 0


def test_convexity_breakpoints_existence():
    for S in (3, 16, 59):
        out = mf.convexity_breakpoints(S)
        assert out is not None
        z_star, x_star = out
        assert mf.order_parameter_floor(S) < z_star < 1
        # second derivative changes sign across x_star
        assert mf.second_derivative(x_star * 0.999 + 0.001 * mf.coexistence_threshold(S), S, "ordered") < 0
        assert mf.second_derivative(x_star * 1.01, S, "ordered") > 0
    assert mf.convexity_breakpoints(60) is None
    assert mf.convexity_breakpoints(80) is None


def test_concavity_excess_single_sign_change():
    # For S <= 59 the excess starts negative and crosses zero exactly once
    # before diverging; that single crossing is what makes the breakpoint
    # bisection well posed.  (It is *not* monotone near z_S for small S.)
    for S in (3, 5, 16, 30, 45, 59):
        zg = np.linspace(mf.order_parameter_floor(S) + 1e-9, 1 - 1e-6, 10_000)
        vals = mf._concavity_excess(zg, S)
        assert vals[0] < 0 and vals[-1] > 0
        signs = np.sign(vals)
        changes = np.sum(signs[1:] != signs[:-1])
        assert changes == 1
    # beyond the sign-change threshold the excess is positive throughout:
    # the ordered branch is convex everywhere
    for S in (60, 80):
        zg = np.linspace(mf.order_parameter_floor(S) + 1e-9, 1 - 1e-6, 10_000)
        assert np.all(mf._concavity_excess(zg, S) > 0)


def test_common_tangent_matches_hull_oracle_s3():
    sol = mf.common_tangent(3)
    xm, xp, lam = mf.convex_envelope_oracle(3, dx=1e-4)
    assert abs(sol.x_minus - xm) < 1e-3
    assert abs(sol.x_plus - xp) < 1e-3
    assert abs(sol.lambda_beta - lam) < 1e-3
    assert sol.x_minus < mf.coexistence_threshold(3) < sol.x_plus


def test_tangent_endpoints_strict_ordering_many_s():
    for S in range(3, 81, 7):
        sol = mf.common_tangent(S)
        assert sol.x_minus < mf.coexistence_threshold(S) < sol.x_plus


def test_envelope_affine_inside_and_equal_outside():
    S = 3
    sol = mf.common_tangent(S)
    xm, xp, lam = mf.convex_envelope_oracle(S, dx=1e-4)
    xs = np.arange(0.3 * mf.coexistence_threshold(S), 3.2 * mf.coexistence_threshold(S), 1e-3)
    f = mf.canonical_free_energy(xs, S)
    env = np.maximum.accumulate(np.zeros_like(xs))  # placeholder, compare piecewise
    inside = (xs > sol.x_minus) & (xs < sol.x_plus)
    tangent_line = mf.canonical_free_energy(sol.x_minus, S) + sol.lambda_beta * (xs - sol.x_minus)
    # f stays above the tangent inside, and touches it at the endpoints
    assert np.all(f[inside] - tangent_line[inside] > -1e-9)
    assert mf.canonical_free_energy(sol.x_plus, S) == pytest.approx(
        mf.canonical_free_energy(sol.x_minus, S) + sol.lambda_beta * (sol.x_plus - sol.x_minus),
        abs=1e-9,
    )


def test_minimizers_structure():
    sol = mf.common_tangent(3)
    rhos = sol.minimizers
    assert len(rhos) == 4
    uniform = rhos[-1]
    assert np.allclose(uniform, uniform[0])
    ordered = rhos[0]
    assert ordered[0] > ordered[1] == ordered[2]
    assert np.sum(rhos[0]) - np.sum(uniform) == pytest.approx(sol.x_plus - sol.x_minus, rel=1e-12)
    assert sol.x_plus > sol.x_minus
    # permutation structure
    assert np.allclose(rhos[1], ordered[[1, 0, 2]])


def test_minimizer_fixed_point_residuals():
    for S in (3, 10, 59, 60, 80):
        sol = mf.common_tangent(S)
        for rho in sol.minimizers:
            res = np.abs(rho - np.exp(-sol.beta * (np.sum(rho) - rho - sol.lambda_beta)))
            assert res.max() < 1e-10


def test_hessian_entries_and_eigensystem():
    L = mf.hessian(np.array([2.0, 0.5, 0.5]), beta=1.0)
    assert np.allclose(np.diag(L), [0.5, 2.0, 2.0])
    assert np.allclose(L - np.diag(np.diag(L)), np.ones((3, 3)) - np.eye(3))
    # uniform closed-form spectrum: 1/(beta c) - 1 + S once, 1/(beta c) - 1 rest
    c, beta, S = 0.7, 1.3, 5
    ev = np.linalg.eigvalsh(mf.hessian(np.full(S, c), beta))
    lo = 1 / (beta * c) - 1
    expected = np.sort([lo + S] + [lo] * (S - 1))
    assert np.allclose(ev, expected, atol=1e-12)
    with pytest.raises(ValueError):
        mf.hessian(np.array([1.0, 0.0]))


def test_hessian_permutation_covariance():
    sol = mf.common_tangent(3)
    L1 = mf.hessian(sol.minimizers[0], sol.beta)
    L2 = mf.hessian(sol.minimizers[1], sol.beta)
    P = np.eye(3)[[1, 0, 2]]
    assert np.allclose(L2, P @ L1 @ P.T)


def test_kappa_star_positive():
    for S in (3, 10, 60):
        sol = mf.common_tangent(S)
        assert sol.kappa_star > 0
        for rho in sol.minimizers:
            assert np.linalg.eigvalsh(mf.hessian(rho, sol.beta))[0] >= sol.kappa_star - 1e-12


def test_rescale_identity_and_example():
    sol = mf.common_tangent(3)
    same = mf.rescale(sol, 1.0)
    assert same.x_minus == pytest.approx(sol.x_minus, rel=1e-14)
    assert same.lambda_beta == pytest.approx(sol.lambda_beta, rel=1e-14)
    half = mf.rescale(sol, 0.5)
    assert half.lambda_beta == pytest.approx(2 * sol.lambda_beta + 2 * np.log(2), rel=1e-12)
    assert half.x_minus == pytest.approx(2 * sol.x_minus, rel=1e-12)
    assert half.x_plus == pytest.approx(2 * sol.x_plus, rel=1e-12)


def test_rescale_agrees_with_direct_solve():
    sol = mf.common_tangent(3)
    res = mf.rescale(sol, 2.0)
    # the rescaled solution satisfies the tangency system evaluated directly
    # at beta=2 (slopes at both endpoints equal the secant slope)
    dm = mf.one_sided_derivatives(res.x_minus, 3, beta=2.0)[0]
    dp = mf.one_sided_derivatives(res.x_plus, 3, beta=2.0)[1]
    secant = (mf.canonical_free_energy(res.x_plus, 3, beta=2.0)
              - mf.canonical_free_energy(res.x_minus, 3, beta=2.0)) / (res.x_plus - res.x_minus)
    assert dm == pytest.approx(res.lambda_beta, abs=1e-10)
    assert dp == pytest.approx(res.lambda_beta, abs=1e-10)
    assert secant == pytest.approx(res.lambda_beta, abs=1e-10)
    # and the brute-force hull built on the beta=2 branch grid lands on it
    xm, xp, lam = mf.convex_envelope_oracle(3, dx=1e-4, beta=2.0)
    assert xm == pytest.approx(res.x_minus, abs=1e-3)
    assert xp == pytest.approx(res.x_plus, abs=1e-3)
    assert lam == pytest.approx(res.lambda_beta, abs=1e-3)


def test_phase_diagram_curve_contract():
    single = mf.phase_diagram_curve(3, (1.0, 1.0), 1)
    sol = mf.common_tangent(3)
    assert single.shape == (1, 2)
    assert single[0, 1] == pytest.approx(sol.lambda_beta, rel=1e-12)
    table = mf.phase_diagram_curve(3, (0.5, 2.0), 10)
    assert table.shape == (10, 2)
    assert np.all(np.diff(table[:, 0]) > 0)
    assert np.all(np.isfinite(table))
    at2 = table[-1]
    assert at2[1] == pytest.approx(mf.rescale(sol, 2.0).lambda_beta, rel=1e-12)
    # an infinite end made NaN temperatures and an "empty coexistence
    # interval" error instead of naming the range
    for bad in ((1.0, np.inf), (np.nan, 2.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="beta range must be positive and finite"):
            mf.phase_diagram_curve(3, bad, 4)


def test_phase_diagram_curve_rejects_repeated_betas():
    # equal bounds at two points, or bounds so close that linspace repeats a
    # float, gave duplicate rows in a table promised strictly sorted in beta
    with pytest.raises(ValueError, match="repeated betas"):
        mf.phase_diagram_curve(3, (1.0, 1.0), 2)
    with pytest.raises(ValueError, match="repeated betas"):
        mf.phase_diagram_curve(3, (1.0, np.nextafter(1.0, 2.0)), 3)
    assert mf.phase_diagram_curve(3, (1.0, 1.0), 1).shape == (1, 2)


def axis_density_rows(z, x, S):
    """``mf.axis_density(z, x, S)`` for each z in an array, one row each."""
    rho = np.empty((len(z), S))
    rho[:, 0] = x * (1.0 + (S - 1) * z) / S
    rho[:, 1:] = (x * (1.0 - z) / S)[:, None]
    return rho


def free_energy_rows(rho, sys):
    """``mf.free_energy`` of each row, as one array expression."""
    interaction = 0.5 * (np.sum(rho, axis=1) ** 2 - np.sum(rho**2, axis=1))
    safe = np.where(rho > 0, rho, 1.0)
    entropy = np.sum(np.where(rho > 0, rho * (np.log(safe) - 1.0), 0.0), axis=1)
    return interaction + entropy / sys.beta - sys.lam * np.sum(rho, axis=1)


def test_reduced_problem_matches_simplex_bruteforce():
    # constrained minimization over the one-parameter family equals a dense
    # scan of the symmetric-simplex slice rho_1 >= rho_2 = ... = rho_S
    rng = np.random.default_rng(7)
    for S in (3, 7, 23, 59, 60, 80):
        sys = mf.SpinSystem(S=S)
        x_s = mf.coexistence_threshold(S)
        for x in rng.uniform(0.4 * x_s, 2.5 * x_s, size=3):
            # coarse scan, then one refinement pass around the argmin (the
            # minimum sits within 1e-5 of z=1 for large S and x)
            zg = np.linspace(0, 1, 20_001)
            rows = axis_density_rows(zg[:-1], x, S)
            vals = free_energy_rows(rows, sys)
            for k in (0, 7_777, 19_999):  # the rows are the scalar functions' values
                assert np.array_equal(rows[k], mf.axis_density(zg[k], x, S))
                assert vals[k] == pytest.approx(mf.free_energy(rows[k], sys), rel=1e-13, abs=1e-13)
            k = int(np.argmin(vals))
            lo, hi = max(0.0, zg[k] - 1e-4), min(1.0, zg[k] + 1e-4)
            zf = np.linspace(lo, hi, 20_001)
            fine = free_energy_rows(axis_density_rows(zf, x, S), sys)
            brute = min(vals.min(), fine.min())
            assert mf.canonical_free_energy(float(x), S) <= brute + 1e-9
            assert mf.canonical_free_energy(float(x), S) >= brute - 1e-6


def test_solution_json_round_trip(tmp_path):
    sol = mf.common_tangent(3)
    back = json.loads(mf.solution_to_json(sol))
    assert back["S"] == sol.S
    assert back["lambda_beta"] == sol.lambda_beta
    assert np.allclose(back["minimizers"][0], sol.minimizers[0])


def test_csv_emission(tmp_path):
    table = mf.phase_diagram_curve(3, (0.5, 2.0), 5)
    path = tmp_path / "curve.csv"
    with open(path, "w") as fh:
        mf.write_phase_diagram_csv(fh, table)
    assert b"\r" not in path.read_bytes()  # the CLI artifact's LF line ends
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "beta,lambda_beta"
    assert len(lines) == 6
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(parsed, table)
