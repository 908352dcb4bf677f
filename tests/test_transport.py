import itertools

import numpy as np
import pytest

from pottsgas import transport as tr


def random_metric(rng, n):
    # metrics from random point clouds always satisfy the triangle inequality
    pts = rng.uniform(0, 1, size=(n, 3))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def random_measure_pair(rng, n):
    metric = random_metric(rng, n)
    w1 = rng.uniform(0.05, 1, n)
    w0 = rng.uniform(0.05, 1, n)
    mu1 = tr.FiniteMetricMeasure(w1 / w1.sum(), metric)
    mu0 = tr.FiniteMetricMeasure(w0 / w0.sum(), metric)
    return mu1, mu0


def test_measure_validation():
    with pytest.raises(ValueError):
        tr.FiniteMetricMeasure(np.array([0.5, 0.6]), np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        tr.FiniteMetricMeasure(np.array([0.5, 0.5]), np.array([[0, 1], [2, 0]]))
    bad_triangle = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        tr.FiniteMetricMeasure(np.array([0.4, 0.3, 0.3]), bad_triangle)


def test_overlap_coupling_identical_is_diagonal():
    rng = np.random.default_rng(0)
    mu, _ = random_measure_pair(rng, 5)
    q = tr.overlap_coupling(mu, mu)
    assert np.allclose(q.joint, np.diag(mu.weights))
    assert tr.coupling_cost(q, mu.metric) == pytest.approx(0.0, abs=1e-15)


def test_overlap_coupling_forced_transport():
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu1 = tr.FiniteMetricMeasure(np.array([1.0, 0.0]), metric)
    mu0 = tr.FiniteMetricMeasure(np.array([0.0, 1.0]), metric)
    q = tr.overlap_coupling(mu1, mu0)
    assert tr.coupling_cost(q, metric) == pytest.approx(1.0, rel=1e-14)


def test_overlap_cost_between_exact_and_l1_bound():
    rng = np.random.default_rng(1)
    for _ in range(100):
        mu1, mu0 = random_measure_pair(rng, 5)
        q = tr.overlap_coupling(mu1, mu0)
        q.check_marginals(mu1, mu0)
        cost = tr.coupling_cost(q, mu1.metric)
        _, exact = tr.exact_transport(mu1, mu0)
        l1_bound = float(np.sum(mu1.sizes * np.abs(mu1.weights - mu0.weights)))
        assert exact <= cost + 1e-10
        assert cost <= l1_bound + 1e-10


def test_exact_transport_trivial_cases():
    rng = np.random.default_rng(2)
    mu, _ = random_measure_pair(rng, 4)
    _, val = tr.exact_transport(mu, mu)
    assert val == pytest.approx(0.0, abs=1e-12)
    metric = random_metric(rng, 4)
    for i, j in ((0, 2), (1, 3)):
        w1 = np.zeros(4)
        w1[i] = 1.0
        w0 = np.zeros(4)
        w0[j] = 1.0
        m1 = tr.FiniteMetricMeasure(w1, metric)
        m0 = tr.FiniteMetricMeasure(w0, metric)
        _, val = tr.exact_transport(m1, m0)
        assert val == pytest.approx(metric[i, j], rel=1e-12)
    with pytest.raises(ValueError):
        big = tr.FiniteMetricMeasure(np.full(13, 1 / 13), random_metric(rng, 13))
        tr.exact_transport(big, big)


def test_exact_transport_against_vertex_enumeration():
    # 3-point instance: enumerate the vertices of the transportation polytope
    # via spanning subsets of at most 2n-1 cells and take the best value
    metric = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    mu1 = tr.FiniteMetricMeasure(np.array([0.5, 0.25, 0.25]), metric)
    mu0 = tr.FiniteMetricMeasure(np.array([0.25, 0.25, 0.5]), metric)
    _, val = tr.exact_transport(mu1, mu0)

    best = np.inf
    cells = list(itertools.product(range(3), range(3)))
    for support in itertools.combinations(cells, 5):
        A = []
        b = []
        for i in range(3):
            A.append([1.0 if c[0] == i else 0.0 for c in support])
            b.append(mu1.weights[i])
        for j in range(2):
            A.append([1.0 if c[1] == j else 0.0 for c in support])
            b.append(mu0.weights[j])
        A = np.array(A)
        b = np.array(b)
        try:
            x, *_ = np.linalg.lstsq(A, b, rcond=None)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(A @ x - b)) > 1e-10 or np.any(x < -1e-10):
            continue
        plan = np.zeros((3, 3))
        for c, v in zip(support, x):
            plan[c] += v
        if np.max(np.abs(plan.sum(axis=1) - mu1.weights)) > 1e-9:
            continue
        if np.max(np.abs(plan.sum(axis=0) - mu0.weights)) > 1e-9:
            continue
        best = min(best, float(np.sum(plan * metric)))
    assert val == pytest.approx(best, abs=1e-10)


def test_perturbation_bound_trivial_cases():
    rng = np.random.default_rng(3)
    mu, _ = random_measure_pair(rng, 5)
    h = rng.normal(size=5)
    nu = rng.uniform(0.5, 1.5, size=5)
    out = tr.perturbation_bound(h, np.zeros(5), nu, mu)
    assert np.allclose(out["mu_1"].weights, out["mu_0"].weights)
    assert out["grid_bound"] >= 0
    # constant tilts cancel in the normalization
    out_c = tr.perturbation_bound(h, np.full(5, 3.7), nu, mu)
    assert np.allclose(out_c["mu_1"].weights, out_c["mu_0"].weights, atol=1e-12)
    _, exact = tr.exact_transport(out_c["mu_1"], out_c["mu_0"])
    assert exact <= 1e-12


def test_perturbation_bound_chain():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        mu, _ = random_measure_pair(rng, n)
        h = rng.normal(size=n)
        v = rng.normal(size=n)
        nu = rng.uniform(0.5, 1.5, size=n)
        out = tr.perturbation_bound(h, v, nu, mu)
        _, exact = tr.exact_transport(out["mu_1"], out["mu_0"])
        assert exact <= out["grid_bound"] + 1e-10
        assert out["grid_bound"] <= out["crude_bound"] + 1e-12


def test_conditioning_bound_full_event():
    rng = np.random.default_rng(5)
    mu, _ = random_measure_pair(rng, 5)
    q, bound = tr.conditioning_bound(mu, np.ones(5, dtype=bool))
    assert np.allclose(q.joint, np.diag(mu.weights))
    assert bound == pytest.approx(0.0, abs=1e-14)


def test_conditioning_bound_two_point():
    metric = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = tr.FiniteMetricMeasure(np.array([0.5, 0.5]), metric, anchor=0)
    q, bound = tr.conditioning_bound(mu, np.array([True, False]))
    assert bound == pytest.approx(1.0, rel=1e-14)
    cond = mu.like(np.array([1.0, 0.0]))
    _, exact = tr.exact_transport(mu, cond)
    assert exact == pytest.approx(0.5, rel=1e-12)
    assert exact <= bound


def test_conditioning_bound_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        mu, _ = random_measure_pair(rng, n)
        ev = rng.uniform(size=n) < 0.6
        if not ev.any():
            ev[0] = True
        q, bound = tr.conditioning_bound(mu, ev)
        cond = mu.like(np.where(ev, mu.weights, 0.0) / mu.weights[ev].sum())
        _, exact = tr.exact_transport(mu, cond)
        assert exact <= bound + 1e-12
        assert tr.coupling_cost(q, mu.metric) <= bound + 1e-12
    with pytest.raises(ValueError):
        tr.conditioning_bound(mu, np.zeros(mu.n, dtype=bool))


def test_tv_lower_bound():
    rng = np.random.default_rng(7)
    metric = random_metric(rng, 4)
    mu, nu = random_measure_pair(rng, 4)
    assert tr.tv_lower_bound(mu, mu, [np.array([True, False, True, False])]) == 0.0
    # agreement metric: lower bound equals the tv over tested events
    agree = np.ones((4, 4)) - np.eye(4)
    mu_a = tr.FiniteMetricMeasure(mu.weights, agree)
    nu_a = tr.FiniteMetricMeasure(nu.weights, agree)
    events = [np.asarray(e, dtype=bool) for e in itertools.product([0, 1], repeat=4)]
    tv = max(abs(mu.weights[e].sum() - nu.weights[e].sum()) for e in events)
    assert tr.tv_lower_bound(mu_a, nu_a, events) == pytest.approx(tv, rel=1e-12)


def test_bound_chain_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        mu1, mu0 = random_measure_pair(rng, n)
        events = [rng.uniform(size=n) < 0.5 for _ in range(8)]
        lower = tr.tv_lower_bound(mu1, mu0, events)
        _, exact = tr.exact_transport(mu1, mu0)
        cost = tr.coupling_cost(tr.overlap_coupling(mu1, mu0), mu1.metric)
        assert lower <= exact + 1e-10
        assert exact <= cost + 1e-10


def test_gaussian_bound_1d():
    assert tr.gaussian_variation_bound(np.eye(1), np.zeros(1), np.zeros(1)) == 0.0
    bound = tr.gaussian_variation_bound(np.eye(1), np.array([0.0]), np.array([1.0]))
    assert bound == pytest.approx(2.0, rel=1e-12)
    tv = tr.gaussian_tv_1d(1.0, 1.0)
    assert tv == pytest.approx(0.3829249, abs=1e-6)
    assert tv <= bound
    # the L1 density distance is twice the event tv and still below the bound
    assert 2 * tv <= bound
    with pytest.raises(ValueError):
        tr.gaussian_variation_bound(-np.eye(1), np.zeros(1), np.zeros(1))


def test_gaussian_tv_1d_is_twice_the_normal_cdf_less_one():
    # erf(x / sqrt 2) = 2 Phi(x) - 1, here to within a few ulps of scipy's
    # normal cdf, and even in the gap
    from scipy.stats import norm

    for var in (0.01, 0.5, 1.0, 3.0, 100.0):
        for delta in (0.0, 1e-8, 0.3, 1.0, 2.5, 10.0):
            want = 2.0 * norm.cdf(delta / (2.0 * np.sqrt(var))) - 1.0
            assert abs(tr.gaussian_tv_1d(var, delta) - want) <= 4e-16
            assert tr.gaussian_tv_1d(var, -delta) == tr.gaussian_tv_1d(var, delta)
    with pytest.raises(ValueError):
        tr.gaussian_tv_1d(0.0, 1.0)


def test_gaussian_bound_3d_monte_carlo():
    rng = np.random.default_rng(9)
    M = rng.normal(size=(3, 3))
    C = M @ M.T + 0.5 * np.eye(3)
    b1 = np.zeros(3)
    b2 = 0.2 * rng.normal(size=3)
    bound = tr.gaussian_variation_bound(C, b1, b2)
    # tv estimate: E_P1[(1 - p2/p1)_+] over 10^6 samples
    L = np.linalg.cholesky(C)
    xs = (L @ rng.normal(size=(3, 1_000_000))).T + b1
    Cinv = np.linalg.inv(C)

    def logpdf(x, b):
        y = x - b
        return -0.5 * np.einsum("ij,jk,ik->i", y, Cinv, y)

    ratio = np.exp(logpdf(xs, b2) - logpdf(xs, b1))
    tv_est = float(np.mean(np.clip(1.0 - ratio, 0.0, None)))
    assert tv_est <= bound
    assert 2 * tv_est <= bound  # L1 distance of the densities
