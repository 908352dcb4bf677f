"""Acceptance gate: every criterion at its contracted tolerance, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -s``."""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from pottsgas import banded as bd
from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import lattice as lat
from pottsgas import meanfield as mf
from pottsgas import screening as scr
from pottsgas import simulate as sim
from pottsgas import transport as tr


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="module")
def sol3():
    return mf.common_tangent(3)


def lattice_box(sol):
    return 0.5 * max(
        float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        for i, a in enumerate(sol.minimizers)
        for b in sol.minimizers[i + 1 :]
    )


def test_criterion_1_critical_spin_counts():
    t0 = time.monotonic()
    s_star, s_bar = mf.critical_spin_counts()
    elapsed = time.monotonic() - t0
    ok = abs(s_star - 16.2) <= 0.1 and abs(s_bar - 59.1) <= 0.1 and elapsed < 1.0
    report(1, ok, f"S*={s_star:.4f}, S_bar={s_bar:.4f}, {elapsed:.3f}s")


def test_criterion_2_threshold_identities():
    worst_ident = 0.0
    worst_cont = 0.0
    worst_gap = 0.0
    for S in range(3, 81):
        x_s = mf.coexistence_threshold(S)
        worst_ident = max(worst_ident, abs(mf.ratio_curve(mf.order_parameter_floor(S), S) - x_s))
        worst_cont = max(worst_cont, abs(mf._fdis(x_s, S) - mf._ford(x_s, S)))
        h = 1e-6
        num_left = (mf.canonical_free_energy(x_s, S) - mf.canonical_free_energy(x_s - h, S)) / h
        num_right = (mf.canonical_free_energy(x_s + h, S) - mf.canonical_free_energy(x_s, S)) / h
        worst_gap = max(worst_gap, abs((num_left - num_right) - mf.slope_gap(S)))
    ok = worst_ident < 1e-10 and worst_cont < 1e-10 and worst_gap < 1e-5
    report(2, ok, f"max |R(z_S)-x_S|={worst_ident:.2e}, branch gap={worst_cont:.2e}, "
                  f"slope-jump error={worst_gap:.2e}")


def test_criterion_3_maxwell_construction():
    t0 = time.monotonic()
    worst_tangent = 0.0
    worst_resid = 0.0
    min_eig = np.inf
    ordering = True
    for S in (3, 10, 59, 60, 80):
        sol = mf.common_tangent(S)
        xm, xp, lam = mf.convex_envelope_oracle(S, dx=1e-4)
        worst_tangent = max(
            worst_tangent,
            abs(sol.x_minus - xm),
            abs(sol.x_plus - xp),
            abs(sol.lambda_beta - lam),
        )
        ordering &= sol.x_plus > sol.x_minus
        for rho in sol.minimizers:
            res = np.abs(rho - np.exp(-sol.beta * (np.sum(rho) - rho - sol.lambda_beta)))
            worst_resid = max(worst_resid, float(res.max()))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(mf.hessian(rho, sol.beta))[0]))
    elapsed = time.monotonic() - t0
    ok = worst_tangent < 1e-3 and ordering and worst_resid < 1e-10 and min_eig > 0 and elapsed < 10.0
    report(3, ok, f"hull gap={worst_tangent:.2e}, residual={worst_resid:.2e}, "
                  f"min Hessian eig={min_eig:.4f}, {elapsed:.2f}s")


def _direct_tangent_at_beta(S, beta):
    """Independent Maxwell construction performed on the free energy at the
    requested temperature (hull initialization + Newton on the tangency
    system, never touching the rescaling map)."""
    xm, xp, _ = mf.convex_envelope_oracle(S, dx=2e-4, beta=beta)
    for _ in range(80):
        fm = float(mf.canonical_free_energy(xm, S, beta=beta))
        fp = float(mf.canonical_free_energy(xp, S, beta=beta))
        dm = mf.one_sided_derivatives(xm, S, beta=beta)[0]
        dp = mf.one_sided_derivatives(xp, S, beta=beta)[1]
        # second derivatives at beta via the exact branch curvature identity
        ddm = mf.second_derivative(beta * xm, S, "disordered")
        ddp = mf.second_derivative(beta * xp, S, "ordered")
        gap = xp - xm
        F1 = dm * gap - (fp - fm)
        F2 = dp * gap - (fp - fm)
        J11, J12, J22 = ddm * gap, dm - dp, ddp * gap
        det = J11 * J22 - J12 * J12
        step_m = (J22 * F1 - J12 * F2) / det
        step_p = (J11 * F2 - J12 * F1) / det
        xm, xp = xm - step_m, xp - step_p
        if abs(step_m) + abs(step_p) < 1e-14 * (abs(xm) + abs(xp)):
            break
    return xm, xp, mf.one_sided_derivatives(xm, S, beta=beta)[0]


def test_criterion_4_temperature_scaling(sol3):
    rng = np.random.default_rng(4)
    worst = 0.0
    for beta_p in rng.uniform(0.2, 5.0, size=10):
        xm, xp, lam = _direct_tangent_at_beta(3, float(beta_p))
        scaled = mf.rescale(sol3, float(beta_p))
        worst = max(
            worst,
            abs(xm - scaled.x_minus),
            abs(xp - scaled.x_plus),
            abs(lam - scaled.lambda_beta),
        )
    ok = worst < 1e-8
    report(4, ok, f"max direct-vs-rescaled gap={worst:.2e} over 10 random temperatures")


def test_criterion_5_lp_perfect_boundary(sol3):
    rho_ref = sol3.minimizers[-1]
    box = lattice_box(sol3)
    spec = lat.LatticeSpec(d=2, ell=2.0, shape=(20, 20), gamma=0.05, S=3)
    kern = lat.build_kernel(spec)
    bnd = lat.LatticeField.constant(spec, kern.radius, rho_ref)
    worst_exact = 0.0
    for t in (0.0, 0.5, 1.0):
        cfg = lat.FunctionalConfig(beta=1.0, lambda_beta=sol3.lambda_beta, t=t,
                                   rho_ref=rho_ref, zeta=0.05, box=box)
        res = lat.minimize(bnd, kern, cfg)
        worst_exact = max(worst_exact, float(np.max(np.abs(res.field.interior - rho_ref))))

    # one-body term on plus the bounded hook: deviation obeys c (gamma ell)^a0
    # and the exponent is recovered by a response-normalized two-point fit
    a0, amp = 0.5, 0.02
    ratios, cs = [], []
    for gamma in (0.05, 0.1):
        spec_g = lat.LatticeSpec(d=2, ell=2.0, shape=(20, 20), gamma=gamma, S=3)
        kern_g = lat.build_kernel(spec_g)
        ge = gamma * spec_g.ell
        base = dict(beta=1.0, lambda_beta=sol3.lambda_beta, t=1.0, rho_ref=rho_ref,
                    zeta=0.05, box=box, one_body=True)
        bnd_g = lat.LatticeField.constant(spec_g, kern_g.radius, rho_ref)
        f0 = lat.minimize(bnd_g, kern_g, lat.FunctionalConfig(**base)).field.interior
        fP = lat.minimize(bnd_g, kern_g, lat.FunctionalConfig(
            **base, perturbation=lat.SinePerturbation(amp, a0, ge))).field.interior
        fU = lat.minimize(bnd_g, kern_g, lat.FunctionalConfig(
            **base, perturbation=lat.SinePerturbation(amp, 0.0, ge))).field.interior
        dev = float(np.max(np.abs(fP - f0)))
        dev_unit = float(np.max(np.abs(fU - f0)))
        ratios.append(dev / dev_unit)
        cs.append(float(np.max(np.abs(fP - rho_ref))) / ge**a0)
    a0_hat = math.log(ratios[1] / ratios[0]) / math.log(2.0)
    c_fit = max(cs)
    ok = worst_exact < 1e-10 and abs(a0_hat - a0) <= 0.1
    report(5, ok, f"perfect-boundary deviation={worst_exact:.2e}, recovered a0={a0_hat:.3f} "
                  f"(target {a0}), fitted c={c_fit:.3f}")


def test_criterion_6_lp_coercivity_and_decay(sol3):
    rho_ref = sol3.minimizers[-1]
    box = lattice_box(sol3)
    spec = lat.LatticeSpec(d=2, ell=2.0, shape=(8, 8), gamma=0.05, S=3)
    kern = lat.build_kernel(spec)
    cfg = lat.FunctionalConfig(beta=1.0, lambda_beta=sol3.lambda_beta, t=1.0,
                               rho_ref=rho_ref, zeta=0.05, box=box, one_body=True)
    rng = np.random.default_rng(6)
    base = lat.LatticeField.constant(spec, kern.radius, rho_ref)
    min_seen = np.inf
    for _ in range(20):
        rho = rho_ref + rng.uniform(-4 * cfg.zeta, 4 * cfg.zeta, size=(8, 8, 3))
        ev, _ = lat.hessian_coercivity(base.with_interior(rho), kern, cfg, kappa=0.0)
        min_seen = min(min_seen, ev)
    coercive_ok = min_seen >= 0.5 * sol3.kappa_star

    slopes = {}
    r2_ok = True
    for gamma in (0.5, 0.3, 0.2):
        spec_g = lat.LatticeSpec(d=2, ell=1.0, shape=(10, 10), gamma=gamma, S=3)
        kern_g = lat.build_kernel(spec_g)
        cfg_g = lat.FunctionalConfig(beta=1.0, lambda_beta=sol3.lambda_beta, t=1.0,
                                     rho_ref=rho_ref, zeta=0.05, box=box)
        w = kern_g.radius
        b0 = lat.LatticeField.constant(spec_g, w, rho_ref)
        far = np.zeros(b0.values.shape[:-1], dtype=bool)
        far[: max(1, w - 1), :] = True
        vals = b0.values.copy()
        vals[far] = np.minimum(rho_ref * 1.25, rho_ref + 0.9 * box)
        fit = lat.decay_experiment(b0, lat.LatticeField(spec_g, vals, w), far, kern_g, cfg_g)
        slopes[gamma] = fit.omega_hat
        r2_ok &= fit.omega_hat > 0 and fit.r_squared > 0.9
    monotone = slopes[0.2] >= slopes[0.3] >= slopes[0.5]
    ok = coercive_ok and r2_ok and monotone
    report(6, ok, f"min eig={min_seen:.4f} (needs {0.5 * sol3.kappa_star:.4f}), "
                  f"omega_hat={{{', '.join(f'{g}: {s:.3f}' for g, s in slopes.items())}}}")


def test_criterion_7_banded_inverse_bounds():
    failures = 0
    for seed in range(50):
        spec = bd.BandedInstanceSpec(
            n=20 + (seed % 4) * 10,
            kappa=0.3 + 0.1 * (seed % 5),
            band=1 + seed % 4,
            eps_fraction=0.05 + 0.017 * seed,
            gamma=0.15 + 0.01 * (seed % 7),
            seed=seed,
        )
        rep = bd.decaying_inverse_check(spec)
        if not (rep["ok_norm"] and rep["ok_entries"] and rep["ok_inf"]):
            failures += 1
    ok = failures == 0
    report(7, ok, f"{failures} violations over 50 admissible instances")


def test_criterion_8_transport_bound_chain():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(0, 1, size=(n, 3))
        metric = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        w1 = rng.uniform(0.05, 1, n)
        w0 = rng.uniform(0.05, 1, n)
        mu1 = tr.FiniteMetricMeasure(w1 / w1.sum(), metric)
        mu0 = tr.FiniteMetricMeasure(w0 / w0.sum(), metric)
        events = [rng.uniform(size=n) < 0.5 for _ in range(6)]
        lower = tr.tv_lower_bound(mu1, mu0, events)
        _, exact = tr.exact_transport(mu1, mu0)
        cost = tr.coupling_cost(tr.overlap_coupling(mu1, mu0), metric)
        h, v = rng.normal(size=n), rng.normal(size=n)
        nu = rng.uniform(0.5, 1.5, size=n)
        pb = tr.perturbation_bound(h, v, nu, mu1)
        _, exact_t = tr.exact_transport(pb["mu_1"], pb["mu_0"])
        ev = rng.uniform(size=n) < 0.6
        if not ev.any():
            ev[0] = True
        _, cond_bound = tr.conditioning_bound(mu1, ev)
        cond = mu1.like(np.where(ev, mu1.weights, 0.0) / mu1.weights[ev].sum())
        _, exact_c = tr.exact_transport(mu1, cond)
        if lower > exact + 1e-10 or exact > cost + 1e-10:
            violations += 1
        if exact_t > pb["grid_bound"] + 1e-10 or pb["grid_bound"] > pb["crude_bound"] + 1e-12:
            violations += 1
        if exact_c > cond_bound + 1e-10:
            violations += 1
    tv = tr.gaussian_tv_1d(1.0, 1.0)
    bound = tr.gaussian_variation_bound(np.eye(1), np.zeros(1), np.ones(1))
    gauss_ok = tv <= bound and abs(tv - 0.3829249) < 1e-6
    elapsed = time.monotonic() - t0
    ok = violations == 0 and gauss_ok and elapsed < 5.0
    report(8, ok, f"{violations} chain violations / 100 instances, 1d TV={tv:.5f} <= {bound}, "
                  f"{elapsed:.2f}s")


def test_criterion_9_sampler_correctness(enumeration_chain):
    # the single-cell chain at t = 0 against its exact occupancy law, one
    # million proposals (the chain is shared with
    # test_stationary_law_matches_enumeration, see tests/conftest.py)
    exact, counts = enumeration_chain
    states = sorted(exact)
    n_samples = sum(counts.values())
    observed = np.array([counts[st] for st in states], dtype=float)
    expected = np.array([exact[st] * n_samples for st in states])
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    pval = float(1.0 - sps.chi2.cdf(chi2, df=len(states) - 1))

    # energy audit drift on an interacting chain
    region2 = sim.SimRegion(d=2, S=3, gamma=0.5, ell0=1.0, ell_minus=2.0, ell_plus=4.0, n_plus=2)
    sol4 = mf.rescale(mf.common_tangent(3), 4.0)
    phase2 = sim.PhaseTarget(rho_ref=sol4.minimizers[-1], lambda_beta=sol4.lambda_beta,
                             beta=4.0, zeta=2.0, t=1.0)
    system2 = sim.ParticleSystem(region2, phase2, seed=9)
    fx.fill_boundary(system2, seed=10)
    system2.seed_phase_configuration()
    system2.audit_every = 1000
    kernel2 = sim.MoveKernel()
    sim.metropolis_sweep(system2, kernel2, n_moves=30_000)
    drift_ok = bool(system2.audit_log) and max(system2.audit_log) < 1e-7 * max(
        1.0, abs(system2.energy)
    )
    ok = pval > 0.01 and drift_ok
    report(9, ok, f"chi2 p={pval:.4f} over {len(states)} states at 1e6 proposals, "
                  f"max audit drift={max(system2.audit_log):.2e}")


def _verify_fixture(kind, seed):
    region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0, n_plus=5)
    phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, beta=1.0,
                            zeta=0.6, t=0.0)
    ladder = scr.LadderSpec(zeta=0.6, d=2, c_star=2.0)
    pair = fx.make_identical_pair(region, phase, seed, ladder=ladder)
    if kind == "polymer":
        rng = np.random.default_rng(seed)
        corners = [(0, 0), (0, 4), (4, 0), (4, 4), (0, 2), (2, 0), (4, 2), (2, 4)]
        cube = corners[int(rng.integers(0, len(corners)))]
        fx.inject_polymer(pair, [cube], into_first=bool(rng.integers(0, 2)))
    return pair


def test_criterion_10_stopping_set_verification():
    failures = []
    n_runs = 200
    for k in range(n_runs):
        kind = ("identical", "polymer", "perturb")[k % 3]
        pair = _verify_fixture("polymer" if kind == "polymer" else "identical", seed=1000 + k)
        part = scr.run_screening(pair)
        n_rep = 4 if kind == "perturb" else 2
        rep = scr.verify_stopping(pair, part, n_replays=n_rep, seed=2000 + k)
        if not rep["ok"]:
            failures.append((k, kind, rep["failures"][:2]))
    ok = not failures
    report(10, ok, f"{len(failures)} failures / {n_runs} seeded runs "
                   f"(families: identical, far polymer, replay perturbation)"
                   + (f"; first: {failures[:2]}" if failures else ""))


@pytest.mark.slow
def test_criterion_11_percolation_decay():
    sol4 = mf.rescale(mf.common_tangent(3), 4.0)
    region = sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0, n_plus=5)
    phase = sim.PhaseTarget(rho_ref=sol4.minimizers[-1], lambda_beta=sol4.lambda_beta,
                            beta=4.0, zeta=2.0, t=0.03)
    ladder = scr.LadderSpec(zeta=2.0, d=2, c_star=0.65)
    kernel = sim.MoveKernel()

    def build(seed):
        return fx.make_mismatched_pair(region, phase, seed, ladder=ladder)

    out = cpl.percolation_stats(build, n_runs=100, margins=[0, 1, 2], kernel=kernel, seed=11_000)
    ok = (not out["decay_floor"]) and out["c2"] is not None and out["c2"] > 0 \
        and out["r_squared"] is not None and out["r_squared"] > 0.8
    report(11, ok, f"containment={out['containment']}, c1={out['c1']}, c2={out['c2']}, "
                   f"r2={out['r_squared']}, eps_hat={out['eps_hat_mean']:.3f}")
