import numpy as np
import pytest

from pottsgas import banded as bd


def test_diagonal_case_exact():
    n, kappa = 12, 0.7
    A = kappa * np.eye(n)
    report = bd.decay_bound_report(A, np.zeros((n, n)), kappa, gamma=0.4)
    assert report["ok_norm"] and report["ok_entries"] and report["ok_inf"]
    assert report["inverse_norm"] == pytest.approx(1 / kappa, rel=1e-12)


def test_fifty_random_instances_all_pass():
    for seed in range(50):
        spec = bd.BandedInstanceSpec(
            n=20 + (seed % 4) * 10,
            kappa=0.3 + 0.1 * (seed % 5),
            band=1 + seed % 4,
            eps_fraction=0.05 + 0.017 * (seed % 50),
            gamma=0.15 + 0.01 * (seed % 7),
            seed=seed,
        )
        report = bd.decaying_inverse_check(spec)
        assert report["ok_norm"], report
        assert report["ok_entries"], report
        assert report["ok_inf"], report


def test_precondition_violations_raise():
    spec = bd.BandedInstanceSpec(seed=1)
    A, R1 = bd.random_instance(spec)
    with pytest.raises(ValueError):
        bd.decay_bound_report(A, R1, kappa=10.0, gamma=0.3)  # A not that coercive
    with pytest.raises(ValueError):
        bd.decay_bound_report(A, 100.0 * R1, kappa=spec.kappa, gamma=0.3)  # eps >= kappa
    with pytest.raises(ValueError):
        bd.decay_bound_report(np.triu(A), R1, kappa=0.01, gamma=0.3)  # not symmetric


def test_projection_bound():
    for seed in range(10):
        report = bd.projection_bound_check(n=35, b=24.0, c=2.0, band=2, seed=seed)
        assert report["ok_norm"], report
        assert report["ok_weighted"], report
    with pytest.raises(ValueError):
        bd.projection_bound_check(b=1.0, c=2.0)
