import numpy as np
import pytest

from pottsgas.kernels import _self_convolution_table, normalized_bump

N_TABLE, N_GRID = 101, 400


def full_grid_sum(d: int, v: float) -> float:
    """(J * J)(v) by the midpoint rule over the whole grid, zeros included."""
    prof = normalized_bump(d)
    h = 1.0 / N_GRID
    z = -0.5 + (np.arange(N_GRID) + 0.5) * h
    if d == 2:
        x, y = np.meshgrid(z, z, indexing="ij")
        return float(np.sum(prof(np.hypot(x, y)) * prof(np.hypot(x - v, y))) * h * h)
    rho = (np.arange(N_GRID // 2) + 0.5) * h
    R, Z = np.meshgrid(rho, z, indexing="ij")
    return float(np.sum(prof(np.hypot(R, Z)) * prof(np.hypot(R, Z - v)) * 2.0 * np.pi * R * h * h))


@pytest.mark.parametrize("d", [2, 3])
def test_self_convolution_table_matches_full_grid(d):
    shifts, vals = _self_convolution_table(d, N_TABLE, N_GRID)
    for v in (0.0, 0.3, 0.77, 1.0):
        k = int(round(v * (N_TABLE - 1)))
        want = full_grid_sum(d, shifts[k])
        assert abs(vals[k] - want) <= 1e-13 * abs(want), (v, vals[k], want)
    assert vals[-1] == 0.0
