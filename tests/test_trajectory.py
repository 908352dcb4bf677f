"""``tools/trajectory.py`` reads every committed ``BENCH_*.json`` file in the
shape it has; these tests call its parser only, so they need no git."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FILES = sorted(REPO.glob("BENCH_*.json"))

_spec = importlib.util.spec_from_file_location("trajectory", REPO / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_trajectory_reads_every_bench_file(path):
    rows = trajectory.read(path)
    assert rows and {row.metric for row in rows} <= set(trajectory.METRICS)
    for row in rows:
        assert math.isfinite(row.parent) and math.isfinite(row.change), row
        assert row.won is None or 0 <= row.won <= (row.pairs or row.won), row


def test_trajectory_refuses_a_file_it_cannot_read(tmp_path):
    assert FILES
    bad = tmp_path / "BENCH_bad.json"
    for data in ({"workloads": {"sample": 3}},
                 {"workloads": {"sample": {"wall_s": {"parent": [1.0], "change": [0.9]}}}},
                 {"workloads": {"sample": {"metrics": {"wall_s": {"parent": {}, "change": {}}}}}},
                 {"workloads": {"sample": {"pairs": 3}}},
                 {"workloads": []}):
        bad.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            trajectory.read(bad)
