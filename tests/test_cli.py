import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsgas import cli


SIM_BASE = {
    "S": 3, "beta": 4.0, "d": 2, "gamma": 0.5, "ell0": 1.0, "ell_minus": 2.0,
    "ell_plus": 4.0, "n_plus": 1, "zeta": 2.0, "t": 0.5, "moves": 2000, "thin": 200,
}
COUPLE_BASE = {
    "S": 3, "beta": 4.0, "d": 2, "gamma": 0.2, "ell0": 2.5, "ell_minus": 5.0,
    "ell_plus": 10.0, "n_plus": 5, "zeta": 2.0, "t": 0.03,
    "n_runs": 4, "margins": [0, 1, 2], "ladder_zeta": 2.0, "c_star": 0.65,
}

VALIDATE_BASE = {"gamma": 0.2, "ell0": 2.5, "ell_minus": 5.0, "ell_plus": 10.0, "zeta": 2.0, "d": 2}
LP_BASE = {
    "S": 3, "d": 2, "ell_minus": 2.0, "cells": [6, 6], "gamma": 0.05,
    "t": 1.0, "zeta": 0.05, "n_starts": 2,
}
DECAY_BASE = {
    "S": 3, "d": 2, "ell_minus": 1.0, "cells": [8, 8], "gamma": 0.25,
    "t": 1.0, "zeta": 0.05, "amplitude": 0.2,
}


def run_cli(args):
    return cli.main(args)


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_phase_diagram_command(tmp_path):
    cfg = write_cfg(tmp_path, "pd.json", {"S": 3, "beta_min": 0.5, "beta_max": 2.0, "n_points": 10})
    out = tmp_path / "out"
    rc = run_cli(["phase-diagram", "--config", cfg, "--out", str(out), "--seed", "1"])
    assert rc == 0
    lines = (out / "phase_diagram.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "beta,lambda_beta"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert rows.shape == (10, 2)
    assert np.all(np.diff(rows[:, 0]) > 0)
    sol = json.loads((out / "solution.json").read_text())
    assert sol["S"] == 3 and "lambda_beta" in sol
    assert sol["config"]["n_points"] == 10 and sol["seed"] == 1


def test_invalid_config_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"S": 3, "beta_min": -1.0, "beta_max": 2.0, "n_points": 3})
    out = tmp_path / "out"
    rc = run_cli(["phase-diagram", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "config"


def test_unknown_keys_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "bad2.json", {"S": 3, "beta_min": 1.0, "beta_max": 2.0,
                                            "n_points": 3, "bogus": 1})
    rc = run_cli(["phase-diagram", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_malformed_file_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc = run_cli(["validate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_determinism_byte_identical(tmp_path):
    # phase-diagram draws no random numbers; simulate and couple run the
    # seeded sampler, so one seed must give the same chain
    for command, payload in (
        ("phase-diagram", {"S": 3, "beta_min": 0.5, "beta_max": 1.5, "n_points": 4}),
        ("simulate", SIM_BASE),
        ("couple", {**COUPLE_BASE, "n_runs": 2}),
    ):
        cfg = write_cfg(tmp_path, f"{command}.json", payload)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / command / name
            rc = run_cli([command, "--config", cfg, "--out", str(out), "--seed", "7"])
            assert rc == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] and outs[0] == outs[1], command


def test_lp_minimize_command(tmp_path):
    cfg = write_cfg(tmp_path, "lp.json", LP_BASE)
    out = tmp_path / "out"
    rc = run_cli(["lp-minimize", "--config", cfg, "--out", str(out), "--seed", "3"])
    assert rc == 0
    rep = json.loads((out / "minimize_report.json").read_text())
    assert rep["residual"] < 1e-12
    assert rep["max_deviation"] < 1e-10  # perfect boundary reproduces the phase
    lines = (out / "minimizer.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config")
    assert lines[1] == "i0,i1,species,value"
    assert len(lines) == 2 + 6 * 6 * 3


def test_lp_decay_command(tmp_path):
    cfg = write_cfg(tmp_path, "dec.json", DECAY_BASE)
    out = tmp_path / "out"
    rc = run_cli(["lp-decay", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "decay.json").read_text())
    assert rep["omega_hat"] > 0
    assert rep["r_squared"] > 0.9


def test_simulate_command(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", SIM_BASE)
    out = tmp_path / "out"
    rc = run_cli(["simulate", "--config", cfg, "--out", str(out), "--seed", "5"])
    assert rc == 0
    obs = json.loads((out / "observables.json").read_text())
    assert obs["in_ensemble"] is True
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 2000 // 200


def test_couple_command(tmp_path):
    cfg = write_cfg(tmp_path, "cp.json", COUPLE_BASE)
    out = tmp_path / "out"
    rc = run_cli(["couple", "--config", cfg, "--out", str(out), "--seed", "9"])
    assert rc == 0
    rep = json.loads((out / "percolation.json").read_text())
    assert rep["n_runs"] == 4
    assert set(rep["containment"]) == {"0", "1", "2"}


def test_wasserstein_check_command(tmp_path):
    cfg = write_cfg(tmp_path, "wc.json", {"n_instances": 30, "max_points": 6})
    out = tmp_path / "out"
    rc = run_cli(["wasserstein-check", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "wasserstein_report.json").read_text())
    assert rep["ok"] is True and rep["violations"] == []


def test_validate_command(tmp_path):
    # paper-consistent asymptotic scales: no warnings
    g = 1e-6
    cfg = write_cfg(tmp_path, "v1.json", {
        "gamma": g, "ell0": g**-0.5, "ell_minus": g**-(1 - 3e-4),
        "ell_plus": g**-(1 + 4e-4), "zeta": g**1e-5, "d": 2,
    })
    out = tmp_path / "o1"
    rc = run_cli(["validate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "validate.json").read_text())
    assert rep["n_warnings"] == 0

    # desk scales: warnings, still exit 0 unless strict
    cfg2 = write_cfg(tmp_path, "v2.json", {
        "gamma": 0.2, "ell0": 2.5, "ell_minus": 5.0, "ell_plus": 10.0, "zeta": 2.0, "d": 2,
    })
    out2 = tmp_path / "o2"
    rc2 = run_cli(["validate", "--config", cfg2, "--out", str(out2)])
    assert rc2 == 0
    rep2 = json.loads((out2 / "validate.json").read_text())
    assert rep2["n_warnings"] > 0
    rc3 = run_cli(["validate", "--config", cfg2, "--out", str(tmp_path / "o3"), "--strict-scales"])
    assert rc3 == 2


def test_validate_exponent_inequality(tmp_path):
    # alpha_+ = alpha_- = 0.02 passes the 8a+9a < 1/2 check specifically
    from pottsgas.scales import ScaleSet, validate_scales

    g = 1e-4
    s = ScaleSet(gamma=g, ell0=g**-0.5, ell_minus=g**-(1 - 0.02), ell_plus=g**-(1 + 0.02),
                 zeta=g**0.001, d=2)
    ex = s.exponents()
    assert 8 * ex["alpha_plus"] + 9 * ex["alpha_minus"] == pytest.approx(0.34, abs=1e-6)
    warnings = validate_scales(s)
    assert not any("8 alpha" in w for w in warnings)


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "pd.json", {"S": 3, "beta_min": 1.0, "beta_max": 1.0, "n_points": 1})
    proc = subprocess.run(
        [sys.executable, "-m", "pottsgas.cli", "phase-diagram", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True,
    )
    assert proc.returncode == 0


BAD_FIELDS = [
    ("simulate", SIM_BASE, "moves", 0),
    ("simulate", SIM_BASE, "thin", 0),
    ("couple", COUPLE_BASE, "n_runs", 0),
    ("couple", COUPLE_BASE, "sweeps", 0),
    # scales: each of these crashed with a traceback before the schema bounds
    ("simulate", SIM_BASE, "gamma", 0),
    ("simulate", SIM_BASE, "ell0", 0),
    ("simulate", SIM_BASE, "n_plus", 0),
    ("couple", COUPLE_BASE, "gamma", 0),
    ("couple", COUPLE_BASE, "ell0", 0),
    ("validate", VALIDATE_BASE, "gamma", 0),
    # each of these ran with exit 0, or failed inside numpy, before the bounds
    ("simulate", SIM_BASE, "p_move", -0.1),
    ("simulate", SIM_BASE, "zeta", 0),
    ("couple", COUPLE_BASE, "zeta", -0.1),
    ("lp-minimize", LP_BASE, "zeta", -0.1),
    ("lp-minimize", LP_BASE, "cells", [0, 4]),
    ("lp-minimize", LP_BASE, "n_starts", 0),
    ("lp-decay", DECAY_BASE, "zeta", 0),
    ("lp-decay", DECAY_BASE, "far_rows", 0),
    # a target margin below 0 is empty, so its agreement read 0 at exit 0
    ("couple", COUPLE_BASE, "margins", [-3, 0]),
]


@pytest.mark.parametrize("command, base, field, value", BAD_FIELDS,
                         ids=[f"{c}-base{k}-{f}" for k, (c, _, f, _) in enumerate(BAD_FIELDS)])
def test_nonpositive_counts_exit_2(tmp_path, command, base, field, value):
    cfg = write_cfg(tmp_path, "c.json", {**base, field: value})
    out = tmp_path / "out"
    rc = run_cli([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "config"
    # the schema rejects it, not a failure further in
    assert err["error"].startswith(f"config invalid for {command}: ")
    assert "minimum" in err["error"]


def test_lp_minimize_nan_epsilon_exits_2(tmp_path):
    # a NaN barrier weight passed every schema and ran to exit 0 with a NaN
    # objective; the functional's config now rejects it
    cfg = write_cfg(tmp_path, "c.json", {**LP_BASE, "epsilon": float("nan")})
    out = tmp_path / "out"
    assert run_cli(["lp-minimize", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "config" and "epsilon" in err["error"]


def test_lp_decay_nan_amplitude_exits_2(tmp_path):
    # a NaN far strip used to pass the density checks and minimize to a NaN
    # field, then exit 2 with "nothing to fit"
    cfg = write_cfg(tmp_path, "c.json", {**DECAY_BASE, "amplitude": float("nan")})
    out = tmp_path / "out"
    assert run_cli(["lp-decay", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "config"
    assert err["error"] == "densities must be nonnegative, got nan"


@pytest.mark.parametrize("command, base, field, value", [
    # NaN ran to exit 0 and reported eps_hat_mean 0.80
    ("couple", COUPLE_BASE, "ladder_zeta", float("nan")),
    ("couple", COUPLE_BASE, "ladder_zeta", -1.0),
    ("couple", COUPLE_BASE, "c_star", float("inf")),
    ("couple", COUPLE_BASE, "c_star", 0.0),
    # NaN failed every box test, so the run silently made no displacements
    ("simulate", SIM_BASE, "step", float("nan")),
    ("simulate", SIM_BASE, "step", -1.0),
])
def test_bad_ladder_or_step_exits_2(tmp_path, command, base, field, value):
    cfg = write_cfg(tmp_path, "c.json", {**base, field: value})
    out = tmp_path / "out"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "config"
    assert "must be positive and finite" in err["error"]
    assert not (out / "percolation.json").exists() and not (out / "trajectory.npy").exists()


def test_simulate_moves_below_thin_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {**SIM_BASE, "moves": 50, "thin": 200})
    out = tmp_path / "out"
    rc = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = json.loads((out / "error.json").read_text())
    assert err["kind"] == "config"
    assert "moves" in err["error"] and "thin" in err["error"]
    assert not (out / "trajectory.npy").exists()


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["lp-minimize", "lp-decay"]), d=st.integers(1, 3),
       ell=st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0]),
       gamma_ell=st.sampled_from([0.25, 0.4, 0.7, 0.0, -0.4, 1.0, 2.5]),
       t=st.sampled_from([0.0, 0.5, 1.0, -0.5, 1.5]),
       zeta=st.sampled_from([0.05, 0.01, 0.0, -0.1, 0.5, 5.0]), data=st.data())
def test_lattice_commands_exit_0_2_or_3(command, d, ell, gamma_ell, t, zeta, data):
    # small boxes and stencils (gamma * ell >= 0.25) around out-of-range
    # scales, weights and far strips; a nonzero exit leaves error.json
    cfg = {"S": 3, "d": d, "ell_minus": ell,
           "cells": data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)),
           "gamma": gamma_ell / ell if ell else gamma_ell, "t": t, "zeta": zeta}
    if command == "lp-minimize":
        cfg["epsilon"] = data.draw(st.sampled_from([0.0, 1e-3, 0.1, -0.1, float("nan")]))
    else:
        cfg["amplitude"] = data.draw(st.sampled_from([0.2, 0.0, -0.5, -2.0, 1.0, 10.0]))
        if data.draw(st.booleans()):
            cfg["far_rows"] = data.draw(st.integers(0, 12))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = run_cli([command, "--config", path, "--out", tmp])
        assert rc in (0, 2, 3), cfg
        if rc:
            error = json.loads(open(os.path.join(tmp, "error.json")).read())
            assert error["kind"] == {2: "config", 3: "numerical"}[rc], (cfg, error)


NAN, INF = float("nan"), float("inf")


def _exit_code_case(command, cfg, extra=()):
    """Run one drawn config; a nonzero exit must leave error.json of its kind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        rc = run_cli([command, "--config", path, "--out", tmp, *extra])
        assert rc in (0, 2, 3), cfg
        if rc:
            error = json.loads(open(os.path.join(tmp, "error.json")).read())
            assert error["kind"] == {2: "config", 3: "numerical"}[rc], (cfg, error)


@settings(max_examples=100, deadline=None)
@given(S=st.sampled_from([3, 4, 7, 3.0, 2, 0, -1, 4.5]),
       beta_min=st.sampled_from([0.5, 1.0, 3.0, 1e-300, 0.0, -1.0, NAN, INF]),
       beta_max=st.sampled_from([2.0, 0.7, 1e300, 0.0, -2.0, NAN, INF]),
       n_points=st.sampled_from([1, 4, 2.0, 0, -3, 2.5]))
def test_phase_diagram_exits_0_2_or_3(S, beta_min, beta_max, n_points):
    # spin counts, temperatures and point counts out of range, non-integral,
    # NaN or infinite; S = 3.0 and n_points = 2.0 crashed in range() and
    # linspace before integer fields were converted
    _exit_code_case("phase-diagram",
                    {"S": S, "beta_min": beta_min, "beta_max": beta_max, "n_points": n_points})


@settings(max_examples=150, deadline=None)
@given(lengths=st.lists(st.sampled_from([0.2, 1e-6, 1.0, 2.5, 5.0, 1e6, 0.0, -1.0, NAN, INF]),
                        min_size=4, max_size=4),
       zeta=st.sampled_from([2.0, 0.5, 0.0, -1.0, NAN, INF]),
       d=st.sampled_from([1, 2, 3, 2.0, 0, -1]), strict=st.booleans())
def test_validate_exits_0_2_or_3(lengths, zeta, d, strict):
    # ell_minus = 1 divided by zero, NaN and infinite lengths ran to exit 0,
    # and --strict-scales exited 2 without error.json
    cfg = dict(zip(["gamma", "ell0", "ell_minus", "ell_plus"], lengths), zeta=zeta, d=d)
    _exit_code_case("validate", cfg, ["--strict-scales"] if strict else [])
