"""Configuration-driven command line entry points.

Each command reads a JSON config validated against its schema (unknown keys
rejected), runs the corresponding experiment and writes artifacts into the
output directory.  Every artifact embeds the resolved config and seed.  Exit
codes: 0 success, 2 config/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

SCHEMAS: dict = {}


def _schema(name, properties, required):
    SCHEMAS[name] = {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


_num = {"type": "number"}
_int = {"type": "integer"}
_pos_int = {"type": "integer", "minimum": 1}
_pos_num = {"type": "number", "exclusiveMinimum": 0}
_prob = {"type": "number", "minimum": 0, "maximum": 1}
DEFAULT_THIN = 100

_schema(
    "phase-diagram",
    {
        "S": {"type": "integer", "minimum": 3},
        "beta_min": {"type": "number", "exclusiveMinimum": 0},
        "beta_max": {"type": "number", "exclusiveMinimum": 0},
        "n_points": {"type": "integer", "minimum": 1},
    },
    ["S", "beta_min", "beta_max", "n_points"],
)
_schema(
    "lp-minimize",
    {
        "S": {"type": "integer", "minimum": 3},
        "beta": {"type": "number", "exclusiveMinimum": 0},
        "d": {"type": "integer", "minimum": 1, "maximum": 3},
        "ell_minus": _num,
        "cells": {"type": "array", "items": _pos_int},
        "gamma": _num,
        "t": _num,
        "zeta": _pos_num,
        "one_body": {"type": "boolean"},
        "epsilon": _num,
        "n_starts": _pos_int,
        "phase": {"type": "string", "enum": ["uniform", "ordered"]},
    },
    ["S", "d", "ell_minus", "cells", "gamma", "t", "zeta"],
)
_schema(
    "lp-decay",
    {
        "S": {"type": "integer", "minimum": 3},
        "beta": {"type": "number", "exclusiveMinimum": 0},
        "d": {"type": "integer", "minimum": 1, "maximum": 3},
        "ell_minus": _num,
        "cells": {"type": "array", "items": _pos_int},
        "gamma": _num,
        "t": _num,
        "zeta": _pos_num,
        "amplitude": _num,
        "far_rows": _pos_int,
    },
    ["S", "d", "ell_minus", "cells", "gamma", "t", "zeta"],
)
_schema(
    "simulate",
    {
        "S": _int,
        "beta": _num,
        "d": _int,
        "gamma": _pos_num,
        "ell0": _pos_num,
        "ell_minus": _pos_num,
        "ell_plus": _pos_num,
        "n_plus": _pos_int,
        "zeta": _pos_num,
        "t": _num,
        "moves": _pos_int,
        "thin": _pos_int,
        "step": _num,
        "p_birth": _prob,
        "p_death": _prob,
        "p_move": _prob,
        "p_flip": _prob,
    },
    ["S", "d", "gamma", "ell0", "ell_minus", "ell_plus", "n_plus", "zeta", "t", "moves"],
)
_schema(
    "couple",
    {
        "S": _int,
        "beta": _num,
        "d": _int,
        "gamma": _pos_num,
        "ell0": _pos_num,
        "ell_minus": _pos_num,
        "ell_plus": _pos_num,
        "n_plus": _pos_int,
        "zeta": _pos_num,
        "t": _num,
        "n_runs": _pos_int,
        "margins": {"type": "array", "items": _int},
        "ladder_zeta": _num,
        "c_star": _num,
        "mismatched": {"type": "boolean"},
        "sweeps": _pos_int,
    },
    ["S", "d", "gamma", "ell0", "ell_minus", "ell_plus", "n_plus", "zeta", "t", "n_runs", "margins"],
)
_schema(
    "wasserstein-check",
    {
        "n_instances": {"type": "integer", "minimum": 1},
        "max_points": {"type": "integer", "minimum": 2, "maximum": 12},
    },
    ["n_instances"],
)
_schema(
    "validate",
    {
        "gamma": _pos_num,
        "ell0": _pos_num,
        "ell_minus": _pos_num,
        "ell_plus": _pos_num,
        "zeta": _num,
        "d": _int,
    },
    ["gamma", "ell0", "ell_minus", "ell_plus", "zeta"],
)


class ConfigError(Exception):
    pass


def load_config(path, command):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    import jsonschema

    try:
        jsonschema.validate(cfg, SCHEMAS[command])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config invalid for {command}: {exc.message}") from exc
    # JSON Schema counts 3.0 as an integer; the commands count and index with it
    for key, prop in SCHEMAS[command]["properties"].items():
        if key in cfg and prop.get("type") == "integer":
            cfg[key] = int(cfg[key])
        elif key in cfg and prop.get("items", {}).get("type") == "integer":
            cfg[key] = [int(v) for v in cfg[key]]
    if command == "simulate" and cfg["moves"] < cfg.get("thin", DEFAULT_THIN):
        raise ConfigError(f"config invalid for simulate: moves ({cfg['moves']}) is less "
                          f"than thin ({cfg.get('thin', DEFAULT_THIN)})")
    return cfg


def _write_json(path, payload, cfg, seed):
    payload = {"config": cfg, "seed": seed, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_header_line(cfg, seed) -> str:
    return "# config " + json.dumps(cfg, sort_keys=True) + f" seed {seed}"


# ---------------------------------------------------------------------------
# commands


def cmd_phase_diagram(cfg, seed, out):
    from . import meanfield as mf

    table = mf.phase_diagram_curve(cfg["S"], (cfg["beta_min"], cfg["beta_max"]), cfg["n_points"])
    sol = mf.common_tangent(cfg["S"])
    with open(os.path.join(out, "phase_diagram.csv"), "w") as fh:
        fh.write(_csv_header_line(cfg, seed) + "\n")
        mf.write_phase_diagram_csv(fh, table)
    _write_json(os.path.join(out, "solution.json"), json.loads(mf.solution_to_json(sol)), cfg, seed)
    return 0


def _lattice_setup(cfg):
    from . import lattice as lat
    from . import meanfield as mf

    sol = mf.common_tangent(cfg["S"], cfg.get("beta", 1.0))
    which = cfg.get("phase", "uniform")
    rho_ref = sol.minimizers[-1] if which == "uniform" else sol.minimizers[0]
    box = 0.5 * max(
        float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        for i, a in enumerate(sol.minimizers)
        for b in sol.minimizers[i + 1 :]
    )
    spec = lat.LatticeSpec(d=cfg["d"], ell=cfg["ell_minus"], shape=tuple(cfg["cells"]),
                           gamma=cfg["gamma"], S=cfg["S"])
    kernel = lat.build_kernel(spec)
    fcfg = lat.FunctionalConfig(
        beta=sol.beta,
        lambda_beta=sol.lambda_beta,
        t=cfg["t"],
        rho_ref=rho_ref,
        zeta=cfg["zeta"],
        box=box,
        epsilon=cfg.get("epsilon", 0.0),
        one_body=cfg.get("one_body", False),
    )
    return lat, spec, kernel, fcfg


def cmd_lp_minimize(cfg, seed, out):
    lat, spec, kernel, fcfg = _lattice_setup(cfg)
    boundary = lat.LatticeField.constant(spec, kernel.radius, fcfg.rho_ref)
    res = lat.minimize(boundary, kernel, fcfg, n_starts=cfg.get("n_starts", 1), seed=seed)
    with open(os.path.join(out, "minimizer.csv"), "w", newline="") as fh:
        fh.write(_csv_header_line(cfg, seed) + "\n")
        lat.field_to_csv(lat.LatticeField(spec, res.field.interior, 0), fh)
    _write_json(
        os.path.join(out, "minimize_report.json"),
        {
            "iterations": res.iterations,
            "residual": res.residual,
            "dispersion": res.dispersion,
            "max_deviation": float(np.max(np.abs(res.field.interior - fcfg.rho_ref))),
        },
        cfg,
        seed,
    )
    return 0


def cmd_lp_decay(cfg, seed, out):
    lat, spec, kernel, fcfg = _lattice_setup(cfg)
    w = kernel.radius
    base = lat.LatticeField.constant(spec, w, fcfg.rho_ref)
    far = np.zeros(base.values.shape[:-1], dtype=bool)
    rows = cfg.get("far_rows", max(1, w - 1))
    far[tuple([slice(0, rows)])] = True
    vals = base.values.copy()
    amp = cfg.get("amplitude", 0.2)
    vals[far] = np.minimum(fcfg.rho_ref * (1 + amp), fcfg.rho_ref + 0.9 * fcfg.box)
    pert = lat.LatticeField(spec, vals, w)
    fit = lat.decay_experiment(base, pert, far, kernel, fcfg)
    _write_json(
        os.path.join(out, "decay.json"),
        {
            "omega_hat": fit.omega_hat,
            "r_squared": fit.r_squared,
            "n_cells": fit.n_cells,
            "max_difference": fit.max_difference,
        },
        cfg,
        seed,
    )
    return 0


def _sim_setup(cfg):
    from . import meanfield as mf
    from . import simulate as sim

    region = sim.SimRegion(d=cfg["d"], S=cfg["S"], gamma=cfg["gamma"], ell0=cfg["ell0"],
                           ell_minus=cfg["ell_minus"], ell_plus=cfg["ell_plus"],
                           n_plus=cfg["n_plus"])
    beta = cfg.get("beta", 1.0)
    sol = mf.common_tangent(cfg["S"], beta)
    phase = sim.PhaseTarget(rho_ref=sol.minimizers[-1], lambda_beta=sol.lambda_beta,
                            beta=beta, zeta=cfg["zeta"], t=cfg["t"])
    kernel = sim.MoveKernel(
        p_birth=cfg.get("p_birth", 0.25),
        p_death=cfg.get("p_death", 0.25),
        p_move=cfg.get("p_move", 0.3),
        p_flip=cfg.get("p_flip", 0.2),
        step=cfg.get("step", 0.5),
    )
    return sim, region, phase, kernel


def cmd_simulate(cfg, seed, out):
    sim, region, phase, kernel = _sim_setup(cfg)
    from .fixtures import fill_boundary

    system = sim.ParticleSystem(region, phase, seed=seed)
    fill_boundary(system, seed=seed + 1)
    system.seed_phase_configuration()
    thin = cfg.get("thin", DEFAULT_THIN)
    rows = []
    for block in range(cfg["moves"] // thin):
        sim.metropolis_sweep(system, kernel, n_moves=thin)
        rows.append(sim.empirical_density(system).copy())
    sim.save_trajectory(os.path.join(out, "trajectory.npy"), rows)
    with open(os.path.join(out, "trajectory.csv"), "w") as fh:
        fh.write(_csv_header_line(cfg, seed) + "\n")
        sim.trajectory_to_csv(fh, rows)
    obs = sim.measure_observables(system, references=[phase.rho_ref])
    _write_json(
        os.path.join(out, "observables.json"),
        {
            "final_density": obs["density"].reshape(-1).tolist(),
            "eta_counts": {str(k): int(v) for k, v in
                           zip(*np.unique(obs["eta"], return_counts=True))},
            "in_ensemble": bool(system.in_ensemble()),
            "energy_drift_max": max(system.audit_log) if system.audit_log else 0.0,
        },
        cfg,
        seed,
    )
    return 0


def cmd_couple(cfg, seed, out):
    sim, region, phase, kernel = _sim_setup(cfg)
    from . import coupling as cpl
    from . import screening as scr
    from .fixtures import make_identical_pair, make_mismatched_pair

    ladder = scr.LadderSpec(zeta=cfg.get("ladder_zeta", phase.zeta), d=region.d,
                            c_star=cfg.get("c_star", 2.0))
    mismatched = cfg.get("mismatched", True)

    def build(run_seed):
        maker = make_mismatched_pair if mismatched else make_identical_pair
        return maker(region, phase, run_seed, ladder=ladder)

    stats = cpl.percolation_stats(build, cfg["n_runs"], cfg["margins"], kernel,
                                  seed=seed, sweeps=cfg.get("sweeps", 1))
    _write_json(os.path.join(out, "percolation.json"), stats, cfg, seed)
    return 0


def cmd_wasserstein_check(cfg, seed, out):
    from . import transport as tr

    n_inst = cfg["n_instances"]
    cap = cfg.get("max_points", 6)
    violations = []
    for k in range(n_inst):
        local = np.random.default_rng((seed, k))
        n = int(local.integers(2, cap + 1))
        pts = local.uniform(0, 1, size=(n, 3))
        metric = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        w1 = local.uniform(0.05, 1, n)
        w0 = local.uniform(0.05, 1, n)
        mu1 = tr.FiniteMetricMeasure(w1 / w1.sum(), metric)
        mu0 = tr.FiniteMetricMeasure(w0 / w0.sum(), metric)
        _, exact = tr.exact_transport(mu1, mu0)
        cost = tr.coupling_cost(tr.overlap_coupling(mu1, mu0), metric)
        events = [local.uniform(size=n) < 0.5 for _ in range(6)]
        lower = tr.tv_lower_bound(mu1, mu0, events)
        h = local.normal(size=n)
        v = local.normal(size=n)
        nu = local.uniform(0.5, 1.5, size=n)
        pb = tr.perturbation_bound(h, v, nu, mu1)
        _, exact_t = tr.exact_transport(pb["mu_1"], pb["mu_0"])
        bad = []
        if lower > exact + 1e-10:
            bad.append("lower>exact")
        if exact > cost + 1e-10:
            bad.append("exact>overlap")
        if exact_t > pb["grid_bound"] + 1e-10:
            bad.append("exact>grid")
        if pb["grid_bound"] > pb["crude_bound"] + 1e-10:
            bad.append("grid>crude")
        if bad:
            violations.append({"instance": k, "failed": bad})
    _write_json(
        os.path.join(out, "wasserstein_report.json"),
        {"n_instances": n_inst, "violations": violations, "ok": not violations},
        cfg,
        seed,
    )
    return 0 if not violations else 3


def cmd_validate(cfg, seed, out, strict=False):
    from .scales import ScaleSet, validate_scales

    scales = ScaleSet(gamma=cfg["gamma"], ell0=cfg["ell0"], ell_minus=cfg["ell_minus"],
                      ell_plus=cfg["ell_plus"], zeta=cfg["zeta"], d=cfg.get("d", 2))
    warnings = validate_scales(scales)
    payload = {"warnings": warnings, "n_warnings": len(warnings)}
    try:
        payload["exponents"] = scales.exponents()
    except ValueError:
        pass
    _write_json(os.path.join(out, "validate.json"), payload, cfg, seed)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if strict and warnings:
        raise ValueError(f"{len(warnings)} scale warnings under --strict-scales: {warnings[0]}")
    return 0


COMMANDS = {
    "phase-diagram": cmd_phase_diagram,
    "lp-minimize": cmd_lp_minimize,
    "lp-decay": cmd_lp_decay,
    "simulate": cmd_simulate,
    "couple": cmd_couple,
    "wasserstein-check": cmd_wasserstein_check,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pottsgas",
                                     description="phase-coexistence numerics toolkit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--strict-scales", action="store_true",
                        help="treat scale-ordering warnings as errors in validate")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    try:
        cfg = load_config(args.config, args.command)
    except ConfigError as exc:
        _write_json(os.path.join(args.out, "error.json"),
                    {"error": str(exc), "kind": "config"}, {}, args.seed)
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            return cmd_validate(cfg, args.seed, args.out, strict=args.strict_scales)
        return COMMANDS[args.command](cfg, args.seed, args.out)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        _write_json(os.path.join(args.out, "error.json"),
                    {"error": str(exc), "kind": "numerical"}, cfg, args.seed)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        _write_json(os.path.join(args.out, "error.json"),
                    {"error": str(exc), "kind": "config"}, cfg, args.seed)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
