"""Configuration-driven command line entry points.

Each command reads a JSON object checked against ``FIELDS``, one rule per field
name for every command (numbers finite, integers possibly written as ``3.0``, no
unknown keys, every required key present), runs its experiment and writes
artifacts that embed the resolved config and seed into the output directory.
Exit codes: 0 success, 2 config/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

import numpy as np

DEFAULT_THIN = 100


class Rule(NamedTuple):
    """One config field's rule: ``kind`` is "number", "integer", "integers" (a
    list), "boolean" or a tuple of allowed strings; bounds apply to each number."""

    kind: str | tuple
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: float | None = None


_POSITIVE = Rule("number", exclusive_minimum=0)
_FRACTION = Rule("number", 0, 1)
_COUNT = Rule("integer", 1)

FIELDS = {
    "S": Rule("integer", 3),
    "d": Rule("integer", 1, 3),
    "t": _FRACTION,
    "cells": Rule("integers", 1),
    "margins": Rule("integers", 0),
    "max_points": Rule("integer", 2, 12),
    "epsilon": Rule("number", 0),
    "amplitude": Rule("number"),
    "one_body": Rule("boolean"),
    "mismatched": Rule("boolean"),
    "phase": Rule(("uniform", "ordered")),
    **dict.fromkeys(["beta", "beta_min", "beta_max", "gamma", "ell0", "ell_minus", "ell_plus",
                     "zeta", "ladder_zeta", "c_star", "step"], _POSITIVE),
    **dict.fromkeys(["p_birth", "p_death", "p_move", "p_flip"], _FRACTION),
    **dict.fromkeys(["n_points", "n_plus", "n_starts", "far_rows", "moves", "thin", "n_runs",
                     "sweeps", "n_instances"], _COUNT),
}


class ConfigError(ValueError):
    """A config that cannot be read or breaks its command's field rules."""


def _conform(value, rule: Rule):
    """``value`` as the commands read it (integers as int), or None if it breaks ``rule``."""
    if isinstance(rule.kind, tuple):
        return value if value in rule.kind else None
    if rule.kind == "boolean":
        return value if isinstance(value, bool) else None
    if rule.kind == "integers":
        if not isinstance(value, list):
            return None
        items = [_conform(v, rule._replace(kind="integer")) for v in value]
        return None if None in items else items
    # a bool is not a number; NaN, +-inf and ints beyond the float range fail abs() <= max
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        return None
    if rule.kind == "integer" and value != int(value):
        return None
    if ((rule.minimum is not None and value < rule.minimum)
            or (rule.exclusive_minimum is not None and value <= rule.exclusive_minimum)
            or (rule.maximum is not None and value > rule.maximum)):
        return None
    return int(value) if rule.kind == "integer" else value


def _requirement(rule: Rule) -> str:
    if isinstance(rule.kind, tuple):
        return "one of " + ", ".join(rule.kind)
    if rule.kind == "boolean":
        return "true or false"
    noun = "positive and finite" if rule.exclusive_minimum == 0 else {
        "number": "a finite number", "integer": "a finite integer",
        "integers": "a list of finite integers"}[rule.kind]
    bounds = [f"{name} {bound}" for name, bound in
              zip(("minimum", "maximum", "exclusive minimum"), rule[1:]) if bound is not None]
    return f"{noun} with {' and '.join(bounds)}" if bounds else noun


def load_config(path, command):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config invalid for {command}: expected a JSON object, "
                          f"got {type(cfg).__name__}")
    _, required, optional = COMMANDS[command]
    problems = [f"missing required field {key}" for key in required if key not in cfg]
    for key, value in cfg.items():
        if key not in required and key not in optional:
            problems.append(f"unknown field {key}")
            continue
        conformed = _conform(value, FIELDS[key])
        if conformed is None:
            problems.append(f"{key} must be {_requirement(FIELDS[key])}, got {value!r}")
        cfg[key] = conformed
    if problems:
        raise ConfigError(f"config invalid for {command}: " + "; ".join(problems))
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
    rho_ref = sol.minimizers[0] if cfg.get("phase") == "ordered" else sol.minimizers[-1]
    box = 0.5 * max(
        float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        for i, a in enumerate(sol.minimizers)
        for b in sol.minimizers[i + 1 :]
    )
    spec = lat.LatticeSpec(d=cfg["d"], ell=cfg["ell_minus"], shape=tuple(cfg["cells"]),
                           gamma=cfg["gamma"], S=cfg["S"])
    kernel = lat.build_kernel(spec)
    fcfg = lat.FunctionalConfig(
        rho_ref=rho_ref, lambda_beta=sol.lambda_beta, beta=sol.beta, zeta=cfg["zeta"], t=cfg["t"],
        box=box, epsilon=cfg.get("epsilon", 0.0), one_body=cfg.get("one_body", False))
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
            "cells_on_box_face": res.cells_on_box_face,
            "n_cells": spec.n_cells,
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
    maker = make_mismatched_pair if cfg.get("mismatched", True) else make_identical_pair

    def build(run_seed):
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


_LATTICE = ("S", "d", "ell_minus", "cells", "gamma", "t", "zeta")
_PARTICLES = ("S", "d", "gamma", "ell0", "ell_minus", "ell_plus", "n_plus", "zeta", "t")

# each command's function, its required config fields and its optional ones
COMMANDS = {
    "phase-diagram": (cmd_phase_diagram, ("S", "beta_min", "beta_max", "n_points"), ()),
    "lp-minimize": (cmd_lp_minimize, _LATTICE,
                    ("beta", "one_body", "epsilon", "n_starts", "phase")),
    "lp-decay": (cmd_lp_decay, _LATTICE, ("beta", "amplitude", "far_rows")),
    "simulate": (cmd_simulate, _PARTICLES + ("moves",),
                 ("beta", "thin", "step", "p_birth", "p_death", "p_move", "p_flip")),
    "couple": (cmd_couple, _PARTICLES + ("n_runs", "margins"),
               ("beta", "ladder_zeta", "c_star", "mismatched", "sweeps")),
    "wasserstein-check": (cmd_wasserstein_check, ("n_instances",), ("max_points",)),
    "validate": (cmd_validate, ("gamma", "ell0", "ell_minus", "ell_plus", "zeta"), ("d",)),
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
    cfg = {}
    try:
        cfg = load_config(args.config, args.command)
        if args.command == "validate":
            return cmd_validate(cfg, args.seed, args.out, strict=args.strict_scales)
        return COMMANDS[args.command][0](cfg, args.seed, args.out)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        _write_json(os.path.join(args.out, "error.json"),
                    {"error": str(exc), "kind": "numerical"}, cfg, args.seed)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError from load_config included
        _write_json(os.path.join(args.out, "error.json"),
                    {"error": str(exc), "kind": "config"}, cfg, args.seed)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
