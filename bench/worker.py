"""One workload in one fresh process; started by run.py, never by hand.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED_AT

MODE ``setup`` stops after set-up; ``run`` also times the ops untraced;
``trace`` then repeats them with spans, checks that both passes give equal
outputs, runs the layer probes and derives the per-layer metrics.  The last
stdout line is a JSON object; spans go to bench/out/.
"""

from __future__ import annotations

import contextlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FLOAT_RTOL, FLOAT_ATOL = 1e-8, 1e-10


def mismatches(got, want, path="") -> list[str]:
    """Differences between an output and its reference: integers, strings
    and booleans exactly, floats within FLOAT_RTOL / FLOAT_ATOL."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) and \
                math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check_reference(workload: str, rec: wl.Recorder):
    """On the default seed, compare each op (and the run summary, when the
    run has the reference's size) with the outputs recorded at the seed
    commit.  Ops beyond the reference are checked by invariants only."""
    ref = json.loads((BENCH / "reference.json").read_text())[workload]
    for k, (op, (kind, want)) in enumerate(zip(rec.ops, ref["ops"])):
        if op.kind != kind:
            op.failures.append(f"op{k}: kind {op.kind} != {kind}")
        elif want is not None and not op.error:
            op.failures += mismatches(wl.plain(op.output), want, f"op{k}")[:3]
    if rec.summary is not None and len(rec.ops) == len(ref["ops"]):
        rec.ops[-1].failures += mismatches(wl.plain(rec.summary), ref["summary"], "summary")[:3]


def run_phase(workload, ctx, seed: int, seconds: int, tracer=None) -> wl.Recorder:
    rec = wl.Recorder(tracer)
    with contextlib.ExitStack() as stack:
        for owner, attr in workload.CHECKPOINTS:
            stack.enter_context(rec.checkpoints(owner, attr))
        workload.run(ctx, seed, seconds, rec)
    rec.calibrate()
    if seed == wl.DEFAULT_SEED:
        check_reference(workload.name, rec)
    return rec


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_times(rec: wl.Recorder) -> list[float]:
    """Op times scaled to the reference speed: each segment of an op times
    CAL_REF_S over the mean of the calibration samples just before and just
    after it."""
    cal = rec.calibration
    return [sum(seg * wl.CAL_REF_S * 2 / (cal[op.cal + j] + cal[op.cal + j + 1])
                for j, seg in enumerate(op.segments))
            for op in rec.ops]


def op_summary(rec: wl.Recorder) -> dict:
    raw = [op.seconds for op in rec.ops]
    times = scaled_times(rec)
    return {
        "attempted": len(rec.ops),
        "failed": sum(op.failed for op in rec.ops),
        "known_failures": [op.known for op in rec.ops if op.known],
        "failures": [(k, op.kind, op.error or op.failures[0])
                     for k, op in enumerate(rec.ops) if op.failed][:10],
        "wall_s": sum(times),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_p90_ms": percentile(times, 90) * 1e3,
        "op_samples": len(times),
        "raw": {"wall_s": sum(raw), "op_p50_ms": percentile(raw, 50) * 1e3,
                "op_p90_ms": percentile(raw, 90) * 1e3},
        "calibration_ms": [c * 1e3 for c in rec.calibration],
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, first: int, rec: wl.Recorder, probes: dict) -> dict:
    """Per-layer metrics from the set-up spans (``spans[:first]``), the traced
    pass's spans (``spans[first:]``), its outputs and the probes.  Layers a
    workload never calls read 0.  Span durations exclude the calibration
    samples taken inside them."""
    setup, phase = spans[:first], spans[first:]
    net = [s[2] - s[1] for s in spans]
    for name, start, end, parent, op, attrs in phase:
        if name == "bench.calibrate":
            while parent >= first:
                net[parent] -= end - start
                parent = spans[parent][3]

    def durations(name, where=lambda span: True):
        return [net[sid] for sid in range(first, len(spans))
                if spans[sid][0] == name and where(spans[sid])]

    def setup_s(name):
        return sum(s[2] - s[1] for s in setup if s[0] == name)

    m = dict(probes)
    m["meanfield.common_tangent_ms"] = setup_s("meanfield.common_tangent") * 1e3
    m["kernels.pair_table_s"] = setup_s("kernels.pair_table")
    m["kernels.stencil_ms"] = setup_s("kernels.stencil") * 1e3
    m["lattice.build_kernel_ms"] = setup_s("lattice.build_kernel") * 1e3

    sweeps = [s for s in phase if s[0] == "simulate.metropolis_sweep" and s[5]]
    proposals = sum(s[5]["proposals"] for s in sweeps)
    accepted = sum(s[5]["accepted"] for s in sweeps)
    m["simulate.sweep_s"] = sum(durations("simulate.metropolis_sweep"))
    m["simulate.proposals"] = proposals
    m["simulate.accepted"] = accepted
    m["simulate.accept_ratio"] = accepted / proposals if proposals else 0.0
    m["simulate.total_energy_ms"] = _median(durations("simulate.total_energy")) * 1e3
    m["fixtures.make_pair_ms"] = _median(durations("fixtures.make_pair")) * 1e3

    runs = [op.output for op in rec.ops if op.kind == "run" and op.output]
    branches = [b for r in runs for b in r["branches"]]
    checks = sum(r["theta"][0] for r in runs)
    fails = sum(r["theta"][1] for r in runs)
    updates = durations("coupling.coupled_update")
    m["coupling.run_ms"] = _median(durations("coupling.run_coupled_screening")) * 1e3
    m["coupling.coupled_update_ms.p50"] = percentile(updates, 50) * 1e3 if updates else 0.0
    m["coupling.coupled_update_ms.p90"] = percentile(updates, 90) * 1e3 if updates else 0.0
    m["coupling.peels"] = sum(len(r["peels"]) for r in runs)
    for b in ("qt", "diagonal", "product"):
        m[f"coupling.branch.{b}"] = branches.count(b)
    m["coupling.theta_checks"] = checks
    m["coupling.theta_failures"] = fails
    m["coupling.eps_hat"] = fails / checks if checks else 0.0

    in_verify = {first + i for i, s in enumerate(phase) if s[0] == "screening.verify_stopping"}
    m["screening.select_next_ms"] = _median(durations("screening.select_next")) * 1e3
    m["screening.classify_and_peel_ms"] = _median(durations("screening.classify_and_peel")) * 1e3
    m["screening.run_screening_ms"] = _median(
        durations("screening.run_screening", lambda s: s[3] not in in_verify)) * 1e3
    m["screening.verify_stopping_ms"] = _median(durations("screening.verify_stopping")) * 1e3
    m["screening.peels"] = len(durations("screening.classify_and_peel"))
    m["screening.replays"] = len(
        durations("screening.run_screening", lambda s: s[3] in in_verify))

    def of_kind(kind):
        return lambda s: rec.ops[s[4]].kind == kind

    outputs = {op.kind: op.output for op in rec.ops}
    m["lattice.minimize_s.wide"] = sum(durations("lattice.minimize", of_kind("wide")))
    m["lattice.minimize_iterations.wide"] = (outputs.get("wide") or {}).get("iterations", 0)
    m["lattice.decay_s.narrow"] = sum(durations("lattice.decay_experiment"))
    m["lattice.coercivity_ms"] = _median(
        durations("lattice.hessian_coercivity", of_kind("round"))) * 1e3
    m["lattice.coercivity_failed"] = sum(
        1 for s in phase if s[0] == "lattice.hessian_coercivity" and s[5])

    for layer, secs in tracing.self_times(spans, first).items():
        m[f"self_s.{layer}"] = secs
    m["trace.spans"] = len(phase)
    return m


def write_spans(path: Path, spans: list):
    path.parent.mkdir(exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write('{"fields": ["id", "name", "start_s", "end_s", "parent", "op", "attrs"]}\n')
        for sid, (name, start, end, parent, op, attrs) in enumerate(spans):
            fh.write(json.dumps([sid, name, start - t0, end - t0, parent, op, attrs]) + "\n")


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, spawned_at = argv
    seed, seconds, spawned_at = int(seed), int(seconds), float(spawned_at)
    workload = wl.WORKLOADS[name]
    tracer = tracing.Tracer() if mode == "trace" else tracing.NullTracer()
    ctx = workload.setup(tracer, seed)
    out = {"setup_s": time.monotonic() - spawned_at}
    if mode != "setup":
        rec = run_phase(workload, ctx, seed, seconds)
        out.update(op_summary(rec))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["context"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
    if mode == "trace":
        first = len(tracer.spans)
        with tracer.patched(tracing.TARGETS):
            traced = run_phase(workload, ctx, seed, seconds, tracer)
        summary = op_summary(traced)
        differ = [k for k, (a, b) in enumerate(zip(rec.ops, traced.ops))
                  if wl.plain(a.output) != wl.plain(b.output)]
        if len(rec.ops) != len(traced.ops) or wl.plain(rec.summary) != wl.plain(traced.summary):
            differ.append(len(traced.ops) - 1)
        try:
            probes = workload.probe(ctx, traced, seed)
        except Exception as exc:  # e.g. every op failed and left no state to probe
            probes = {}
            out["probe_error"] = f"{type(exc).__name__}: {exc}"
        layer = layer_metrics(tracer.spans, first, traced, probes)
        layer["trace.overhead_s"] = summary["wall_s"] - out["wall_s"]
        out["traced"] = summary
        out["traced_outputs_differ"] = sorted(set(differ))
        out["failed"] = len({k for k, op in enumerate(traced.ops) if op.failed} | set(differ)
                            | {k for k, op in enumerate(rec.ops) if op.failed})
        out["layer"] = layer
        out["untraced_targets"] = tracer.missing
        spans_path = BENCH / "out" / f"{name}-seed{seed}-spans.jsonl"
        write_spans(spans_path, tracer.spans)
        out["spans_file"] = str(spans_path.relative_to(BENCH.parent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
