"""The four benchmark workloads: set-up, timed ops, per-op checks and the
layer probes of the traced run.

Every input is derived from the workload seed through ``derive``.  A
workload's ``setup`` is everything before its first timed op; ``run`` times
ops through a ``Recorder`` and checks each op's output against the
invariants the library states; ``probe`` runs only in the traced run, after
the outputs are recorded, on the final state or on copies of it.  Why each
workload was chosen is in README.md.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import statistics
import time

import numpy as np

from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import kernels
from pottsgas import lattice as lat
from pottsgas import meanfield as mf
from pottsgas import screening as scr
from pottsgas import simulate as sim

from tracing import NullTracer

DEFAULT_SEED = 0


def derive(seed: int, tag: int) -> int:
    """Fixture seed number ``tag`` of the workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def plain(x):
    """JSON-shaped copy: tuples become lists, numpy scalars Python numbers."""
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return plain(x.tolist())
    if isinstance(x, np.generic):
        return x.item()
    return x


def digest(arr) -> str:
    return hashlib.sha256(json.dumps(plain(arr)).encode()).hexdigest()[:16]


def chain_digest(system) -> dict:
    return {"n": len(system.mobile_ids), "occupancy": digest(system.counts)}


def peel_history(partition) -> list:
    return [[h["selected"], [[q, h["statuses"][q]] for q in h["sigma"]]]
            for h in partition.history]


# Time of ``calibration_s`` on the reference VM at its full speed.
CAL_REF_S = 1.40e-3


def calibration_s() -> float:
    """Median of three timings of a fixed interpreter-and-numpy kernel.

    The reference VM alternates, for seconds to minutes at a time, between
    speeds up to 2x apart.  Timing this kernel next to every op lets the
    end-to-end times be scaled to one speed (README.md, "Speed scaling")."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        a = np.arange(200.0)
        for _ in range(200):
            a = np.sqrt(a * a + 1.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def median_call_us(fn, n: int) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


# Shortest timed stretch between two calibration samples inside one op.
CHECKPOINT_S = 0.1


class Op:
    __slots__ = ("kind", "segments", "cal", "output", "error", "failures", "known")

    def __init__(self, kind: str, cal: int):
        self.kind = kind
        self.segments: list[float] = []  # timed stretches between calibration samples
        self.cal = cal  # index of the calibration sample before the first segment
        self.output = None
        self.error = None  # exception raised by the library call
        self.failures: list[str] = []  # checks the output failed
        self.known = None  # the documented defect, kept out of ``failed``

    @property
    def seconds(self) -> float:
        return sum(self.segments)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


@contextlib.contextmanager
def patch(owner, attr: str, wrap):
    """Replace ``owner.attr`` by ``wrap(original)`` for the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Recorder:
    """Times ops and keeps their outputs.

    ``calibration`` holds the ``calibration_s`` samples in time order: one
    before each op, one at each checkpoint inside an op and one after the
    last op, so every timed segment lies between two samples.  ``last``
    holds live objects of the final op for the traced run's probes."""

    def __init__(self, tracer=None):
        self.tracer = tracer or NullTracer()
        self.ops: list[Op] = []
        self.calibration: list[float] = []
        self.summary = None
        self.last: dict = {}
        self._open: Op | None = None
        self._t0 = 0.0

    def calibrate(self):
        with self.tracer.span("bench.calibrate"):
            self.calibration.append(calibration_s())

    def begin(self, kind: str) -> Op:
        self.calibrate()
        op = Op(kind, len(self.calibration) - 1)
        self.tracer.op_id = len(self.ops)
        self.ops.append(op)
        self._open = op
        self._t0 = time.perf_counter()
        return op

    def end(self):
        if self._open is None:
            return
        self._open.segments.append(time.perf_counter() - self._t0)
        self._open = None
        self.tracer.op_id = -1

    def checkpoint(self):
        """Inside an op at least CHECKPOINT_S into its segment: close the
        segment, take a calibration sample (untimed) and open the next."""
        now = time.perf_counter()
        if self._open is None or now - self._t0 < CHECKPOINT_S:
            return
        self._open.segments.append(now - self._t0)
        self.calibrate()
        self._t0 = time.perf_counter()

    def checkpoints(self, owner, attr: str):
        """Call ``checkpoint`` before every call of ``owner.attr``; if the
        library no longer has it, ops are calibrated at their ends only."""
        if attr not in owner.__dict__:
            return contextlib.nullcontext()

        def wrap(original):
            def checkpointed(*args, **kwargs):
                self.checkpoint()
                return original(*args, **kwargs)
            return checkpointed
        return patch(owner, attr, wrap)

    @contextlib.contextmanager
    def op(self, kind: str):
        op = self.begin(kind)
        try:
            with self.tracer.span(f"bench.{kind}"):
                yield op
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.end()


def capture(owner, attr: str, sink: list):
    """Append every return value of ``owner.attr`` to ``sink``."""

    def wrap(original):
        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result)
            return result
        return recording
    return patch(owner, attr, wrap)


# ---------------------------------------------------------------------------
# sample and couple: the criterion-11 geometry


def _criterion11(tracer, t: float) -> dict:
    with tracer.span("meanfield.common_tangent"):
        sol = mf.common_tangent(3, 4.0)
    with tracer.span("kernels.pair_table"):
        potential = kernels.PairPotential(0.2, 2)
    region = sim.SimRegion(d=2, S=3, gamma=0.2, ell0=2.5, ell_minus=5.0, ell_plus=10.0,
                           n_plus=5)
    phase = sim.PhaseTarget(rho_ref=sol.minimizers[-1], lambda_beta=sol.lambda_beta,
                            beta=4.0, zeta=2.0, t=t)
    return {"region": region, "phase": phase, "kernel": sim.MoveKernel(),
            "potential": potential}


def _clone_chain(system, phase, seed: int):
    """Fresh chain with ``system``'s particles under another phase target."""
    out = sim.ParticleSystem(system.region, phase, seed=seed)
    ids = np.flatnonzero(system.alive)
    frozen = system.frozen[ids]
    out.add_boundary(system.pos[ids[frozen]], system.spin[ids[frozen]])
    out.add_particles(system.pos[ids[~frozen]], system.spin[ids[~frozen]])
    return out


SINGLE_KIND = {
    "birth_death": sim.MoveKernel(p_birth=0.5, p_death=0.5, p_move=0.0, p_flip=0.0),
    "displace": sim.MoveKernel(p_birth=0.0, p_death=0.0, p_move=1.0, p_flip=0.0),
    "flip": sim.MoveKernel(p_birth=0.0, p_death=0.0, p_move=0.0, p_flip=1.0),
}
PROBE_PROPOSALS = 1500


def _sampler_probes(system, potential, seed: int) -> dict:
    """Single-kind sweeps at t=1 and t=0 on copies of the final chain, and
    one pair-potential call on a neighbour-gather-sized vector."""
    out = {}
    for tag, t in (("t1", 1.0), ("t0", 0.0)):
        phase = dataclasses.replace(system.phase, t=t)
        for kind, kernel in SINGLE_KIND.items():
            chain = _clone_chain(system, phase, derive(seed, 50))
            t0 = time.perf_counter()
            acc = sim.metropolis_sweep(chain, kernel, n_moves=PROBE_PROPOSALS, audit=False)
            out[f"simulate.moves_per_s.{tag}.{kind}"] = PROBE_PROPOSALS / (time.perf_counter() - t0)
            out[f"simulate.accept_ratio.{tag}.{kind}"] = acc / PROBE_PROPOSALS
    # ~9 cells of ~16 particles, two thirds of them of another species
    dist = np.random.default_rng(derive(seed, 51)).uniform(0.0, potential.range, 96)
    out["kernels.potential_eval_us"] = median_call_us(lambda: potential(dist), 2000)
    return out


def _k_function_probe(pair, partition) -> dict:
    n = pair.region.cells_per_axis
    lam = partition.lambda_cubes
    times = []
    for cell in np.ndindex(n, n):
        t0 = time.perf_counter()
        scr.k_function(pair, lam, cell)
        times.append(time.perf_counter() - t0)
    return {"screening.k_function_us": statistics.median(times) * 1e6}


class Sample:
    """Single-chain Metropolis at t=1 in blocks of THIN proposals, audits on."""

    name = "sample"
    THIN = 200
    CHECKPOINTS = ()  # ops are short enough to be calibrated at their ends

    @staticmethod
    def n_ops(seconds: int) -> int:
        return max(5, 19 * seconds)

    def setup(self, tracer, seed: int) -> dict:
        ctx = _criterion11(tracer, t=1.0)
        system = sim.ParticleSystem(ctx["region"], ctx["phase"], seed=derive(seed, 1))
        fx.fill_boundary(system, seed=derive(seed, 2))
        system.seed_phase_configuration()
        system.energy = system.total_energy()
        ctx["system"] = system
        return ctx

    def run(self, ctx, seed: int, seconds: int, rec: Recorder):
        system = copy.deepcopy(ctx["system"])
        for _ in range(self.n_ops(seconds)):
            with rec.op("block") as op:
                accepted = sim.metropolis_sweep(system, ctx["kernel"], n_moves=self.THIN)
            if op.error:
                continue
            op.output = {"accepted": accepted, "energy": system.energy, **chain_digest(system)}
            if not system.in_ensemble():
                op.failures.append("chain left the accuracy window")
        fresh = system.total_energy()
        drift = abs(system.energy - fresh)
        if drift > 1e-7 * max(abs(fresh), 1.0):
            rec.ops[-1].failures.append(f"final energy drift {drift:.3e}")
        rec.last = {"system": system}

    def probe(self, ctx, rec: Recorder, seed: int) -> dict:
        return _sampler_probes(rec.last["system"], ctx["potential"], seed)


class Couple:
    """One percolation_stats call at the criterion-11 geometry, t=0.03."""

    name = "couple"
    MARGINS = [0, 1, 2]
    CHECKPOINTS = ((cpl, "apply_move"),)

    @staticmethod
    def n_ops(seconds: int) -> int:
        return max(2, round(0.4 * seconds))

    def setup(self, tracer, seed: int) -> dict:
        ctx = _criterion11(tracer, t=0.03)
        ctx["ladder"] = scr.LadderSpec(zeta=2.0, d=2, c_star=0.65)
        return ctx

    def run(self, ctx, seed: int, seconds: int, rec: Recorder):
        n_runs = self.n_ops(seconds)
        pairs, runs = [], []

        def build(run_seed):
            """The ensemble's pair builder; each call starts the next op."""
            rec.end()
            rec.begin("run")
            pair = fx.make_mismatched_pair(ctx["region"], ctx["phase"], run_seed,
                                           ladder=ctx["ladder"])
            pairs.append(pair)
            return pair

        error = None
        with capture(cpl, "run_coupled_screening", runs):
            try:
                with rec.tracer.span("coupling.percolation_stats"):
                    stats = cpl.percolation_stats(build, n_runs, self.MARGINS, ctx["kernel"],
                                                  seed=derive(seed, 3))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            rec.end()
        if error:
            while len(rec.ops) < n_runs:
                rec.ops.append(Op("run", len(rec.calibration) - 1))
            for op in rec.ops:
                op.error = error
            return
        for op, (partition, run_stats), pair in zip(rec.ops, runs, pairs):
            op.output = {
                "peels": peel_history(partition),
                "branches": list(run_stats.branches),
                "theta": [run_stats.theta_checks, run_stats.theta_failures],
                "region": sorted(partition.lambda_cubes),
                "chains": [chain_digest(pair.sys1), chain_digest(pair.sys2)],
            }
            if not (pair.sys1.in_ensemble() and pair.sys2.in_ensemble()):
                op.failures.append("chain left the accuracy window")
            if len(run_stats.branches) != len(partition.history):
                op.failures.append("one branch per peel expected")
        rec.tracer.op_id = -1
        contain = [stats["containment"][m] for m in self.MARGINS]
        rec.summary = {k: stats[k] for k in ("containment", "agreement", "eps_hat_mean")}
        if not (all(0.0 <= p <= 1.0 for p in contain) and contain == sorted(contain)
                and 0.0 <= stats["eps_hat_mean"] <= 1.0):
            rec.ops[-1].failures.append(f"ensemble statistics out of range: {rec.summary}")
        rec.last = {"pair": pairs[-1], "partition": runs[-1][0]}

    def probe(self, ctx, rec: Recorder, seed: int) -> dict:
        out = _sampler_probes(rec.last["pair"].sys1, ctx["potential"], seed)
        out.update(_k_function_probe(rec.last["pair"], rec.last["partition"]))
        return out


# ---------------------------------------------------------------------------
# screen: the criterion-10 fixtures


class Screen:
    """Screening plus stopping-set verification, no Metropolis."""

    name = "screen"
    CHECKPOINTS = ((scr, "k_function"),)
    KINDS = ("identical", "polymer", "perturb")
    CORNERS = [(0, 0), (0, 4), (4, 0), (4, 4), (0, 2), (2, 0), (4, 2), (2, 4)]

    @staticmethod
    def n_ops(seconds: int) -> int:
        return 3 * max(1, round(0.8 * seconds))

    def setup(self, tracer, seed: int) -> dict:
        with tracer.span("meanfield.common_tangent"):
            mf.common_tangent(3)
        with tracer.span("kernels.pair_table"):
            kernels.PairPotential(0.5, 2)
        region = sim.SimRegion(d=2, S=2, gamma=0.5, ell0=0.5, ell_minus=1.0, ell_plus=4.0,
                               n_plus=5)
        phase = sim.PhaseTarget(rho_ref=np.array([1.0, 1.0]), lambda_beta=0.5, beta=1.0,
                                zeta=0.6, t=0.0)
        return {"region": region, "phase": phase,
                "ladder": scr.LadderSpec(zeta=0.6, d=2, c_star=2.0)}

    def run(self, ctx, seed: int, seconds: int, rec: Recorder):
        for k in range(self.n_ops(seconds)):
            kind = self.KINDS[k % 3]
            fseed = derive(seed, 100 + k)
            with rec.op(kind) as op:
                pair = fx.make_identical_pair(ctx["region"], ctx["phase"], fseed,
                                              ladder=ctx["ladder"])
                if kind == "polymer":
                    rng = np.random.default_rng(fseed)
                    cube = self.CORNERS[int(rng.integers(0, len(self.CORNERS)))]
                    fx.inject_polymer(pair, [cube], into_first=bool(rng.integers(0, 2)))
                partition = scr.run_screening(pair)
                report = scr.verify_stopping(pair, partition,
                                             n_replays=4 if kind == "perturb" else 2,
                                             seed=derive(seed, 200 + k))
            if op.error:
                continue
            op.output = {
                "peels": peel_history(partition),
                "region": sorted(partition.lambda_cubes),
                "verified": [report["replay_ok"], report["shell_ok"], report["audit_ok"]],
                "chains": [chain_digest(pair.sys1), chain_digest(pair.sys2)],
            }
            if not report["ok"]:
                op.failures.append(f"verify_stopping: {report['failures'][:2]}")
            if not (pair.sys1.in_ensemble() and pair.sys2.in_ensemble()):
                op.failures.append("chain left the accuracy window")
            rec.last = {"pair": pair, "partition": partition}

    def probe(self, ctx, rec: Recorder, seed: int) -> dict:
        return _k_function_probe(rec.last["pair"], rec.last["partition"])


# ---------------------------------------------------------------------------
# lattice: coarse-grained functional, no particles


class Lattice:
    """Wide-stencil minimization, narrow-stencil decay ladders with a
    coercivity check each, and the wide-box coercivity defect probe."""

    name = "lattice"
    CHECKPOINTS = ((lat.CoarseKernel, "apply"),)
    # name: (gamma, ell, box side)
    GRIDS = {
        "wide": (0.05, 1.0, 16),
        "narrow0.5": (0.5, 1.0, 10),
        "narrow0.3": (0.3, 1.0, 10),
        "narrow0.2": (0.2, 1.0, 10),
        "coercivity": (0.05, 2.0, 8),
        "defect": (0.05, 2.0, 16),
    }
    NARROW = ("narrow0.5", "narrow0.3", "narrow0.2")

    @staticmethod
    def n_ops(seconds: int) -> int:
        return max(1, 4 * seconds)  # narrow rounds, besides one wide and one defect op

    def setup(self, tracer, seed: int) -> dict:
        with tracer.span("meanfield.common_tangent"):
            sol = mf.common_tangent(3)
        rho_ref = sol.minimizers[-1]
        box = 0.5 * max(float(np.max(np.abs(a - b)))
                        for i, a in enumerate(sol.minimizers) for b in sol.minimizers[i + 1:])
        grids = {}
        for name, (gamma, ell, n) in self.GRIDS.items():
            spec = lat.LatticeSpec(d=2, ell=ell, shape=(n, n), gamma=gamma, S=3)
            with tracer.span("kernels.stencil"):
                kernels.lattice_kernel_stencil(gamma, ell, 2)
            with tracer.span("lattice.build_kernel"):
                kern = lat.build_kernel(spec)
            grids[name] = (spec, kern, lat.LatticeField.constant(spec, kern.radius, rho_ref))
        base = dict(beta=1.0, lambda_beta=sol.lambda_beta, t=1.0, rho_ref=rho_ref, zeta=0.05,
                    box=box)
        return {"rho_ref": rho_ref, "box": box, "grids": grids,
                "cfg": lat.FunctionalConfig(**base),
                "cfg_one_body": lat.FunctionalConfig(**base, one_body=True),
                "kappa": 0.5 * sol.kappa_star}

    def _strip(self, ctx, name: str, rng):
        """Boundary pair differing on a strip of the collar: the criterion-6
        far region at a seeded share (1/2 to 1) of its amplitude.  One share
        per strip; independent per-cell values triple the fixed-point
        iterations and their spread over seeds."""
        spec, kern, base = ctx["grids"][name]
        w = kern.radius
        far = np.zeros(base.values.shape[:-1], dtype=bool)
        far[: max(1, w - 1), :] = True
        rho_ref = ctx["rho_ref"]
        top = np.minimum(rho_ref * 1.25, rho_ref + 0.9 * ctx["box"])
        vals = base.values.copy()
        vals[far] = rho_ref + rng.uniform(0.5, 1.0) * (top - rho_ref)
        return base, lat.LatticeField(spec, vals, w), far

    def _interior(self, ctx, name: str, rng):
        spec, kern, base = ctx["grids"][name]
        zeta = ctx["cfg"].zeta
        rho = ctx["rho_ref"] + rng.uniform(-4 * zeta, 4 * zeta, size=spec.shape + (spec.S,))
        return base.with_interior(rho), kern

    def run(self, ctx, seed: int, seconds: int, rec: Recorder):
        cfg, kappa = ctx["cfg"], ctx["kappa"]
        rng = np.random.default_rng(derive(seed, 300))
        _, boundary, _ = self._strip(ctx, "wide", rng)
        with rec.op("wide") as op:
            res = lat.minimize(boundary, ctx["grids"]["wide"][1], cfg)
        if not op.error:
            op.output = {"iterations": res.iterations, "residual": res.residual,
                         "field": res.field.interior.ravel()}
            if not res.residual < 1e-12:
                op.failures.append(f"minimize residual {res.residual:.3e} above tol")

        # ROADMAP aim 3: dense_interior_matrix raises IndexError once the box
        # is wider than the stencil; kept in every run so the fix shows.  It
        # comes before the rounds, whose count varies with --seconds, so the
        # ops of a shorter run are a prefix of the reference run's.
        field, kern16 = self._interior(ctx, "defect", np.random.default_rng(derive(seed, 500)))
        with rec.op("defect") as op:
            ev, ok = lat.hessian_coercivity(field, kern16, ctx["cfg_one_body"], kappa)
        if op.error and op.error.startswith("IndexError"):
            op.known, op.error = op.error, None
        elif not op.error:
            op.output = {"eigenvalue": ev}
            if not ok:
                op.failures.append(f"smallest eigenvalue {ev:.4f} below {kappa:.4f}")

        for k in range(self.n_ops(seconds)):
            rng = np.random.default_rng(derive(seed, 400 + k))
            strips = [(name, self._strip(ctx, name, rng)) for name in self.NARROW]
            field, kern8 = self._interior(ctx, "coercivity", rng)
            with rec.op("round") as op:
                fits = [lat.decay_experiment(a, b, far, ctx["grids"][name][1], cfg)
                        for name, (a, b, far) in strips]
                ev, ok = lat.hessian_coercivity(field, kern8, ctx["cfg_one_body"], kappa)
            if op.error:
                continue
            op.output = {"omega_hat": [f.omega_hat for f in fits],
                         "r_squared": [f.r_squared for f in fits],
                         "max_difference": [f.max_difference for f in fits],
                         "eigenvalue": ev}
            if not all(f.omega_hat > 0 for f in fits):
                op.failures.append("boundary response does not decay")
            if not ok:
                op.failures.append(f"smallest eigenvalue {ev:.4f} below {kappa:.4f}")

    def probe(self, ctx, rec: Recorder, seed: int) -> dict:
        out = {}
        for spec, kern, base in ctx["grids"].values():
            vals = base.values
            n_calls = 3 if kern.radius > 16 else 20
            ms = median_call_us(lambda: kern.apply(vals), n_calls) / 1e3
            out[f"lattice.apply_ms.g{spec.shape[0]}_r{kern.radius}"] = ms
        return out


WORKLOADS = {w.name: w for w in (Sample(), Couple(), Screen(), Lattice())}
