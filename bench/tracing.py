"""In-memory spans around calls into the library, recorded from the
benchmark's side.

A span is ``[name, start, end, parent, op, attrs]``; its id is its index in
``Tracer.spans``.  ``parent`` is the id of the enclosing span (-1 at top
level) and ``op`` the id of the benchmark op that was running (-1 during
set-up).  Library functions are wrapped by replacing the module or class
attribute for the duration of a ``with tracer.patched(TARGETS):`` block, so
the traced run executes exactly the library path the untraced run does.  A
target the library no longer has is skipped and listed in ``missing``; its
per-layer metrics then read 0.
"""

from __future__ import annotations

import contextlib
import time

from pottsgas import coupling as cpl
from pottsgas import fixtures as fx
from pottsgas import lattice as lat
from pottsgas import screening as scr
from pottsgas import simulate as sim


def _sweep_attrs(args, kwargs, result):
    return {"proposals": kwargs.get("n_moves"), "accepted": result}


# (owner, attribute, span name, attrs hook).  Names imported into a second
# module (``from .screening import k_function``) are patched in both places.
TARGETS = [
    (sim, "metropolis_sweep", "simulate.metropolis_sweep", _sweep_attrs),
    (sim, "apply_move", "simulate.apply_move", None),
    (cpl, "apply_move", "simulate.apply_move", None),
    (sim.ParticleSystem, "total_energy", "simulate.total_energy", None),
    (fx, "make_pair", "fixtures.make_pair", None),
    (cpl, "run_coupled_screening", "coupling.run_coupled_screening", None),
    (cpl, "coupled_update", "coupling.coupled_update", None),
    (cpl, "choose_branch", "coupling.choose_branch", None),
    (cpl, "reinit_identical", "coupling.reinit_identical", None),
    (cpl, "crn_sweep", "coupling.crn_sweep", None),
    (scr, "run_screening", "screening.run_screening", None),
    (scr, "verify_stopping", "screening.verify_stopping", None),
    (scr.CubePartition, "select_next", "screening.select_next", None),
    (scr, "classify_and_peel", "screening.classify_and_peel", None),
    (cpl, "classify_and_peel", "screening.classify_and_peel", None),
    (scr, "k_function", "screening.k_function", None),
    (cpl, "k_function", "screening.k_function", None),
    (lat, "minimize", "lattice.minimize", None),
    (lat, "decay_experiment", "lattice.decay_experiment", None),
    (lat, "hessian_coercivity", "lattice.hessian_coercivity", None),
    (lat.CoarseKernel, "apply", "lattice.apply", None),
]


class NullTracer:
    """Tracing off: op ids are ignored and spans cost one no-op context."""

    op_id = -1

    def span(self, name):
        return contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.rec, exc_type)
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.op_id = -1
        self.missing: list[str] = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1], self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec, exc_type):
        rec[2] = time.perf_counter()
        self._stack.pop()
        if exc_type is not None:
            rec[5] = {"error": exc_type.__name__}

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            exc_type = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exc_type = type(exc)
                raise
            finally:
                tracer._close(rec, exc_type)
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        saved = []
        try:
            for owner, attr, name, hook in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list, first: int = 0) -> dict:
    """Seconds per layer (first component of the span name) spent in spans
    ``first..`` minus the time covered by their child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out: dict[str, float] = {}
    for sid in range(first, len(spans)):
        name, start, end = spans[sid][:3]
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[sid]
    return out
