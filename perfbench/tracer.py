"""Spans and counters for the traced run.

Tracing is installed from the benchmark's side: the public entry points of the
grushinlab modules named in ``SPANS`` and three ``numpy.linalg`` kernels are
replaced, in every module that holds them, by wrappers that record a span
(name, start, end, parent), and put back afterwards.  Kernel calls are
recorded only inside a library span, so the benchmark's own reference
computations are left out.  Spans stay in memory; self times are derived from
them at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Library entry points recorded as spans named "<module>.<function>".
SPANS = {
    "core": ("invert_system",),
    "linops": ("contour_integrate",),
    "pseudoinverse": ("canonical_borders",),
    "traces": ("count_direct", "count_effective", "weighted_trace", "loop_trace_identity",
               "borders_from_base_point", "invariant_subspace_borders"),
    "bvp1d": ("dn_trace_identity", "n2d_map", "bvp_grushin"),
    "pseudospectra": ("pseudospectrum_grid", "resolvent_bound", "projector_grushin",
                      "estimate_check"),
}

#: Per-layer metrics: (name, unit, better).  Values are per round.
LAYER_METRICS = [
    ("core.invert_system.calls", "count", "lower"),
    ("core.invert_system.self_s", "s", "lower"),
    ("linops.contour_integrate.calls", "count", "lower"),
    ("linops.contour_integrate.s", "s", "lower"),
    ("linops.quadrature_nodes", "count", "lower"),
    ("linops.node_efficiency", "ratio", "higher"),
    ("traces.family_value_evals", "count", "lower"),
    ("traces.family_derivative_evals", "count", "lower"),
    ("traces.loop_system_evals", "count", "lower"),
    ("traces.count_direct.s", "s", "lower"),
    ("traces.count_direct.self_s", "s", "lower"),
    ("traces.count_effective.s", "s", "lower"),
    ("traces.count_effective.self_s", "s", "lower"),
    ("traces.weighted_trace.s", "s", "lower"),
    ("traces.weighted_trace.self_s", "s", "lower"),
    ("traces.loop_trace_identity.s", "s", "lower"),
    ("traces.loop_trace_identity.self_s", "s", "lower"),
    ("pseudoinverse.canonical_borders.s", "s", "lower"),
    ("bvp1d.dn_trace_identity.s", "s", "lower"),
    ("bvp1d.n2d_map.calls", "count", "lower"),
    ("bvp1d.n2d_map.s", "s", "lower"),
    ("bvp1d.bvp_grushin.s", "s", "lower"),
    ("bvp1d.potential_evals", "count", "lower"),
    ("pseudospectra.resolvent_bound.calls", "count", "lower"),
    ("pseudospectra.resolvent_bound.s", "s", "lower"),
    ("pseudospectra.pseudospectrum_grid.s", "s", "lower"),
    ("pseudospectra.estimate_check.s", "s", "lower"),
    ("lapack.svd.calls", "count", "lower"),
    ("lapack.svd.s", "s", "lower"),
    ("lapack.solve.calls", "count", "lower"),
    ("lapack.solve.s", "s", "lower"),
    ("lapack.inv.calls", "count", "lower"),
    ("lapack.inv.s", "s", "lower"),
    ("lapack.gflop_computed", "GFLOP", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# Real floating-point operations of each kernel, from the operand shapes
# (complex arithmetic counts 4 real operations per multiply-add pair).


def _scale(a) -> float:
    lead = np.shape(a)[:-2]
    return float(np.prod(lead)) * (4.0 if np.iscomplexobj(a) else 1.0)


def _svd_flops(a, full_matrices=True, compute_uv=True, *_, **__) -> float:
    rows, cols = np.shape(a)[-2:]
    big, small = max(rows, cols), min(rows, cols)
    if compute_uv:
        real = 4.0 * big * big * small + 8.0 * big * small * small + 9.0 * small**3
    else:
        real = 4.0 * big * small * small - 4.0 * small**3 / 3.0
    return _scale(a) * real


def _solve_flops(a, b, *_, **__) -> float:
    n = np.shape(a)[-1]
    rhs = 1 if np.ndim(b) == np.ndim(a) - 1 else np.shape(b)[-1]
    return _scale(a) * (2.0 * n**3 / 3.0 + 2.0 * n * n * rhs)


def _inv_flops(a, *_, **__) -> float:
    return _scale(a) * 2.0 * np.shape(a)[-1] ** 3


KERNELS = {"svd": _svd_flops, "solve": _solve_flops, "inv": _inv_flops}


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.flops = 0.0
        self.last_rule = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.stack.pop()

        return traced

    def kernel(self, name: str, fn):
        traced = self.span("lapack." + name, fn)
        flops = KERNELS[name]

        def kernel(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            self.flops += flops(*args, **kwargs)
            return traced(*args, **kwargs)

        return kernel

    def counted(self, name: str, fn):
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def quadrature(self, fn):
        """Count the nodes of every rule ``Contour.quadrature`` generates."""

        def quadrature(contour, n):
            z, w = fn(contour, n)
            self.counts["linops.quadrature_nodes"] += len(z)
            self.last_rule = len(z)
            return z, w

        return quadrature

    def accepting(self, fn):
        """Count the nodes of the rule a returning ``contour_integrate`` accepted."""

        def contour_integrate(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts["linops.accepted_nodes"] += self.last_rule
            return out

        return contour_integrate

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        if not self.name:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=name.size)
        own = duration - children
        calls = np.bincount(name, minlength=len(self.names))
        inclusive = np.bincount(name, weights=duration, minlength=len(self.names))
        exclusive = np.bincount(name, weights=own, minlength=len(self.names))
        return {
            n: (int(calls[i]), float(inclusive[i]), float(exclusive[i]))
            for i, n in enumerate(self.names)
        }

    def layer_metrics(self, rounds: int) -> dict:
        """Every metric of ``LAYER_METRICS`` but the overhead, per round."""
        totals = self.totals()
        generated = self.counts["linops.quadrature_nodes"]
        out = {}
        for metric, _, _ in LAYER_METRICS:
            stem, _, field = metric.rpartition(".")
            if metric == "trace.overhead_s":
                continue
            if metric == "linops.node_efficiency":
                out[metric] = self.counts["linops.accepted_nodes"] / generated if generated else 0.0
                continue
            if metric == "lapack.gflop_computed":
                value = self.flops * 1e-9
            elif field in ("calls", "s", "self_s"):
                calls, inclusive, exclusive = totals.get(stem, (0, 0.0, 0.0))
                value = {"calls": calls, "s": inclusive, "self_s": exclusive}[field]
            else:
                value = self.counts[metric]
            out[metric] = value / rounds
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextmanager
def installed(tracer: Tracer, lib):
    """Wrap the library's entry points and kernels for the duration of the block."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module_name, functions in SPANS.items():
            module = getattr(lib, module_name)
            for fname in functions:
                original = getattr(module, fname)
                inner = tracer.accepting(original) if fname == "contour_integrate" else original
                wrapped = tracer.span(f"{module_name}.{fname}", inner)
                for holder in lib.modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            patch(holder, attr, wrapped)
        for kernel in KERNELS:
            patch(np.linalg, kernel, tracer.kernel(kernel, getattr(np.linalg, kernel)))
        contour = lib.linops.Contour
        patch(contour, "quadrature", tracer.quadrature(contour.quadrature))
        loop = lib.traces.LoopFamily
        patch(loop, "system", tracer.counted("traces.loop_system_evals", loop.system))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
