"""Spans around the calls into each pcftube module, recorded from outside it.

``instrument(tracer)`` rebinds the public functions of every pcftube module,
and the methods of ``ResistanceMetric`` and ``KernelEvaluator``, to wrappers
that record a span per call.  Names imported by ``from .core import ...`` are
rebound too, so ``cli`` and ``suites`` calls to ``build_level`` are seen.  On
exit every original is restored.  Spans stay in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

MODULES = ("core", "spectral", "kernels", "boundary", "tube", "suites", "cli")
CLASSES = {"core": ("ResistanceMetric",), "kernels": ("KernelEvaluator",)}
# The subordination integrand: about 81k calls per kernel op, so a span per
# call would measure the wrapper rather than the kernel.
UNWRAPPED = frozenset({"kernels.KernelEvaluator.heat_profile"})

# Layers named in the per-layer metrics; a span not listed falls to its
# module's layer ("tube", "suites", "cli") or to "<module>.other".
LAYER_OF = {
    "core.build_level": "core.build_level",
    "spectral.energy_matrix": "spectral.energy_matrix",
    "spectral.eigensystem": "spectral.eigensystem",
    "spectral.supnorm_ratio": "spectral.fits",
    "spectral.weyl_exponent": "spectral.fits",
    "spectral.eigen_growth_constants": "spectral.fits",
    "spectral.harmonic_extension": "spectral.fits",
    "kernels.KernelEvaluator.__init__": "kernels.evaluator_init",
    "kernels.KernelEvaluator.poisson_matrix": "kernels.matrix",
    "kernels.KernelEvaluator.heat_matrix": "kernels.matrix",
    "kernels.KernelEvaluator.poisson_row": "kernels.matrix",
    "kernels.semigroup_defect": "kernels.matrix",
    "kernels.KernelEvaluator.poisson_integral": "kernels.integral",
    "kernels.KernelEvaluator.kernel_mass": "kernels.integral",
    "kernels.KernelEvaluator.coefficients": "kernels.integral",
    "kernels.KernelEvaluator.poisson_via_subordination": "kernels.subordination",
    "kernels.subordination_transform": "kernels.subordination",
    "kernels.adaptive_simpson": "kernels.subordination",
    "boundary.maximal_function": "boundary.maximal",
    "boundary.maximal_measure": "boundary.maximal",
    "boundary.shifted_kernel_constant": "boundary.shifted_kernel",
    "boundary.cone_sup": "boundary.cones",
    "boundary.nontangential_error": "boundary.cones",
    "boundary.ball_mass_lower": "boundary.cones",
    "boundary.barrier": "boundary.cones",
    "boundary.cone_cover_check": "boundary.cones",
}
WHOLE_MODULE_LAYERS = ("tube", "suites", "cli")
LAYERS = (
    "core.build_level",
    "core.metric",
    "core.other",
    "spectral.energy_matrix",
    "spectral.eigensystem",
    "spectral.fits",
    "spectral.other",
    "kernels.evaluator_init",
    "kernels.matrix",
    "kernels.integral",
    "kernels.subordination",
    "kernels.other",
    "boundary.maximal",
    "boundary.shifted_kernel",
    "boundary.cones",
    "boundary.other",
    "tube",
    "suites",
    "cli",
)

# Span name -> counter it feeds, one per call.
CALL_COUNTERS = {
    "core.build_level": "core.build_level.calls",
    "spectral.eigensystem": "spectral.eigensystem.calls",
    "kernels.KernelEvaluator.__init__": "kernels.evaluator_init.calls",
    "kernels.KernelEvaluator.poisson_matrix": "kernels.matrix.calls",
    "kernels.KernelEvaluator.heat_matrix": "kernels.matrix.calls",
    "kernels.KernelEvaluator.poisson_row": "kernels.matrix.calls",
    "kernels.semigroup_defect": "kernels.matrix.calls",
    "kernels.KernelEvaluator.poisson_integral": "kernels.integral.calls",
    "kernels.KernelEvaluator.kernel_mass": "kernels.integral.calls",
    "kernels.KernelEvaluator.coefficients": "kernels.integral.calls",
    "kernels.subordination_transform": "kernels.subordination.calls",
    "boundary.maximal_function": "boundary.maximal.calls",
    "boundary.maximal_measure": "boundary.maximal.calls",
    "tube.tube_sample": "tube.tube_sample.calls",
}


def _n3_solved(tracer, args, kwargs, result):
    return "spectral.eigensystem.n3_sum", result.n_modes**3


def _new_basis(tracer, args, kwargs, result):
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    new = id(basis) not in tracer.bases
    tracer.bases[id(basis)] = basis  # held, so that its id is not reused
    return "kernels.evaluator_init.bases", int(new)


def _rows_sorted(tracer, args, kwargs, result):
    metric = args[0] if args else kwargs["metric"]
    return "boundary.maximal.rows_sorted", metric.graph.n_vertices


def _checks_run(tracer, args, kwargs, result):
    return "suites.checks", sum(c.status != "skip" for c in result.checks)


# Span name -> counter computed from the call's arguments and result.
RESULT_COUNTERS = {
    "spectral.eigensystem": _n3_solved,
    "kernels.KernelEvaluator.__init__": _new_basis,
    "boundary.maximal_function": _rows_sorted,
    "boundary.maximal_measure": _rows_sorted,
    "suites.verify_suite": _checks_run,
}

COUNTERS = (
    "core.build_level.calls",
    "core.metric.pinv_calls",
    "spectral.eigensystem.calls",
    "spectral.eigensystem.n3_sum",
    "kernels.evaluator_init.calls",
    "kernels.evaluator_init.bases",
    "kernels.matrix.calls",
    "kernels.integral.calls",
    "kernels.subordination.calls",
    "boundary.maximal.calls",
    "boundary.maximal.rows_sorted",
    "tube.tube_sample.calls",
    "suites.checks",
)


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    module = name.split(".", 1)[0]
    if name.startswith("core.ResistanceMetric."):
        return "core.metric"
    if module in WHOLE_MODULE_LAYERS:
        return module
    return f"{module}.other"


class Tracer:
    """In-memory span recorder for one thread.

    ``spans`` holds ``[name, parent, start, end]`` lists; ``parent`` is the
    index of the enclosing span, or -1 for a root.  ``bases`` holds each
    distinct ``EigenBasis`` a ``KernelEvaluator`` was built on, by id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.bases: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        call_counter = CALL_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if call_counter:
                self.counts[call_counter] += 1
            if result_counter:
                key, amount = result_counter(self, args, kwargs, result)
                self.counts[key] += amount
            return result

        return traced

    def count(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def span_cost() -> float:
    """Seconds a span adds to one call: a traced no-op minus a bare one,
    the median of 5 batches of 20,000 calls."""

    def noop():
        return None

    calls = 20000
    costs = []
    for _ in range(5):
        traced = Tracer().wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((2 * mid - start - time.perf_counter()) / calls)
    return statistics.median(costs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans, wall: float) -> dict[str, float]:
    """``<layer>.self_s`` per layer, plus ``op.uncovered_s`` = wall minus the
    root spans.  The values sum to ``wall`` by construction."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        totals[layer_of(name)] += own
    out = {f"{layer}.self_s": seconds for layer, seconds in totals.items()}
    out["op.uncovered_s"] = wall - sum(end - start for _, parent, start, end in spans if parent < 0)
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Route every pcftube call listed above through ``tracer`` while active."""
    import numpy.linalg

    patches = []  # (owner, attribute, original), restored in reverse order

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrappers = {}  # id(original) -> (original, wrapper)
    try:
        for short in MODULES:
            mod = importlib.import_module(f"pcftube.{short}")
            for attr, obj in list(vars(mod).items()):
                # export_* writers stay unwrapped: writing artifacts is billed
                # to the caller, which is the cli layer.
                if (
                    not attr.startswith(("_", "export_"))
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    name = f"{short}.{cls_name}.{attr}"
                    if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")) and name not in UNWRAPPED:
                        patch(cls, attr, tracer.wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname == "pcftube" or modname.startswith("pcftube."):
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patch(mod, attr, hit[1])
        patch(numpy.linalg, "pinv", tracer.count("core.metric.pinv_calls", numpy.linalg.pinv))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
