"""Timing wrappers installed around the library's public functions.

The traced run replaces each function listed in ``SPANS`` by a wrapper
that records a span (name, start, end, parent span, job id) and, where
a hook is given, exact counts read from the call's arguments or result.
A hook gets the counter, the name of the enclosing span, the positional
arguments and the result.
A function is replaced in every ``ergopress`` module namespace that
binds it, so calls through ``from .x import f`` copies are caught too;
methods are patched on their class.  ``uninstall`` puts the originals
back, so untraced passes run the library untouched.

Self time of a span is its duration minus the time covered by its
child spans.  Spans stay in memory until the run ends; ``problems``
checks that they nest.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

MODULES = ("shifts", "coverpressure", "transfer", "multifractal",
           "compactify", "cli")


def _critical_alpha(counts, parent, args, est):
    steps = len(est.diagnostics.get("trace", ()))
    n_lo, n_hi = est.n_range
    window = (n_hi - n_lo + 2) // 2  # size of the top half the slope uses
    counts["coverpressure.bisection_steps"] += steps
    counts["coverpressure.weight_evals"] += steps * window
    counts["coverpressure.weak"] += est.diagnostics.get(
        "weak_classifications", 0)


def _lambda(counts, parent, args, result):
    counts["coverpressure.lambda_evals"] += 1


def _matrix(counts, parent, args, result):
    counts["transfer.matrices_built"] += 1
    dim = args[0].dimension
    if dim > counts["transfer.matrix_dim_max"]:
        counts["transfer.matrix_dim_max"] = dim


def _power(counts, parent, args, result):
    counts["transfer.power_iterations"] += 1


def _sample(counts, parent, args, result):
    counts["transfer.samples_drawn"] += len(result[0])


def _word_array(counts, parent, args, words):
    counts["shifts.words_enumerated"] += len(words)
    if parent == "transfer.inverse_vp":
        counts["transfer.inverse_vp_enumerated"] += len(words)


def _potential(counts, parent, args, result):
    counts["shifts.potentials_built"] += 1


def _subset(counts, parent, args, result):
    spec = args[0]
    if spec.kind == spec.CYLINDERS:
        counts["shifts.cylinder_words"] += len(spec.words)
        if parent == "transfer.inverse_vp":
            counts["transfer.inverse_vp_kept"] += len(spec.words)


def _t_curve(counts, parent, args, curve):
    counts["multifractal.q_points"] += len(curve.q_grid)


def _circle(counts, parent, args, result):
    counts["compactify.circle_calls"] += 1


def _emit(counts, parent, args, paths):
    counts["cli.bytes_written"] += sum(p.stat().st_size for p in paths)


# (defining module, attribute path, span name, count hook)
SPANS = (
    ("coverpressure", "critical_alpha", "coverpressure.critical_alpha",
     _critical_alpha),
    ("coverpressure", "capacity_pressures", "coverpressure.capacity", None),
    ("coverpressure", "pressure_refined", "coverpressure.refined", None),
    ("coverpressure", "log_lambda_n", "coverpressure.log_lambda", None),
    ("coverpressure", "_StringCalculus.log_lambda", "coverpressure.log_lambda",
     _lambda),
    ("transfer", "TransferMatrix.__init__", "transfer.matrix", _matrix),
    ("transfer", "power_iteration", "transfer.power_iteration", _power),
    ("transfer", "equilibrium_markov", "transfer.equilibrium", None),
    ("transfer", "MarkovMeasure.__init__", "transfer.measure", None),
    ("transfer", "_stationary_vector", "transfer.measure", None),
    ("transfer", "MarkovMeasure.integrate", "transfer.integrate", None),
    ("transfer", "vp_residual", "transfer.vp_residual", None),
    ("transfer", "MarkovMeasure.sample_words", "transfer.sample", _sample),
    ("transfer", "inverse_vp_probe", "transfer.inverse_vp", None),
    ("shifts", "admissible_word_array", "shifts.word_array", _word_array),
    ("shifts", "Potential.__init__", "shifts.potential", _potential),
    ("shifts", "SubsetSpec.__init__", "shifts.subset", _subset),
    ("multifractal", "t_curve", "multifractal.t_curve", _t_curve),
    ("multifractal", "correlation_entropy", "multifractal.correlation", None),
    ("multifractal", "legendre_check", "multifractal.legendre", None),
    ("multifractal", "local_entropy_check", "multifractal.local_entropy",
     None),
    ("compactify", "circle_cover_pressure", "compactify.circle_cover",
     _circle),
    ("compactify", "gap_example", "compactify.gap_example", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit_tables", "cli.emit", _emit),
)

# Lazy generators: a span would close before any work is done, so these
# are only counted.  (defining module, attribute, counter)
COUNTED = (
    ("shifts", "iter_admissible_tuples", "shifts.tuple_iter_calls"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPANS))

_ROUNDING_S = 1e-9  # slack for sums of clock differences


class Tracer:
    """Span recorder plus the wrappers it installs into the library."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._originals: list[tuple] = []

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            record = [name, perf_counter(), 0.0,
                      stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                parent = spans[stack[-1]][0] if stack else None
                hook(tracer.counts, parent, args, result)
            return result

        return wrapper

    def _counter(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed function wherever the library binds it."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"ergopress.{m}"] for m in MODULES]
        modules.append(sys.modules["ergopress"])
        plan = [(mod, path, self._span, (name, hook))
                for mod, path, name, hook in SPANS]
        plan += [(mod, attr, self._counter, (counter,))
                 for mod, attr, counter in COUNTED]
        for mod_name, path, make, extra in plan:
            owner = sys.modules[f"ergopress.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = make(original, *extra)
            if cls_path:  # a method: patch the class once
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus time in child spans."""
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def problems(self, pass_s: float) -> list[str]:
        """Ways in which the spans fail to nest inside a pass of ``pass_s``.

        Every span must end after it starts, lie inside its parent and
        start after its previous sibling ended; so no self time is
        negative and the time in no span, ``pass_s`` minus the top-level
        spans, lies between 0 and ``pass_s``.
        """
        found = []
        child_s = [0.0] * len(self.spans)
        sibling_end: dict[int, float] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end < start:
                found.append(f"{name} #{i} ends before it starts")
            if parent >= 0:
                p_name, p_start, p_end = self.spans[parent][:3]
                if start < p_start or end > p_end:
                    found.append(f"{name} #{i} lies outside {p_name}")
                child_s[parent] += end - start
            if start < sibling_end.get(parent, start):
                found.append(f"{name} #{i} overlaps its previous sibling")
            sibling_end[parent] = end
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end - start < child_s[i] - _ROUNDING_S:
                found.append(f"{name} #{i} has negative self time")
        unattributed = pass_s - self.top_level_time()
        if not -_ROUNDING_S <= unattributed <= pass_s:
            found.append(f"time in no span {unattributed:.6g} s is outside "
                         f"[0, {pass_s:.6g}]")
        return found
