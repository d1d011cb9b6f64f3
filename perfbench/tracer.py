"""Spans and work counters around kamrev's public functions, from outside.

`Tracer.installed()` replaces every binding of each traced function in the
loaded `kamrev` modules (a `from .fourier import fs_matmul` copies the name
into the importing module, so each copy is swapped) and patches traced
methods on their class.  Every call records a span: boundary, parent span,
start and end.  After a pass, `layer_metrics()` turns the spans and counters
into the per-layer table, where a boundary's self time is its spans'
duration minus the time their child spans cover.
"""
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
from kamrev.diophantine import enumerate_modes, normal_shifts

# (module, qualified name) -> boundary; "Class.method" is patched on the class.
SPANNED = {
    ("fourier", "fs_mul"): "fourier.product",
    ("fourier", "fs_matmul"): "fourier.product",
    ("fourier", "AngleShift.apply"): "fourier.shift",
    ("fourier", "FourierSeries.eval"): "fourier.eval",
    ("ftaylor", "ft_mul"): "ftaylor.product",
    ("ftaylor", "ft_matmul"): "ftaylor.product",
    ("ftaylor", "ft_series_matmul"): "ftaylor.product",
    ("ftaylor", "WSubstitution.apply"): "ftaylor.subst",
    ("ftaylor", "ft_neumann_solve"): "ftaylor.neumann",
    ("cohomology", "solve_scalar"): "cohomology.scalar",
    ("cohomology", "solve_normal"): "cohomology.normal",
    ("cohomology", "solve_right"): "cohomology.right",
    ("cohomology", "solve_commutator"): "cohomology.commutator",
    ("diophantine", "is_diophantine_pair"): "diophantine.pair",
    ("diophantine", "scan_divisors"): "diophantine.scan",
    ("diophantine", "complement_measure_estimate"): "diophantine.measure",
    ("revsystem", "ReversibleFamily.instantiate"): "revsystem.instantiate",
    ("revsystem", "verify_torus"): "revsystem.verify",
    ("revsystem", "integrate"): "revsystem.integrate",
    ("normalizer", "normalize"): "normalizer.normalize",
    ("normalizer", "conjugate_field"): "normalizer.conjugate",
    ("ruessmann", "persistence_pipeline"): "ruessmann.pipeline",
    ("ruessmann", "diophantine_fraction"): "ruessmann.fraction",
    ("cli", "main"): "cli.main",
}
# Called too often for a span each; only counted.
COUNTED = {
    ("fourier", "FourierSeries.__init__"): "fourier.series_built",
    ("revsystem", "InstantiatedField.eval"): "revsystem.rhs_evals",
}

# The per-layer table: name, unit, which direction is better.
PER_LAYER = [
    ("fourier.product.calls", "count", "lower"),
    ("fourier.product.self_s", "s", "lower"),
    ("fourier.product.mode_pairs", "count", "lower"),
    ("fourier.product.out_modes", "count", "lower"),
    ("fourier.product.kept_ratio", "ratio", "higher"),
    ("fourier.series_built", "count", "lower"),
    ("fourier.shift.calls", "count", "lower"),
    ("fourier.shift.self_s", "s", "lower"),
    ("fourier.eval.calls", "count", "lower"),
    ("fourier.eval.self_s", "s", "lower"),
    ("ftaylor.product.calls", "count", "lower"),
    ("ftaylor.product.self_s", "s", "lower"),
    ("ftaylor.subst.calls", "count", "lower"),
    ("ftaylor.subst.self_s", "s", "lower"),
    ("ftaylor.neumann.calls", "count", "lower"),
    ("ftaylor.neumann.self_s", "s", "lower"),
    ("ftaylor.neumann.iters", "count", "lower"),
    ("cohomology.scalar.calls", "count", "lower"),
    ("cohomology.scalar.self_s", "s", "lower"),
    ("cohomology.normal.calls", "count", "lower"),
    ("cohomology.normal.self_s", "s", "lower"),
    ("cohomology.right.calls", "count", "lower"),
    ("cohomology.right.self_s", "s", "lower"),
    ("cohomology.commutator.calls", "count", "lower"),
    ("cohomology.commutator.self_s", "s", "lower"),
    ("cohomology.modes_solved", "count", "lower"),
    ("diophantine.pair.calls", "count", "lower"),
    ("diophantine.scan.self_s", "s", "lower"),
    ("diophantine.scan.divisors", "count", "lower"),
    ("diophantine.measure.self_s", "s", "lower"),
    ("diophantine.measure.divisors", "count", "lower"),
    ("diophantine.measure.scaling_eff", "ratio", "higher"),
    ("revsystem.instantiate.calls", "count", "lower"),
    ("revsystem.instantiate.self_s", "s", "lower"),
    ("revsystem.verify.calls", "count", "lower"),
    ("revsystem.verify.self_s", "s", "lower"),
    ("revsystem.integrate.self_s", "s", "lower"),
    ("revsystem.rhs_evals", "count", "lower"),
    ("normalizer.normalize.calls", "count", "lower"),
    ("normalizer.normalize.self_s", "s", "lower"),
    ("normalizer.sweeps", "count", "lower"),
    ("normalizer.conjugate.calls", "count", "lower"),
    ("normalizer.conjugate.self_s", "s", "lower"),
    ("ruessmann.grid_points", "count", "higher"),
    ("ruessmann.normalize_per_point", "ratio", "lower"),
    ("ruessmann.accepted_ratio", "ratio", "higher"),
    ("ruessmann.pipeline.self_s", "s", "lower"),
    ("ruessmann.fraction.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.wall_s", "s", "lower"),
    ("cli.main.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
# Metrics that count work; they repeat exactly on the same inputs.
WORK_COUNTS = {name for name, unit, _ in PER_LAYER if unit == "count"} | {
    "ruessmann.normalize_per_point"}


def _resolve(module, qualname):
    owner = sys.modules[f"kamrev.{module}"]
    *cls, attr = qualname.split(".")
    if cls:
        owner = getattr(owner, cls[0])
    return owner, attr


class _ThreadLog:
    """The spans and counts of one thread, so threads never share a list."""

    def __init__(self):
        self.spans = []          # [boundary, parent index, start, end]
        self.stack = []
        self.open = Counter()    # boundaries with a span in progress
        self.counts = Counter()


class Tracer:
    """Records spans and counters for the calls made while installed.

    Each thread logs its own spans; a span opened in a worker thread has no
    parent, so the caller's self time includes its wait for the workers."""

    def __init__(self):
        self._logs = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sizes = {}

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    @property
    def counts(self):
        total = Counter()
        for log in self._logs:
            total.update(log.counts)
        return total

    # -- work counters run after a span closes, so its time excludes them

    def _divisors(self, n, kmax, n_beta):
        """Divisors one frequency sample meets: modes times normal shifts."""
        key = (n, kmax, n_beta)
        if key not in self._sizes:
            self._sizes[key] = len(enumerate_modes(n, kmax)) * len(normal_shifts(n_beta))
        return self._sizes[key]

    def _count(self, log, boundary, out, args):
        c = log.counts
        if boundary == "fourier.product":
            a, b = args[0], args[1]
            c["fourier.product.mode_pairs"] += len(a.coeffs) * len(b.coeffs)
            c["fourier.product.out_modes"] += len(out.coeffs)
            if log.open["ftaylor.neumann"]:
                c["ftaylor.neumann.iters"] += 1
        elif boundary.startswith("cohomology."):
            c["cohomology.modes_solved"] += len(args[0].coeffs)
        elif boundary == "diophantine.scan":
            omega, beta, _, kmax = args[:4]
            c["diophantine.scan.divisors"] += self._divisors(len(omega), kmax, len(beta))
        elif boundary == "diophantine.measure":
            box_omega, box_beta, _, _, samples, kmax = args[:6]
            c["diophantine.measure.divisors"] += samples * self._divisors(
                len(box_omega), kmax, len(box_beta))
        elif boundary == "normalizer.normalize":
            c["normalizer.sweeps"] += len(out.residual_history) - 1
        elif boundary == "ruessmann.pipeline":
            c["ruessmann.grid_points"] += len(out.points)
            c["ruessmann.accepted"] += sum(1 for pt in out.points if pt.accepted)

    def _spanned(self, boundary, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log = self._log()
            rec = [boundary, log.stack[-1] if log.stack else -1, clock(), 0.0]
            log.stack.append(len(log.spans))
            log.spans.append(rec)
            log.open[boundary] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                log.stack.pop()
                log.open[boundary] -= 1
                log.counts[f"{boundary}.calls"] += 1  # raising calls too
            self._count(log, boundary, out, args)
            return out

        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self._log().counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Swap every binding of the traced functions, and restore them."""
        modules = [m for k, m in sys.modules.items() if k == "kamrev" or k.startswith("kamrev.")]
        undo = []
        try:
            for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for (module, qualname), name in table.items():
                    owner, attr = _resolve(module, qualname)
                    orig = getattr(owner, attr)
                    if "." in qualname:  # a method: patch its class
                        targets = [(owner, attr)]
                    else:  # a function: every module that bound it
                        targets = [(mod, key) for mod in modules
                                   for key, val in vars(mod).items() if val is orig]
                    new = wrap(name, orig)
                    for obj, key in targets:
                        undo.append((obj, key, orig))
                        setattr(obj, key, new)
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)

    def self_times(self):
        """Self time per boundary: span durations minus their children's."""
        out = Counter()
        for log in self._logs:
            if not log.spans:
                continue
            parent = np.array([s[1] for s in log.spans])
            dur = np.array([s[3] - s[2] for s in log.spans])
            child = np.zeros(len(dur))
            has = parent >= 0
            np.add.at(child, parent[has], dur[has])
            for span, t in zip(log.spans, dur - child):
                out[span[0]] += float(t)
        return out

    def layer_metrics(self):
        """Every per-layer metric of one pass, except the run-level ones
        (`cli.main.wall_s`, `cli.main.cpu_s`, `diophantine.measure.scaling_eff`,
        `trace.overhead_s`), which the runner fills in."""
        c = self.counts
        out = {name: 0 if unit == "count" else 0.0 for name, unit, _ in PER_LAYER}
        for name in out:
            if name in c:
                out[name] = c[name]
        for boundary, t in self.self_times().items():
            if f"{boundary}.self_s" in out:
                out[f"{boundary}.self_s"] = t
        if c["fourier.product.mode_pairs"]:
            out["fourier.product.kept_ratio"] = (
                c["fourier.product.out_modes"] / c["fourier.product.mode_pairs"])
        if c["ruessmann.grid_points"]:
            out["ruessmann.normalize_per_point"] = (
                c["normalizer.normalize.calls"] / c["ruessmann.grid_points"])
            out["ruessmann.accepted_ratio"] = (
                c["ruessmann.accepted"] / c["ruessmann.grid_points"])
        return out
