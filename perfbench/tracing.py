"""In-memory span tracer that wraps osscheck functions from the outside.

The tracer never edits the library.  It replaces module attributes with
timing wrappers and restores them afterwards.  Because ``analysis`` and
``cli`` import names with ``from .curvature import ...``, the caller's
binding must be replaced too: :meth:`Tracer.patch` rebinds every attribute
of every loaded ``osscheck`` module that refers to the original function.

Spans stay in memory while the run lasts.  Each span records its name, the
dimension of the tensor the harness was working on, start, end, parent span
and one optional value taken from the call (a sample count, a dtype flag or
a file size).  Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

NAME, DIM, START, END, PARENT, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.dim = 0          # tensor dimension of the operation in progress
        self.active = False
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, value=None):
        """Timing wrapper around ``fn``.

        ``name`` is a span name or a callable of the call's arguments that
        returns one (``None`` skips the span).  ``value(args, result)``
        computes the span's value.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            span = [span_name, tracer.dim, time.perf_counter(), 0.0,
                    tracer.stack[-1] if tracer.stack else -1, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if value is not None:
                span[VALUE] = value(args, result)
            return result

        return wrapper

    def _gc_callback(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def reset_gc(self):
        self.gc_pause_s = 0.0
        self.gc_collections = 0

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, value=None):
        """Replace ``owner.attr`` and every osscheck binding of the same
        function object with one traced wrapper."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, value)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("osscheck"):
                continue
            for key, val in vars(mod).items():
                if val is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            self._restore.append((obj, key, original))
            setattr(obj, key, wrapper)

    def install(self):
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- derived quantities ------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def aggregate(self, first=0):
        """{(name, dim): [calls, total_s, self_s, [values]]} over spans
        from index ``first`` on."""
        selfs = self.self_times()
        agg = defaultdict(lambda: [0, 0.0, 0.0, []])
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            a = agg[(s[NAME], s[DIM])]
            a[0] += 1
            a[1] += s[END] - s[START]
            a[2] += selfs[i]
            if s[VALUE] is not None:
                a[3].append(s[VALUE])
        return agg

    def write(self, path):
        """Write the spans as JSON lines: name, dim, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "dim": s[DIM],
                                     "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "value": s[VALUE]},
                                    default=str))
                fh.write("\n")


def install_osscheck_probes(tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    from osscheck import analysis, cli, curvature, linalg, report, tensorio

    def rational_only(label):
        return lambda args: label if args[0].mode == "rational" else None

    def samples_of(args, result):
        return result.samples

    def file_size(index):
        return lambda args, result: os.path.getsize(args[index])

    p = tracer.patch
    p(linalg, "sample_stream", "linalg.sample_stream")
    p(linalg, "random_unit_vector", "linalg.random_unit_vector")
    p(linalg, "random_int_vector", "linalg.random_int_vector")
    p(linalg, "eigh", "linalg.eigh")
    p(linalg, "clear_denominators", "linalg.clear_denominators")
    p(np.linalg, "eigvalsh", "linalg.eigvalsh")
    p(np, "poly", "linalg.charpoly")
    p(curvature, "make_clifford", "curvature.make_clifford")
    p(curvature.CurvatureTensor, "to_float", rational_only("curvature.to_float"))
    p(curvature, "jacobi_matrix",
      lambda args: ("curvature.jacobi_matrix.exact" if args[0].mode == "rational"
                    else "curvature.jacobi_matrix.float"))
    p(curvature, "_jacobi_numerators", "curvature.jacobi_numerators",
      lambda args, result: result[0].dtype == np.int64)
    p(curvature, "reduced_jacobi", "curvature.reduced_jacobi")
    p(curvature, "validate_symmetries", "curvature.validate_symmetries")
    for fn_name, label in CHECKERS.items():
        p(analysis, fn_name, f"analysis.{label}", samples_of)
    p(report, "make_report", "report.make_report")
    p(tensorio, "load_tensor", "tensorio.load_tensor", file_size(0))
    p(tensorio, "dump_tensor", "tensorio.dump_tensor", file_size(1))
    p(cli, "main", "cli.main")


# checker function -> the property name its reports carry
CHECKERS = {
    "check_osserman": "osserman",
    "check_jacobi_dual": "jacobi-dual",
    "check_jacobi_orthogonal": "jacobi-orthogonal",
    "check_polarization": "polarization",
    "check_einstein": "einstein",
    "check_ricci_sum": "ricci-sum",
    "classify_k_root": "k-root",
    "check_two_root_decomposition": "two-root-decomposition",
    "check_eigen_bianchi_identity": "eigen-bianchi",
}

PER_DIM = (4, 8, 16)


def per_layer_metrics(tracer, pass_first, traced_passes, overhead_ratio):
    """Derive every per-layer metric, ``{name: (value, unit)}``, from the
    recorded spans.

    Per-call figures pool all spans (set-up and passes); per-pass totals
    (gc, computed kernel counts) use only the spans of the traced passes,
    which start at index ``pass_first``.  A layer the workload never calls
    reads 0.
    """
    agg = tracer.aggregate()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    def pooled(name, dims=None):
        calls = total = self_s = 0
        values = []
        for (span_name, dim), (c, t, s, v) in agg.items():
            if span_name == name and (dims is None or dim in dims):
                calls += c
                total += t
                self_s += s
                values.extend(v)
        return calls, total, self_s, values

    def per_call(name, label, scale, unit, dims=None, use_self=False):
        c, t, s, _ = pooled(name, dims)
        put(label, ((s if use_self else t) / c * scale) if c else 0.0, unit)

    per_call("linalg.sample_stream", "linalg.sample_stream.us_per_call", 1e6, "us")
    for n in PER_DIM:
        sfx = f".n{n}"
        for name in ("linalg.random_unit_vector", "linalg.random_int_vector",
                     "linalg.eigvalsh", "linalg.eigh", "linalg.charpoly",
                     "curvature.jacobi_matrix.float",
                     "curvature.jacobi_numerators",
                     "curvature.jacobi_matrix.exact"):
            per_call(name, f"{name}.us_per_call{sfx}", 1e6, "us", (n,))
        per_call("curvature.reduced_jacobi",
                 f"curvature.reduced_jacobi.self_us_per_call{sfx}", 1e6, "us",
                 (n,), use_self=True)
        for label in CHECKERS.values():
            _, t, _, samples = pooled(f"analysis.{label}", (n,))
            total = sum(samples)
            put(f"analysis.{label}.us_per_sample{sfx}",
                t / total * 1e6 if total else 0.0, "us")
    for label in CHECKERS.values():
        _, t, s, _ = pooled(f"analysis.{label}")
        put(f"analysis.{label}.self_share", s / t if t else 0.0, "ratio")

    _, _, _, flags = pooled("curvature.jacobi_numerators")
    put("curvature.jacobi_numerators.int64_share",
        sum(flags) / len(flags) if flags else 0.0, "ratio")

    per_call("curvature.make_clifford", "curvature.make_clifford.ms_per_call", 1e3, "ms")
    per_call("curvature.to_float", "curvature.to_float.ms_per_call", 1e3, "ms")
    per_call("linalg.clear_denominators", "linalg.clear_denominators.ms_per_call",
             1e3, "ms")
    per_call("curvature.validate_symmetries",
             "curvature.validate_symmetries.ms_per_call", 1e3, "ms")
    for name in ("tensorio.load_tensor", "tensorio.dump_tensor"):
        c, t, _, sizes = pooled(name)
        put(f"{name}.ms_per_call", t / c * 1e3 if c else 0.0, "ms")
        put(f"{name}.mb_per_s", sum(sizes) / t / 1e6 if t else 0.0, "MB/s")
    per_call("report.make_report", "report.make_report.us_per_call", 1e6, "us")
    per_call("cli.main", "cli.main.self_ms_per_call", 1e3, "ms", use_self=True)

    # computed, not measured: the float Jacobi contraction reads the n^4
    # float64 components once and does one multiply-add per component
    flops = nbytes = 0
    for (span_name, dim), (c, _, _, _) in tracer.aggregate(pass_first).items():
        if span_name == "curvature.jacobi_matrix.float":
            flops += 2 * dim**4 * c
            nbytes += 8 * dim**4 * c
    put("curvature.jacobi_matrix.float.flops", flops / traced_passes, "computed_flop")
    put("curvature.jacobi_matrix.float.bytes", nbytes / traced_passes, "computed_byte")

    put("python.gc.pause_s", tracer.gc_pause_s / traced_passes, "s")
    put("python.gc.collections", tracer.gc_collections / traced_passes, "count")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return metrics
