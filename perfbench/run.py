"""osscheck benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload float-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's inputs are generated from ``--seed``.  Set-up
(input generation) is timed on its own, several times, and reported as a
median.  The timed phase is a fixed number of passes over the workload's
operations, set from ``--seconds`` by a per-workload constant so it is the
same on every commit; every operation's result goes through the oracle in
``workloads.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run that alternates untraced and traced passes and prints the per-layer
metrics, including the traced/untraced time ratio; its spans are written
to ``.perfbench_out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
operations with a wrong verdict, exit code or report, a non-finite
residual, or an uncaught exception; ``correct`` is false when an operation
that completed gave a wrong result (an exception counts in ``failed``
only).  Lines before it give the environment, every metric with its unit,
``failed_ops_ratio`` and the information-only ``report_digest``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

# one BLAS thread: a plain single-threaded baseline.  Must precede the
# first numpy import, which is why the harness modules are imported later.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

# Seconds one pass of each workload took at the commit that defined the
# benchmark (2 cores).  The pass count is --seconds / this, a constant, so
# both sides of a comparison do the same work.
NOMINAL_PASS_S = {"float-sweep": 2.0, "exact-sweep": 1.65, "cli-files": 4.4}
MIN_PASSES = 3
# Dim-16 latencies a run needs at least, so that its tail percentile has
# ten samples beyond it at p58 or higher.  One `check all` on a dim-16
# rational file takes about 2 s whatever the sample count, so cli-files
# runs longer than --seconds to collect them.
MIN_TENSOR16 = 24


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("float-sweep", "exact-sweep", "cli-files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import osscheck from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    if not (src / "osscheck" / "__init__.py").is_file():
        sys.exit(f"error: no osscheck sources under {src}")
    sys.path.insert(0, str(src))
    import osscheck

    if Path(osscheck.__file__).resolve().parent != (src / "osscheck").resolve():
        sys.exit(f"error: imported osscheck from {osscheck.__file__}, not {src}")
    return osscheck


def git_commit():
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import hashlib

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "osscheck").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
    }


def tail_percentile(values):
    """(p50, tail, tail percentile): the tail is the highest integer
    percentile (nearest rank) with at least 10 samples above it."""
    xs = sorted(values)
    n = len(xs)
    p50 = statistics.median(xs)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= 10:
            return p50, xs[rank - 1], p
    return p50, p50, 50


class Tally:
    """Operation outcomes of a run, and the per-operation digests of the
    first pass, which later passes must reproduce."""

    def __init__(self):
        self.outcomes = []
        self.first = None

    def add(self, outcomes):
        self.outcomes.extend(outcomes)

    def add_pass(self, results):
        outs = [o for _, group_outs in results for o in group_outs]
        if self.first is None:
            self.first = [o.fields for o in outs]
        else:
            for o, want in zip(outs, self.first):
                if o.reason is None and o.fields != want:
                    o.reason = "report differs from the first pass"
        self.add(outs)

    @property
    def failed(self):
        return sum(o.reason is not None for o in self.outcomes)

    @property
    def correct(self):
        return not any(o.reason and not o.raised for o in self.outcomes)


def run_untraced(workload, count, tally):
    from workloads import run_pass

    passes = count(workload)
    # the per-tensor latency is measured on dimension 16 (the largest
    # dimension in a reduced-size self-check run)
    big = max(g.n for g in workload.groups if g.timed)
    walls, tensor16, samples = [], [], 0
    for _ in range(passes):
        wall, results = run_pass(workload)
        walls.append(wall)
        tally.add_pass(results)
        for g, outs in results:
            samples += sum(o.samples for o in outs)
            if g.timed and g.n == big:
                tensor16.append(sum(o.seconds for o in outs))
    wall_s = statistics.median(walls)
    p50, tail, pct = tail_percentile(tensor16)
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(workload.setup_s), "s"),
        "samples_per_s": (samples / passes / wall_s, "1/s"),
        "tensor16_s_p50": (p50, "s"),
        "tensor16_s_tail": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": passes, "pass_walls_s": walls,
            "tensor16_samples": len(tensor16), "tensor16_tail_percentile": pct}
    return metrics, info


def run_traced(factory, name, size, count, tally):
    import tracing
    from workloads import OUT_DIR, run_pass

    tracer = tracing.Tracer()
    tracing.install_osscheck_probes(tracer)
    tracer.install()
    workload = None
    try:
        tracer.active = True
        workload = factory(dataclasses.replace(size, setup_repeats=1), tracer)
        tracer.active = False
        tally.add(workload.setup_outcomes)
        pass_first = len(tracer.spans)
        tracer.reset_gc()
        half = max(2, count(workload) // 2)
        untraced, traced = [], []
        for _ in range(half):
            wall, results = run_pass(workload)
            untraced.append(wall)
            tally.add_pass(results)
            tracer.active = True
            wall, results = run_pass(workload, tracer)
            tracer.active = False
            traced.append(wall)
            tally.add_pass(results)
        ratio = statistics.median(traced) / statistics.median(untraced)
        metrics = tracing.per_layer_metrics(tracer, pass_first, half, ratio)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}.jsonl"))
    info = {"untraced_passes": half, "traced_passes": half, "spans": len(tracer.spans)}
    return workload, metrics, info


def pass_count(name, seconds, workload):
    n16 = sum(g.timed and g.n == 16 for g in workload.groups)
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[name]),
               -(-MIN_TENSOR16 // n16) if n16 else 0)


def run(name, seed, seconds, trace, size=None, prepare=None, passes=None):
    """Set up one workload and run its passes; returns (Tally, metrics
    {name: (value, unit)}, run info).  ``passes`` overrides the count
    derived from ``seconds``; ``prepare`` may edit the workload after
    set-up (the self-check plants a wrong expectation with it)."""
    import workloads

    size = size or workloads.FULL
    make = workloads.WORKLOADS[name]
    os.makedirs(workloads.OUT_DIR, exist_ok=True)

    def factory(sz, tracer=None):
        w = make(seed, sz, tracer)
        if prepare is not None:
            prepare(w)
        return w

    def count(workload):
        return passes or pass_count(name, seconds, workload)

    tally = Tally()
    workload = None
    try:
        if trace:
            workload, metrics, info = run_traced(factory, name, size, count, tally)
        else:
            workload = factory(size)
            tally.add(workload.setup_outcomes)
            metrics, info = run_untraced(workload, count, tally)
    finally:
        if workload is not None:
            workload.close()
    return tally, metrics, info


def main(argv=None):
    args = parse_args(argv)
    import_library()
    print("environment:", json.dumps(environment(args), sort_keys=True))
    tally, metrics, info = run(args.workload, args.seed, args.seconds, args.trace)
    from workloads import digest

    attempted, failed = len(tally.outcomes), tally.failed
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric failed_ops_ratio = {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations)")
    print("run:", json.dumps(info))
    print("report_digest:", digest(tally.first or []))
    for reason in sorted({o.reason for o in tally.outcomes if o.reason}):
        print("failure:", reason)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
