"""Workloads of the osscheck benchmark: seeded inputs, operations, oracle.

Every input comes from the workload seed through the harness's own numpy
generator; the library only ever receives the finished tensors, files and
argument lists.  A workload is a set-up step (input generation, timed on
its own as ``setup_s``) and a list of groups.  A group is one tensor, or one
tensor file, and the operations run on it; a timed pass runs every group
once.  Each operation carries its expectation, and :func:`verify` is the
oracle that decides whether the operation failed.

Why these workloads:

* ``float-sweep`` spends its time in the float per-sample path (einsum
  Jacobi matrix, QR complement frame, ``eigvalsh``, ``np.poly``).
* ``exact-sweep`` spends it in exact integer and ``Fraction`` arithmetic,
  including a slice of large-integer weights that takes the object-int
  fallback, and in garbage-collector pauses; the float spectral path is
  unused.
* ``cli-files`` goes through ``osscheck.cli.main`` in-process, so it is the
  only workload that writes and reads tensor files and serializes reports,
  and the only one with negative controls and mixed verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from osscheck import analysis, cli, clifford, curvature
from osscheck.linalg import RATIONAL
from osscheck.report import CheckReport

DIMS = (4, 8, 16)

# Run outputs (cli-files tensor and report files, trace spans), inside the
# checkout and ignored by git.
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench_out")

# The large-integer slice: weights of this size push the exact Jacobi
# contraction past its int64 overflow bound, so it takes the object-int
# path, while 33 * max weight still fits the int64 accumulator of the
# rational Clifford build.
LARGE_WEIGHT = (10**15, 10**16)

# A valid input on which the seed commit's rational Clifford build raises
# OverflowError (the lcm of the denominators exceeds int64).  It stays in
# the cli-files workload as a known-defect operation until the library is
# fixed; it is never dropped or reseeded.
KNOWN_DEFECT_ARGV = ["build", "clifford", "--dim", "16", "--mu0", "1/1000003",
                     "--mu=1/1000033,1/1000037,1/1000039,1,1,1,1,1"]

# Random negative controls must fail these checks with a residual above
# this floor, so a marginal failure does not count as a detected one.
CONTROL_CHECKS = ("osserman", "jacobi-dual", "jacobi-orthogonal")
CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class Size:
    """How much work one workload does; :data:`FULL` is the benchmark's."""

    dims: tuple = DIMS
    float_samples: int = 36         # osserman, jacobi-dual, k-root, ...
    precheck_samples: int = 12      # eigen-bianchi's Osserman precheck
    orth_samples: int = 16          # exact jacobi-orthogonal
    polar_samples: int = 2          # exact polarization
    cli_samples: int = 6            # check all --samples
    setup_repeats: int = 3


FULL = Size()
TINY = Size(dims=(4, 8), float_samples=3, precheck_samples=3, orth_samples=2,
            polar_samples=1, cli_samples=3, setup_repeats=1)


# ---------------------------------------------------------------------------
# Tensor specifications and their known answers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """Weights of ``mu0 R1 + sum_i mu_i R^{J_i}`` (m = 0: constant curvature)."""

    kind: str           # "constant", "clifford", "equal" or "large"
    n: int
    mu0: Fraction
    mus: tuple

    @property
    def m(self):
        return len(self.mus)

    @property
    def roots(self):
        """Distinct eigenvalues of the reduced Jacobi operator.

        J_i X has eigenvalue mu0 - 3 mu_i; the rest of X-perp, of dimension
        n - 1 - m, has eigenvalue mu0.
        """
        vals = {self.mu0 - 3 * mu for mu in self.mus}
        if self.n - 1 - self.m > 0:
            vals.add(self.mu0)
        return vals

    @property
    def einstein_constant(self):
        return self.mu0 * (self.n - 1) - 3 * sum(self.mus, Fraction(0))

    @property
    def label(self):
        return f"{self.kind}/n{self.n}/m{self.m}"


def _weight(rng):
    """p/q with 1 <= |p| <= 9 and 1 <= q <= 9."""
    p = int(rng.integers(1, 10)) * (1 if rng.integers(2) else -1)
    return Fraction(p, int(rng.integers(1, 10)))


def _int_weight(rng):
    """Integer p with 1 <= |p| <= 9."""
    return Fraction(int(rng.integers(1, 10)) * (1 if rng.integers(2) else -1))


def _spec(rng, kind, n, m, draw=_weight):
    """Draw weights until the tensor has the structure its kind promises,
    so every seed gives the same amount of work: pairwise distinct Jacobi
    eigenvalues for "clifford" (the root count k is then fixed by n and m),
    equal weights for "equal" (k = 2), and for p/q draws at least one
    non-integer weight, so exact checks always run on Fractions."""
    while True:
        mu0 = draw(rng)
        if kind == "equal":
            mus = (draw(rng),) * m
        else:
            mus = tuple(draw(rng) for _ in range(m))
        spec = Spec(kind, n, mu0, mus)
        if kind == "clifford" and len(spec.roots) != m + (n - 1 > m):
            continue
        if draw is _weight and all(w.denominator == 1 for w in (mu0,) + mus):
            continue
        return spec


def corpus_specs(rng, dims, large):
    """Per dimension: one constant-curvature tensor, one Clifford tensor per
    rank up to the Radon-Hurwitz bound, one with equal weights (a two-root
    tensor), and with ``large`` two at the bound with large integer
    weights.  The two large tensors cost the same, so the exact-sweep tail
    percentile falls inside one population instead of between two."""
    specs = []
    for n in dims:
        bound = clifford.radon_hurwitz_bound(n)
        specs.append(_spec(rng, "constant", n, 0))
        specs.extend(_spec(rng, "clifford", n, m) for m in range(1, bound + 1))
        specs.append(_spec(rng, "equal", n, bound if bound < n - 1 else bound - 1))
        if large:
            specs.extend(_spec(rng, "large", n, bound, _large_weight) for _ in range(2))
    return specs


def _large_weight(rng):
    lo, hi = LARGE_WEIGHT
    return Fraction(int(rng.integers(lo, hi)) * (1 if rng.integers(2) else -1))


def build_tensor(spec):
    """Rational tensor for ``spec`` (family construction included)."""
    if spec.kind == "constant":
        return curvature.make_constant_curvature(spec.n, spec.mu0, RATIONAL)
    fam = clifford.build_clifford_family(spec.n, spec.m)
    return curvature.make_clifford(spec.n, spec.mu0,
                                   list(zip(spec.mus, fam.structures)), RATIONAL)


# ---------------------------------------------------------------------------
# Operations and the oracle.
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One call into the library and what its result must be.

    ``expect`` keys: ``verdict`` ("pass"/"fail"), ``exact`` (residual must
    be exactly 0), ``k`` (root count), ``einstein`` (exact constant),
    ``exit`` (CLI exit code), ``reports`` (per-property expectations of a
    ``check all --out`` file), ``control`` (negative-control floor).
    """

    name: str
    call: object
    expect: dict
    out: str = None


@dataclass
class Group:
    """All operations on one tensor; ``timed`` groups of dimension 16 give
    the per-tensor latency."""

    n: int
    label: str
    ops: list
    timed: bool = True


@dataclass
class Workload:
    groups: list
    setup_s: list = field(default_factory=list)
    setup_outcomes: list = field(default_factory=list)
    workdir: str = None

    def close(self):
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _finite(v):
    try:
        return math.isfinite(float(Fraction(str(v)) if isinstance(v, str) else v))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False


def _is_zero(v):
    return Fraction(str(v)) == 0


def _check_report(rep, expect):
    """Failure reason for a CheckReport (or its to_dict form), or None."""
    d = rep.to_dict() if isinstance(rep, CheckReport) else rep
    worst = d["worst_residual"]
    if not _finite(worst):
        return f"{d['property']}: non-finite residual {worst!r}"
    if d["verdict"] != expect["verdict"]:
        return f"{d['property']}: verdict {d['verdict']}, expected {expect['verdict']}"
    if expect.get("exact") and not _is_zero(worst):
        return f"{d['property']}: exact residual {worst} is not 0"
    if "control" in expect and not float(Fraction(str(worst))) > expect["control"]:
        return f"{d['property']}: control residual {worst} below {expect['control']}"
    if "einstein" in expect:
        got = Fraction(str(d["witness"]["einstein_constant"]))
        if got != expect["einstein"]:
            return f"einstein constant {got}, expected {expect['einstein']}"
    return None


def _digest_fields(d):
    keys = ("verdict", "worst_residual", "witness", "samples", "seed")
    return {k: d.get(k) for k in keys}


def verify(op, result):
    """Return ``(failure reason or None, samples, digest fields)``."""
    expect = op.expect
    if isinstance(result, CheckReport):
        d = result.to_dict()
        return _check_report(d, expect), result.samples, _digest_fields(d)
    if isinstance(result, analysis.RootClassification):
        fields = {"k": result.k, "centers": [float(c) for c in result.centers],
                  "multiplicities": list(result.multiplicities),
                  "agreement": result.per_sample_agreement,
                  "samples": result.samples, "seed": result.seed}
        verdict = "pass" if result.per_sample_agreement else "fail"
        if verdict != expect["verdict"]:
            return f"k-root: agreement {verdict}, expected {expect['verdict']}", \
                result.samples, fields
        if result.k != expect["k"]:
            return f"k-root: k={result.k}, expected {expect['k']}", result.samples, fields
        return None, result.samples, fields
    # CLI: result is the exit code; a report file may hold the verdicts
    fields = {"exit": result}
    if result != expect["exit"]:
        return f"exit code {result}, expected {expect['exit']}", 0, fields
    if op.out is None:
        return None, 0, fields
    with open(op.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    reports = doc["reports"]
    fields["reports"] = {p: _digest_fields(d) for p, d in sorted(reports.items())}
    samples = sum(d["samples"] for d in reports.values() if d["verdict"] != "skipped")
    for prop, want in expect["reports"].items():
        d = reports.get(prop)
        if d is None:
            return f"{prop}: missing from report", samples, fields
        if d["verdict"] == "skipped" or want["verdict"] == "skipped":
            if d["verdict"] != want["verdict"]:
                return f"{prop}: {d['verdict']}, expected {want['verdict']}", \
                    samples, fields
            continue
        reason = _check_report(d, want)
        if reason:
            return reason, samples, fields
    return None, samples, fields


def digest(fields_list):
    """sha256 over the deterministic fields of every report of a pass."""
    h = hashlib.sha256()
    for f in fields_list:
        h.update(json.dumps(f, sort_keys=True, default=repr).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The three workloads.
# ---------------------------------------------------------------------------

def _timed_setup(make, size):
    """Run ``make()`` ``size.setup_repeats`` times; keep the last result."""
    times, result = [], None
    for _ in range(size.setup_repeats):
        result = None  # let the previous corpus go before building the next
        t0 = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - t0)
    return result, times


def float_sweep(seed, size, tracer=None):
    def make():
        rng = np.random.default_rng([seed, 1])
        out = []
        for spec in corpus_specs(rng, size.dims, large=False):
            if tracer is not None:
                tracer.dim = spec.n
            out.append((spec, build_tensor(spec).to_float()))
        return out

    corpus, times = _timed_setup(make, size)
    groups = []
    for idx, (spec, Rf) in enumerate(corpus):
        s, k = size.float_samples, len(spec.roots)
        cseed = seed * 1000 + idx
        ops = [
            Op("osserman", lambda R=Rf, c=cseed: analysis.check_osserman(
                R, samples=s, seed=c), {"verdict": "pass"}),
            Op("jacobi-dual", lambda R=Rf, c=cseed: analysis.check_jacobi_dual(
                R, samples=s, seed=c), {"verdict": "pass"}),
            Op("k-root", lambda R=Rf, c=cseed: analysis.classify_k_root(
                R, samples=s, seed=c), {"verdict": "pass", "k": k}),
            Op("eigen-bianchi", lambda R=Rf, c=cseed:
               analysis.check_eigen_bianchi_identity(
                   R, samples=s, seed=c, precheck_samples=size.precheck_samples),
               {"verdict": "pass"}),
        ]
        if k == 2:
            ops.append(Op("two-root-decomposition", lambda R=Rf, c=cseed:
                          analysis.check_two_root_decomposition(R, samples=s, seed=c),
                          {"verdict": "pass"}))
        groups.append(Group(spec.n, spec.label, ops))
    return Workload(groups, times)


def exact_sweep(seed, size, tracer=None):
    def make():
        rng = np.random.default_rng([seed, 2])
        out = []
        for spec in corpus_specs(rng, size.dims, large=True):
            if tracer is not None:
                tracer.dim = spec.n
            R = build_tensor(spec)
            # fill the tensor's lazy float and integer forms, which a user
            # pays once per tensor, so no timed pass pays them
            R.to_float()
            curvature.jacobi_matrix(R, np.eye(spec.n, dtype=np.int64)[0])
            out.append((spec, R))
        return out

    corpus, times = _timed_setup(make, size)
    groups = []
    for idx, (spec, R) in enumerate(corpus):
        cseed = seed * 1000 + idx
        ops = [
            Op("jacobi-orthogonal", lambda R=R, c=cseed: analysis.check_jacobi_orthogonal(
                R, samples=size.orth_samples, seed=c),
               {"verdict": "pass", "exact": True}),
            Op("polarization", lambda R=R, c=cseed: analysis.check_polarization(
                R, samples=size.polar_samples, seed=c),
               {"verdict": "pass", "exact": True}),
            Op("einstein", lambda R=R: analysis.check_einstein(R),
               {"verdict": "pass", "exact": True, "einstein": spec.einstein_constant}),
            Op("ricci-sum", lambda R=R, c=cseed: analysis.check_ricci_sum(R, seed=c),
               {"verdict": "pass"}),
        ]
        groups.append(Group(spec.n, spec.label, ops))
    return Workload(groups, times)


def _cli(argv):
    """Exit code of ``osscheck.cli.main(argv)`` run in-process, with its
    console output dropped; argparse errors exit through SystemExit."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code


def cli_files(seed, size, tracer=None):
    rng = np.random.default_rng([seed, 3])
    workdir = os.path.join(OUT_DIR, f"cli-files-{seed}")
    os.makedirs(workdir, exist_ok=True)
    n16 = 16 if 16 in size.dims else max(size.dims)

    # (file, dimension, build argv, spec or None for a random control)
    inputs = []
    for kind, draw in (("int", _int_weight), ("frac", _weight)):
        spec = _spec(rng, "clifford", n16, clifford.radon_hurwitz_bound(n16), draw)
        path = os.path.join(workdir, f"clifford{n16}-{kind}.json")
        argv = ["build", "clifford", "--dim", str(n16), "--mu0=" + str(spec.mu0),
                "--mu=" + ",".join(str(mu) for mu in spec.mus), "--out", path]
        inputs.append((path, n16, argv, spec))
    for n in (4, 8):
        path = os.path.join(workdir, f"random{n}.json")
        argv = ["build", "random", "--dim", str(n), "--k-terms", "3",
                "--seed", str(int(rng.integers(0, 2**31))), "--out", path]
        inputs.append((path, n, argv, None))

    def make():
        outcomes = []
        for _, n, argv, _ in inputs:
            if tracer is not None:
                tracer.dim = n
            op = Op("build", lambda a=argv: _cli(a), {"exit": 0})
            outcomes.append(run_op(op))
        return outcomes

    setup_outcomes, times = _timed_setup(make, size)

    groups = []
    for path, n, _, spec in inputs:
        out = path.replace(".json", ".report.json")
        check = ["check", "all", "--in", path, "--samples", str(size.cli_samples),
                 "--seed", str(int(rng.integers(0, 2**31))), "--out", out]
        if spec is None:
            reports = {p: {"verdict": "fail", "control": CONTROL_FLOOR}
                       for p in CONTROL_CHECKS}
            expect = {"exit": 1, "reports": reports}
        else:
            reports = {p: {"verdict": "pass"} for p in
                       ("symmetries", "ricci-sum", "osserman", "jacobi-dual",
                        "eigen-bianchi")}
            for p in ("jacobi-orthogonal", "polarization"):
                reports[p] = {"verdict": "pass", "exact": True}
            reports["einstein"] = {"verdict": "pass", "exact": True,
                                   "einstein": spec.einstein_constant}
            reports["two-root-decomposition"] = {
                "verdict": "pass" if len(spec.roots) == 2 else "skipped"}
            expect = {"exit": 0, "reports": reports}
        groups.append(Group(n, os.path.basename(path),
                            [Op("check all", lambda a=check: _cli(a), expect, out)]))
    defect_out = os.path.join(workdir, "known-defect.json")
    groups.append(Group(16, "known-defect", [
        Op("build", lambda: _cli(KNOWN_DEFECT_ARGV + ["--out", defect_out]),
           {"exit": 0})], timed=False))
    return Workload(groups, times, setup_outcomes, workdir)


WORKLOADS = {"float-sweep": float_sweep, "exact-sweep": exact_sweep,
             "cli-files": cli_files}


# ---------------------------------------------------------------------------
# Running.
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Result of one operation; ``reason`` is set when it failed and
    ``raised`` when the failure was an uncaught exception."""

    seconds: float
    reason: str = None
    samples: int = 0
    fields: object = None
    raised: bool = False


def run_op(op):
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as e:  # an uncaught library exception is a failed operation
        where = traceback.extract_tb(e.__traceback__)[-1]
        return Outcome(time.perf_counter() - t0,
                       f"{op.name}: {type(e).__name__}: {e} "
                       f"({os.path.basename(where.filename)}:{where.lineno})",
                       raised=True)
    seconds = time.perf_counter() - t0
    reason, samples, fields = verify(op, result)
    return Outcome(seconds, reason, samples, fields)


def run_pass(workload, tracer=None):
    """One timed pass: ``(wall seconds, per-group (group, [Outcome]))``."""
    results = []
    for g in workload.groups:
        if tracer is not None:
            tracer.dim = g.n
        outs = [run_op(op) for op in g.ops]
        for o in outs:
            if o.reason:
                o.reason = f"{g.label}: {o.reason}"
        results.append((g, outs))
    wall = sum(o.seconds for _, outs in results for o in outs)
    return wall, results
