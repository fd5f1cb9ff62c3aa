"""Command-line front end.

Exit codes: 0 pass, 1 fail, 2 precondition violation, 3 I/O or parse error.
Human-readable output goes to stdout; machine-readable reports are written
only via --out.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from fractions import Fraction

import numpy as np

from . import analysis
from .clifford import build_clifford_family, radon_hurwitz_bound
from .curvature import (
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    make_rj,
    random_curvature,
    random_generators,
    reduced_jacobi,
)
from .linalg import (
    FLOAT64,
    RATIONAL,
    PreconditionError,
    charpoly,
    cluster_rows,
    default_cluster_tol,
    eigh,
    random_unit_vector,
    sample_stream,
)
from .report import ARTIFACT_VERSION, _jsonable
from .tensorio import TensorFileError, _rational, dump_report, dump_tensor, load_tensor

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_IO = 3


def _scalar(text, mode, option):
    """The value of ``option``: ``text`` read as a rational tensor file
    component (under its digit limit), exact in rational mode and a float
    otherwise; PreconditionError naming the option when it is not one."""
    try:
        value = Fraction(*_rational(text))
        return value if mode == RATIONAL else float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise PreconditionError(f"{option} {text!r}: {e}") from None


def _scalar_list(text, mode, option):
    return [_scalar(part, mode, option) for part in text.split(",") if part.strip()]


def _residual(r):
    """Residual ``r`` to four digits; an exact one beyond float range is
    rounded without passing through float."""
    try:
        return f"{float(r):.3e}"
    except OverflowError:  # an exact residual, a Fraction
        with decimal.localcontext(prec=4, Emax=decimal.MAX_EMAX):
            return f"{decimal.Decimal(r.numerator) / r.denominator:.3e}"


def _write_json(path, doc):
    """Write ``doc`` as strict JSON, formatted in full before the file
    opens, so a failure leaves no file."""
    text = json.dumps(_jsonable(doc), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="osscheck",
        description="Build algebraic curvature tensors and check "
                    "Osserman / Jacobi-dual / Jacobi-orthogonal properties.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a tensor and write it to a file")
    b.add_argument("kind", choices=("constant", "rj", "clifford", "random",
                                    "from-symmetric"))
    b.add_argument("--dim", type=int, required=True)
    b.add_argument("--kappa", default="1", help="sectional curvature (constant)")
    b.add_argument("--mu0", default="1", help="constant-curvature weight (clifford)")
    b.add_argument("--mu", default="", help="comma list of Clifford weights")
    b.add_argument("--k-terms", type=int, default=3, dest="k_terms")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--mode", choices=(FLOAT64, RATIONAL), default=None)
    b.add_argument("--out", required=True)

    c = sub.add_parser("check", help="run a property checker on a tensor file")
    c.add_argument("property", choices=(*analysis.CHECKERS, "k-root", "all"))
    c.add_argument("--in", dest="path", required=True)
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tol", type=float, default=None,
                   help="residual tolerance (default 1e-9 float, exact 0 rational)")
    c.add_argument("--mode", choices=(FLOAT64, RATIONAL), default=None,
                   help="convert the tensor to this scalar mode before any "
                        "check: float64 runs every check in float, rational "
                        "needs a rational file (default: the file's mode)")
    c.add_argument("--out", default=None, help="write JSON report here")

    s = sub.add_parser("spectrum", help="print the reduced Jacobi spectrum")
    s.add_argument("--in", dest="path", required=True)
    s.add_argument("--direction", default=None, help="comma list; else seeded random")
    s.add_argument("--seed", type=int, default=0)
    return p


def _cmd_build(args):
    mode = args.mode
    if args.kind == "random":
        if mode == RATIONAL:
            raise PreconditionError("random tensors are float64 only")
        mode = FLOAT64
    elif mode is None:
        mode = RATIONAL
    n = args.dim
    if args.kind == "constant":
        R = make_constant_curvature(n, _scalar(args.kappa, mode, "--kappa"), mode)
    elif args.kind == "rj":
        if n % 2:
            raise PreconditionError(f"rj needs an even --dim, found {n}")
        fam = build_clifford_family(n, 1)
        R = make_rj(fam.structures[0], mode)
    elif args.kind == "clifford":
        mus = _scalar_list(args.mu, mode, "--mu")
        m = len(mus)
        bound = radon_hurwitz_bound(n)
        if m > bound:
            raise PreconditionError(
                f"rank {m} exceeds Radon-Hurwitz bound {bound} for n={n}")
        fam = build_clifford_family(n, m) if m else None
        terms = list(zip(mus, fam.structures)) if m else []
        R = make_clifford(n, _scalar(args.mu0, mode, "--mu0"), terms, mode)
    elif args.kind == "random":
        R = random_curvature(n, args.k_terms, sample_stream(args.seed))
    else:  # from-symmetric
        stream = sample_stream(args.seed)
        if mode == RATIONAL:
            Ss, cs = [], []
            for _ in range(args.k_terms):
                a = stream.integers(-5, 6, size=(n, n))
                Ss.append(a + a.T)
                cs.append(int(stream.integers(-5, 6)))
        else:
            Ss, cs = random_generators(n, args.k_terms, stream)
        R = make_from_symmetric(Ss, cs, mode, n=n)
    dump_tensor(R, args.out)
    print(R.provenance if len(R.provenance) < 200 else R.provenance[:200] + "...")
    return EXIT_PASS


def _cmd_check(args):
    R = load_tensor(args.path)
    if args.mode == FLOAT64:
        R = R.to_float()
    elif args.mode == RATIONAL and R.mode != RATIONAL:
        raise PreconditionError("--mode rational needs a rational tensor file")
    if args.property == "k-root":
        cls = analysis.classify_k_root(R, samples=min(args.samples, 200),
                                       seed=args.seed)
        spectrum = ", ".join(f"{c:g} x{m}"
                             for c, m in zip(cls.centers, cls.multiplicities))
        print(f"k-root: k={cls.k} [{spectrum}] "
              f"agreement={'yes' if cls.per_sample_agreement else 'no'}")
        if args.out:
            _write_json(args.out, {
                "artifact_version": ARTIFACT_VERSION, "property": "k-root",
                "k": cls.k, "centers": cls.centers,
                "multiplicities": cls.multiplicities,
                "per_sample_agreement": cls.per_sample_agreement,
                "samples": cls.samples, "seed": cls.seed,
                "provenance": R.provenance})
        return EXIT_PASS if cls.per_sample_agreement else EXIT_FAIL

    options = {"samples": args.samples, "seed": args.seed, "tol": args.tol}
    if args.property == "all":
        # fewer samples would skip osserman, which compares against sample 0
        if args.samples < 2:
            raise PreconditionError(
                f"--samples must be at least 2 for check all, found {args.samples}")
        reports, all_pass = {}, True
        for name in analysis.CHECKERS:
            try:
                rep = analysis.run_check(name, R, **options)
            except PreconditionError as e:
                print(f"{name:>24}: skipped ({e})")
                reports[name] = {"verdict": "skipped", "reason": str(e)}
                continue
            all_pass = all_pass and rep.passed
            print(f"{name:>24}: {rep.verdict}  worst residual "
                  f"{_residual(rep.worst_residual)}")
            reports[name] = rep.to_dict()
        if args.out:
            _write_json(args.out, {"artifact_version": ARTIFACT_VERSION,
                                   "provenance": R.provenance, "reports": reports})
        return EXIT_PASS if all_pass else EXIT_FAIL

    rep = analysis.run_check(args.property, R, **options)
    print(f"{rep.name}: {rep.verdict}  worst residual "
          f"{_residual(rep.worst_residual)}  (samples={rep.samples}, "
          f"seed={rep.seed}, tol={float(rep.tolerance):g}, mode={rep.mode})")
    if args.out:
        dump_report(rep, args.out)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_spectrum(args):
    R = load_tensor(args.path)
    if args.direction is not None:
        x = np.array([_scalar(part, FLOAT64, "--direction")
                      for part in args.direction.split(",")])
        if x.shape != (R.dim,):
            raise PreconditionError(
                f"direction has {x.shape[0]} entries, expected {R.dim}")
        if not x.any():
            raise PreconditionError("direction must be a nonzero vector")
        # an exact power-of-two scale keeps the norm in float range
        x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
        x = x / np.linalg.norm(x)
    else:
        x = random_unit_vector(R.dim, sample_stream(args.seed))
    vals = eigh(reduced_jacobi(R.to_float(), x))[0]
    coeffs = charpoly(vals)
    for label, values in (("reduced Jacobi spectrum", vals),
                          ("characteristic polynomial", coeffs)):
        if not np.isfinite(values).all():
            raise PreconditionError(f"the {label} is not finite at this direction")
    _, centers, mults = cluster_rows(vals[None], default_cluster_tol(vals))
    print("eigenvalues:", ", ".join(
        f"{c:g} x{m}" for c, m in zip(centers[0], mults[0]) if m))
    print("char poly coefficients:", ", ".join(f"{c:.12g}" for c in coeffs))
    return EXIT_PASS


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # the checks report the inf and NaN of an overflowing tensor
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "build":
                return _cmd_build(args)
            if args.command == "check":
                return _cmd_check(args)
            return _cmd_spectrum(args)
    except (TensorFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (PreconditionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
