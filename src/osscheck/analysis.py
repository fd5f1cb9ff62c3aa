"""Property checkers: Osserman, Jacobi-duality, Jacobi-orthogonality,
Einstein, root structure, and the proof-step identities.

All checkers are pure given (tensor, seed): sample i always draws from the
per-sample stream keyed by (seed, i), so results are independent of any
parallel scheduling of the sample loop.  Sampling checkers certify "no
counterexample found", not a proof; they all run through :func:`_sweep`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import (
    CurvatureTensor,
    _first_slot,
    _jacobi_numerators,
    jacobi_matrix,
    reduced_jacobi,
    ricci_operator,
    validate_symmetries,  # run by name through CHECKERS
)
from .linalg import (
    FLOAT64,
    RATIONAL,
    PreconditionError,
    cluster_eigenvalues,
    default_cluster_tol,
    default_tol,
    eigh,
    eigvalsh,
    int_array,
    max_abs,
    random_int_vector,
    random_orthogonal_matrix,
    random_orthonormal_pair,
    random_unit_vector,
    sample_stream,
)
from .report import CheckReport, make_report

def _worse(res, worst):
    """Whether a sample's residual replaces the worst so far: the first
    strictly larger one, and the first NaN, which no later value replaces."""
    return res > worst or (res != res and worst == worst)


def _require_samples(least, **counts):
    """Reject a sample count below ``least``: fewer samples test nothing."""
    for name, count in counts.items():
        if count < least:
            raise PreconditionError(f"{name} must be at least {least}, found {count}")


def _sweep(name, R, draw, *, samples, seed, tol, mode=FLOAT64, reference=None):
    """The sampling loop and report of every sampling checker.

    Sample i runs ``draw(i, sample_stream(seed, i))``, which yields one
    ``(residual, fields)`` per candidate.  The worst is the first strictly
    largest or first NaN residual (:func:`_worse`); the first candidate
    stands even at 0.  Only a new worst calls ``fields()``, for the witness
    ``{"sample": i, **fields()}``.  Osserman's ``reference`` witness (its
    sample 0) stands instead until a residual exceeds 0, from sample 1 on.
    """
    first = 0 if reference is None else 1
    _require_samples(first + 1, samples=samples)
    tol = default_tol(tol, mode)
    worst, witness = 0.0, reference or {}
    for i in range(first, samples):
        for res, fields in draw(i, sample_stream(seed, i)):
            if _worse(res, worst) or not witness:
                worst, witness = res, {"sample": i, **fields()}
    return make_report(name, worst, witness, samples, seed, tol, mode,
                       notes="sampling check: pass means no counterexample found",
                       provenance=R.provenance)


def _norm(v):
    return float(np.linalg.norm(np.asarray(v, dtype=np.float64)))


def _exact_orthogonal_pair(n, stream):
    """Exact rational pair (x, y) with g(x, y) = 0 via projection."""
    for _ in range(16):
        x = random_int_vector(n, stream)
        y = random_int_vector(n, stream)
        eps_x = x.dot(x)
        y = eps_x * y - y.dot(x) * x
        if np.any(y != 0):
            return x, y
    raise RuntimeError("degenerate rational draws")


def check_jacobi_orthogonal(R: CurvatureTensor, *, samples=1000, seed=0,
                            tol=None) -> CheckReport:
    """J_X Y perpendicular to J_Y X over random orthogonal pairs.

    A rational tensor is checked exactly: pairs are forced orthogonal by
    projection and the residual is the exact inner product (tolerance 0).
    """
    if R.dim < 2:
        raise PreconditionError("need dimension >= 2")

    def draw(i, stream):
        if R.mode == RATIONAL:
            x, y = _exact_orthogonal_pair(R.dim, stream)
            mx, dx = _jacobi_numerators(R, x)
            my, dy = _jacobi_numerators(R, y)
            num = mx.dot(y).dot(my.dot(x))  # y and x hold Python ints
            res = abs(Fraction(num, dx * dy))
        else:
            x, y = random_orthonormal_pair(R.dim, stream)
            jxy = jacobi_matrix(R, x).dot(y)
            jyx = jacobi_matrix(R, y).dot(x)
            res = abs(float(jxy.dot(jyx))) / (_norm(jxy) * _norm(jyx) + 1.0)
        yield res, lambda: {"x": list(x), "y": list(y)}

    return _sweep("jacobi-orthogonal", R, draw, samples=samples, seed=seed,
                  tol=tol, mode=R.mode)


def _eigenvectors_with_values(R, x, cluster_tol=None):
    """(center, ambient eigenvectors) of each eigenvalue cluster of the
    reduced Jacobi at unit x."""
    red = reduced_jacobi(R, x)
    sd = eigh(red.matrix, cluster_tol=cluster_tol)
    return [(float(lam), red.frame @ sd.eigenspace(idx))
            for idx, lam in enumerate(sd.eigenvalues)]


def check_jacobi_dual(R: CurvatureTensor, *, samples=1000, seed=0,
                      tol=None) -> CheckReport:
    """J_X Y = lambda Y implies J_Y X = lambda X, over eigenvectors of J_X.

    Each clustered eigenspace is tested on its full orthonormal basis plus
    three random unit combinations inside the eigenspace (the Jacobi operator
    is quadratic in its base, so basis vectors alone do not suffice).
    """
    Rf = R.to_float()
    n = R.dim

    def draw(i, stream):
        x = random_unit_vector(n, stream)
        spaces = _eigenvectors_with_values(Rf, x)
        # J_y x = t vec(y y^T) with t = R contracted with x in its first
        # slot: one n^4 contraction per sample instead of one per candidate y
        t = _first_slot(Rf, x).reshape(n, n * n)
        for lam, cols in spaces:
            cand = [cols[:, j] for j in range(cols.shape[1])]
            if cols.shape[1] > 1:
                for _ in range(3):
                    c = stream.standard_normal(cols.shape[1])
                    v = cols @ c
                    cand.append(v / np.linalg.norm(v))
            for y in cand:
                jyx = t @ np.outer(y, y).reshape(-1)
                res = _norm(jyx - lam * x) / (1.0 + abs(lam))
                yield res, lambda: {"x": list(x), "y": list(y), "eigenvalue": lam}

    return _sweep("jacobi-dual", R, draw, samples=samples, seed=seed, tol=tol)


def check_osserman(R: CurvatureTensor, *, samples=1000, seed=0,
                   tol=None) -> CheckReport:
    """Constancy of the reduced Jacobi characteristic polynomial over unit X.

    Coefficients are taken for the spectrally normalized operator (eigenvalues
    divided by the reference spectral radius): without this, a coefficient
    whose exact value is 0 drowns in the float noise of the large ones and no
    uniform tolerance works across dimensions.
    """
    Rf = R.to_float()
    x0 = random_unit_vector(R.dim, sample_stream(seed, 0))
    vals0 = eigvalsh(reduced_jacobi(Rf, x0).matrix)
    spectral_scale = max(1.0, float(np.abs(vals0).max()))
    ref = np.poly(vals0 / spectral_scale)
    scale = 1.0 + np.abs(ref)
    reference = {"reference_x": list(x0), "reference_coefficients": list(ref)}

    def draw(i, stream):
        x = random_unit_vector(R.dim, stream)
        vals = eigvalsh(reduced_jacobi(Rf, x).matrix)
        coeffs = np.poly(vals / spectral_scale)
        res = float((np.abs(coeffs - ref) / scale).max())
        yield res, lambda: {"x": list(x), "coefficients": list(coeffs), **reference}

    return _sweep("osserman", R, draw, samples=samples, seed=seed, tol=tol,
                  reference=reference)


def check_einstein(R: CurvatureTensor, *, tol=None) -> CheckReport:
    """Ricci operator equals a scalar multiple of the identity."""
    tol = default_tol(tol, R.mode)
    n = R.dim
    if R.mode == RATIONAL:
        # n L Ric - tr(L Ric) I in integers: every entry is at most 2n times
        # the largest entry of L Ric, a trace of the numerators
        t = int_array(np.trace(R.numerators, axis1=1, axis2=2), 2, n)
        tr = int(np.trace(t))
        dev = n * t - tr * np.eye(n, dtype=t.dtype)
        const = Fraction(tr, n * R.denominator)
        worst = Fraction(max_abs(dev), n * R.denominator)
    else:
        ric = ricci_operator(R)
        const = float(np.trace(ric)) / n
        worst = float(np.abs(ric - const * np.eye(n)).max())
    return make_report("einstein", worst, {"einstein_constant": const},
                       samples=1, seed=0, tol=tol, mode=R.mode,
                       provenance=R.provenance)


@dataclass
class RootClassification:
    """Root structure of the reduced Jacobi spectrum over sampled directions."""

    k: int
    centers: list
    multiplicities: list
    per_sample_agreement: bool
    samples: int = 0
    seed: int = 0


def classify_k_root(R: CurvatureTensor, *, samples=100, seed=0) -> RootClassification:
    """Clustered reduced Jacobi spectrum at sample 0, and whether every
    sample's spectrum agrees with it (a NaN center agrees with nothing)."""
    _require_samples(1, samples=samples)
    Rf = R.to_float()
    ref = None
    agree = True
    for i in range(samples):
        x = random_unit_vector(R.dim, sample_stream(seed, i))
        vals = eigvalsh(reduced_jacobi(Rf, x).matrix)
        ct = default_cluster_tol(vals)
        centers, mults = cluster_eigenvalues(list(vals), ct)
        if ref is None:
            ref = (centers, mults)
        same_centers = mults == ref[1] and all(
            abs(c - rc) <= ct for c, rc in zip(centers, ref[0]))
        agree = agree and same_centers
    return RootClassification(k=len(ref[0]), centers=ref[0],
                              multiplicities=ref[1],
                              per_sample_agreement=agree,
                              samples=samples, seed=seed)


def check_two_root_decomposition(R: CurvatureTensor, *, samples=500, seed=0,
                                 tol=None) -> CheckReport:
    """Two-root eigenspace identity for g(J_X Y, J_Y X).

    For each sample: eigendecompose the reduced Jacobi at unit Y, split a
    random X in Y-perp into eigenspace components X1 + X2, and compare
    g(J_X Y, J_Y X) against (l2 - l1)(g(J_X1 Y, X2) - g(J_X2 Y, X1)); the
    duality by-products g(J_X1 Y, X2) and g(J_X2 Y, X1) are also required
    to vanish.
    """
    # classify_k_root rejects samples < 1 before it classifies anything
    cls = classify_k_root(R, samples=min(samples, 16), seed=seed)
    if cls.k != 2 or not cls.per_sample_agreement:
        raise PreconditionError(
            f"two-root decomposition needs a stable two-root tensor "
            f"(found k={cls.k}, agreement={cls.per_sample_agreement})")
    Rf = R.to_float()
    gap_tol = abs(cls.centers[1] - cls.centers[0]) / 4.0

    def draw(i, stream):
        y = random_unit_vector(R.dim, stream)
        spaces = _eigenvectors_with_values(Rf, y, cluster_tol=gap_tol)
        if len(spaces) != 2:
            raise PreconditionError(
                f"sample {i} produced {len(spaces)} eigenvalue clusters")
        (l1, v1), (l2, v2) = spaces
        xr = stream.standard_normal(R.dim)
        xr -= xr.dot(y) * y
        x = xr / np.linalg.norm(xr)
        x1 = v1 @ (v1.T @ x)
        x2 = v2 @ (v2.T @ x)
        lhs = float(jacobi_matrix(Rf, x).dot(y).dot(jacobi_matrix(Rf, y).dot(x)))
        b1 = float(jacobi_matrix(Rf, x1).dot(y).dot(x2))
        b2 = float(jacobi_matrix(Rf, x2).dot(y).dot(x1))
        rhs = (l2 - l1) * (b1 - b2)
        span = 1.0 + abs(l2 - l1)
        res = max(abs(lhs - rhs) / (1.0 + abs(lhs)),
                  abs(b1) / span, abs(b2) / span)
        yield res, lambda: {"y": list(y), "x": list(x),
                            "lambda1": l1, "lambda2": l2,
                            "lhs": lhs, "rhs": rhs, "byproducts": [b1, b2]}

    return _sweep("two-root-decomposition", R, draw, samples=samples,
                  seed=seed, tol=tol)


def _triples(count, stream, total):
    """Random distinct index triples out of ``total`` eigenvectors."""
    seen = set()
    for _ in range(count * 4):
        t = tuple(sorted(stream.choice(total, size=3, replace=False).tolist()))
        if t not in seen:
            seen.add(t)
            yield t
            if len(seen) >= count:
                return


def check_eigen_bianchi_identity(R: CurvatureTensor, *, samples=100, seed=0,
                                 tol=None, precheck_samples=50) -> CheckReport:
    """Eigenvalue-weighted Bianchi identity for Osserman tensors.

    For mutually orthogonal eigenvectors A, B, C of J_X with eigenvalues
    lA, lB, lC:

        R(X,A,B,C)(lC - 2 lB + lA) + R(X,B,A,C)(lC + lB - 2 lA) = 0.

    Triples are exhaustive over the eigenbasis when n-1 <= 8, otherwise 40
    random ones per sample.  Precondition: the tensor samples as Osserman.
    """
    # checked before the precheck spends samples (the sweep checks again)
    _require_samples(1, samples=samples)
    _require_samples(2, precheck_samples=precheck_samples)
    pre = check_osserman(R, samples=precheck_samples, seed=seed, tol=1e-6)
    if not pre.passed:
        raise PreconditionError(
            f"eigen-Bianchi identity assumes an Osserman tensor "
            f"(osserman residual {pre.worst_residual:.3e})")
    Rf = R.to_float()
    n = R.dim

    def draw(i, stream):
        x = random_unit_vector(n, stream)
        red = reduced_jacobi(Rf, x)
        sd = eigh(red.matrix)
        vals, ambient = sd.raw, red.frame @ sd.eigenbasis
        t = _first_slot(Rf, x)  # t[l, j, k] = R(X, e_j, e_k, e_l)
        # contract all three slots with the eigenbasis once, so each triple
        # is a table lookup: c3[a, b, c] = R(X, A_a, B_b, C_c)
        c3 = np.tensordot(t, ambient, axes=([1], [0]))   # [l, k, a]
        c3 = np.tensordot(c3, ambient, axes=([1], [0]))  # [l, a, b]
        c3 = np.tensordot(c3, ambient, axes=([0], [0]))  # [a, b, c]
        if n - 1 <= 8:
            triples = itertools.combinations(range(n - 1), 3)
        else:
            triples = _triples(40, stream, n - 1)
        for (ia, ib, ic) in triples:
            la, lb, lc = vals[ia], vals[ib], vals[ic]
            r_abc = float(c3[ia, ib, ic])
            r_bac = float(c3[ib, ia, ic])
            lhs = r_abc * (lc - 2 * lb + la) + r_bac * (lc + lb - 2 * la)
            res = abs(lhs) / (1.0 + abs(r_abc) + abs(r_bac))
            yield res, lambda: {"x": list(x), "triple": [int(ia), int(ib), int(ic)],
                                "eigenvalues": [float(la), float(lb), float(lc)],
                                "r_xabc": r_abc, "r_xbac": r_bac}

    return _sweep("eigen-bianchi", R, draw, samples=samples, seed=seed, tol=tol)


def check_polarization(R: CurvatureTensor, *, samples=200, seed=0,
                       tol=None) -> CheckReport:
    """Polarization identities of the Jacobi operator at arbitrary X, Y:

        J_{X+Y}(X-Y) = 2 (J_Y X - J_X Y)
        J_{X-Y}(X+Y) = 2 (J_Y X + J_X Y)
        J_{X+Y} + J_{X-Y} = 2 J_X + 2 J_Y   (as matrices)

    A rational tensor is checked exactly, on integer X, Y and the integer
    Jacobi numerators, which all share the denominator of the tensor.
    """
    exact = R.mode == RATIONAL

    def draw(i, stream):
        if exact:
            x = random_int_vector(R.dim, stream)
            y = random_int_vector(R.dim, stream)
            # the matrix identity adds six of these matrices at most
            jx, jy, jp, jm = (int_array(_jacobi_numerators(R, v)[0], 6)
                              for v in (x, y, x + y, x - y))
        else:
            x = stream.standard_normal(R.dim)
            y = stream.standard_normal(R.dim)
            jx, jy = jacobi_matrix(R, x), jacobi_matrix(R, y)
            jp, jm = jacobi_matrix(R, x + y), jacobi_matrix(R, x - y)
        r1 = jp.dot(x - y) - 2 * (jy.dot(x) - jx.dot(y))
        r2 = jm.dot(x + y) - 2 * (jy.dot(x) + jx.dot(y))
        r3 = jp + jm - 2 * jx - 2 * jy
        if exact:
            res = Fraction(max(max_abs(r1), max_abs(r2), max_abs(r3)),
                           R.denominator)
        else:
            scale = 1.0 + _norm(jx.dot(y)) + _norm(jy.dot(x))
            res = max(_norm(r1), _norm(r2), float(np.abs(r3).max())) / scale
        yield res, lambda: {"x": list(x), "y": list(y)}

    return _sweep("polarization", R, draw, samples=samples, seed=seed, tol=tol,
                  mode=R.mode)


def check_ricci_sum(R: CurvatureTensor, *, seed=0, tol=None) -> CheckReport:
    """Ricci operator equals the sum of Jacobi operators over any
    orthonormal basis; checked on the standard basis (independent route)
    and three random orthonormal bases (float).  Default tolerance 1e-12.
    """
    bases = 3
    tol = 1e-12 if tol is None else tol
    n = R.dim
    ric = ricci_operator(R)
    if R.mode == RATIONAL:
        # numerators over the denominator of R; each Jacobi numerator at a
        # basis vector is one numerator of R, so the n-term sums and the
        # trace of the numerators stay inside the int64 rule of R
        eye = np.eye(n, dtype=np.int64)
        acc = sum(_jacobi_numerators(R, eye[:, i])[0] for i in range(n))
        ric_nums = np.trace(R.numerators, axis1=1, axis2=2).T
        worst_std = Fraction(max_abs(acc - ric_nums), R.denominator)
    else:
        acc = sum(jacobi_matrix(R, np.eye(n)[:, i]) for i in range(n))
        worst_std = float(np.abs(acc - ric).max())
    ric_f = np.asarray(ric, dtype=np.float64)
    Rf = R.to_float()
    worst_rand = 0.0
    for b in range(bases):
        q = random_orthogonal_matrix(n, sample_stream(seed, b))
        acc = sum(jacobi_matrix(Rf, q[:, i]) for i in range(n))
        scale = 1.0 + float(np.abs(ric_f).max())
        res = float(np.abs(acc - ric_f).max()) / scale
        worst_rand = res if _worse(res, worst_rand) else worst_rand
    worst_std_f = float(worst_std)
    worst = worst_rand if _worse(worst_rand, worst_std_f) else worst_std_f
    return make_report("ricci-sum", worst,
                       {"standard_basis_residual": worst_std,
                        "random_basis_residual": worst_rand},
                       samples=bases + 1, seed=seed, tol=tol, mode=R.mode,
                       provenance=R.provenance)


# property -> (checker in this module, the options it takes), in the order
# of `osscheck check all`.  Checkers are looked up by name when they run.
CHECKERS = {
    "symmetries": ("validate_symmetries", ("tol",)),
    "einstein": ("check_einstein", ("tol",)),
    "ricci-sum": ("check_ricci_sum", ("seed", "tol")),
    "polarization": ("check_polarization", ("samples", "seed", "tol")),
    "osserman": ("check_osserman", ("samples", "seed", "tol")),
    "jacobi-dual": ("check_jacobi_dual", ("samples", "seed", "tol")),
    "jacobi-orthogonal": ("check_jacobi_orthogonal", ("samples", "seed", "tol")),
    "two-root-decomposition": ("check_two_root_decomposition",
                               ("samples", "seed", "tol")),
    "eigen-bianchi": ("check_eigen_bianchi_identity", ("samples", "seed", "tol")),
}


def run_check(name, R: CurvatureTensor, **options) -> CheckReport:
    """Run the checker of property ``name`` with the options it takes."""
    checker, takes = CHECKERS[name]
    return globals()[checker](R, **{k: options[k] for k in takes})
