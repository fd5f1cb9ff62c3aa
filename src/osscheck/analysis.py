"""Property checkers: Osserman, Jacobi-duality, Jacobi-orthogonality,
Einstein, root structure, and the proof-step identities.

All checkers are pure given (tensor, seed): sample i always draws from the
per-sample stream keyed by (seed, i), and its result depends on nothing
else, not on how many samples run or how they are grouped, nor on what ran
before: the float sampling checkers share one table of draws, eigensolves,
clusters and contractions (:func:`_table`) bit for bit.  Sampling checkers
certify "no counterexample found", not a proof; they all run through
:func:`_sweep`.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .curvature import (
    CurvatureTensor,
    _as_tensor,
    _first_slot,
    _rounded_quotient,
    jacobi_matrices,
    jacobi_numerator_rows,
    reduced_jacobi,
    ricci_operator,
    validate_symmetries,  # run by name through CHECKERS
)
from .linalg import (
    BLOCK,
    FLOAT64,
    RATIONAL,
    Field,
    PreconditionError,
    block_product,
    charpoly,
    cluster_rows,
    combine,
    default_cluster_tol,
    default_tol,
    eigh,
    householder_frame,
    int64_parts,
    int_array,
    max_abs,
    random_orthogonal_matrices,
    sample_stream,
    sample_streams,
)
from .report import CheckReport, make_report, residual

def _worse(res, worst):
    """Whether a sample's residual replaces the worst so far: the first
    strictly larger one, and the first NaN, which no later value replaces."""
    return res > worst or (res != res and worst == worst)


def _require_samples(least, **counts):
    """Reject a sample count below ``least``: fewer samples test nothing."""
    for name, count in counts.items():
        if count < least:
            raise PreconditionError(f"{name} must be at least {least}, found {count}")


# Samples per sampling block of a float sweep: two BLAS chunks, so a sweep
# of up to 64 samples is drawn, solved and clustered once.  An exact sweep's
# block is one chunk: its integers may be Python ints of any size, whose
# memory a larger block multiplies.  Only the BLAS chunk of
# linalg.block_product decides a row's bits.
_FLOAT_BLOCK = 2 * BLOCK


def _blocks(size, seed, samples, fields, first=0):
    """Phase 1 of the sampling engine.  For each block of up to ``size``
    consecutive samples from sample ``first`` on, ``(start, arrays)``:
    sample i draws the tuple of ``fields`` (:class:`linalg.Field`) from its
    own ``(seed, i)`` stream, and ``arrays`` stacks the block's draws array
    by array.  Each sample fills the raw values of its fields straight into
    their (rows, width) arrays, which ``finish`` evaluates at once.  A row
    that ``finish`` rejects is drawn again by the fields' ``one`` from a
    fresh ``sample_stream(seed, i)``, so the retry rule lives there only."""
    streams = sample_streams(seed, range(first, samples))
    for start in range(first, samples, size):
        rows = min(size, samples - start)
        raw = [np.empty((rows, f.width), f.dtype) for f in fields]
        for r in range(rows):
            stream = next(streams)
            for f, a in zip(fields, raw):
                f.fill(stream, a[r])
        arrays, redo = [], np.zeros(rows, dtype=bool)
        for f, a in zip(fields, raw):
            got, bad = f.finish(a)
            arrays += got
            redo |= bad
        for r in np.flatnonzero(redo):
            stream = sample_stream(seed, start + r)
            for a, v in zip(arrays, [v for f in fields for v in f.one(stream)]):
                a[r] = v
        yield start, arrays


def _sweep(name, R, fields, compute, *, samples, seed, tol, denominator=None,
           notes=""):
    """The sampling engine and report of every sampling checker.

    Samples run in blocks of _FLOAT_BLOCK, or BLOCK for an exact sweep, each
    in three phases:

    1. draw the ``fields`` of every sample of an exact sweep
       (:func:`_blocks`); a float sweep passes ``fields`` None and reads the
       draw of the float table (:func:`_table`), x and 3(n-1) normals;
    2. compute: ``compute(start, *arrays)`` returns the residuals
       ``res[S, C]`` of the block's S samples, which start at sample
       ``start``, with C candidates each (-inf marks no candidate), and
       ``fields(s, c)``, the witness fields of candidate c of row s;
    3. witness: over the flat sequence of residuals, sample by sample, the
       worst is the first NaN, else the first strictly largest, else the
       first candidate: ``np.argmax`` in a block, :func:`_worse` across
       blocks.  Only the winner builds its witness
       ``{"sample": i, **fields(s, c)}``.

    An exact checker's residuals are integer numerators over one common
    ``denominator``, which it passes and which makes the sweep rational: the
    rule compares plain integers, and the report's worst residual is their
    quotient.  ``notes`` adds to the sampling note what the check certifies.
    """
    _require_samples(1, samples=samples)
    mode = FLOAT64 if denominator is None else RATIONAL
    tol = default_tol(tol, mode)
    worst, winner = 0.0, None
    size = BLOCK if mode == RATIONAL else _FLOAT_BLOCK
    blocks = (_blocks(size, seed, samples, fields) if fields is not None else
              ((start, _table(R, seed, start, min(size, samples - start), "draw"))
               for start in range(0, samples, size)))
    for start, arrays in blocks:
        res, fields = compute(start, *arrays)
        s, c = divmod(int(np.argmax(res)), res.shape[1])
        value = res.item(s, c)  # a Python float, int or Fraction
        if winner is None or _worse(value, worst):
            worst, winner = value, (start + s, fields, s, c)
    i, fields, s, c = winner
    witness = {"sample": i, **fields(s, c)}
    if denominator is not None:
        worst = residual(worst, over=denominator)
    note = "sampling check: pass means no counterexample found"
    return make_report(name, worst, witness, samples, seed, tol, mode,
                       notes=f"{note}; {notes}" if notes else note,
                       provenance=R.provenance)


def _mv(a, v):
    """Matrix-vector products ``a @ v`` of one matrix or a stack."""
    return (a @ v[..., None])[..., 0]


def _dot(u, v):
    """Inner products over the last axis."""
    return np.einsum("...i,...i->...", u, v)


def _norm(v):
    return np.linalg.norm(v, axis=-1)


def _unit_perp(v, x):
    """The rows of ``v`` projected off the unit rows ``x``, then scaled to
    unit norm."""
    y = v - _dot(v, x)[:, None] * x
    return y / _norm(y)[:, None]


# The float spectral table of the latest (R, seed), dropped when R dies.  In
# each float block it maps kinds to read-only arrays over the block's first
# rows: "draw" (x, then 3(n-1) normals: jacobi-dual's combinations take at
# most three per eigenvector; two-root, jacobi-orthogonal and polarization
# the first n; the draw of every float sweep), "eigh" (values and
# ambient eigenvectors), "clusters" (cluster_rows at default_cluster_tol)
# and "basis" (_in_eigenbasis).  An entry is kept while all the store holds,
# float form and first-slot matrix included, stays within _STORE_BYTES.
_store = None
_STORE_BYTES = 4 << 20


class _Store(NamedTuple):
    ref: weakref.ref  # to R
    seed: int
    Rf: object  # R.to_float() for a rational R, else None
    slot: object  # _first_slot of the float form, once a "basis" needs it
    blocks: dict  # {block start: {kind: tuple of read-only arrays}}

    def nbytes(self):
        held = [a for b in self.blocks.values() for v in b.values() for a in v]
        held += [a for a in (self.slot, self.Rf and self.Rf._matrix) if a is not None]
        return sum(a.nbytes for a in held)


def _forget(ref):
    """Weak-reference callback: drop the store when its tensor dies."""
    global _store
    if (store := _store) is not None and store.ref is ref:
        _store = None


def _held(R, seed):
    """The store when it holds ``(R, seed)``; else an empty one, which keeps
    the float form and first-slot matrix of a store of R."""
    store = _store  # read once, replaced whole
    if store is None or store.ref() is not R:
        return _Store(weakref.ref(R, _forget), seed, None, None, {})
    return store if store.seed == seed else store._replace(seed=seed, blocks={})


def _float_form(R):
    """``R.to_float()``, the store's copy when the store holds R."""
    store = _store
    held = store is not None and store.ref() is R and store.Rf is not None
    return store.Rf if held else R.to_float()


def _table(R, seed, start, rows, kind):
    """Entry ``kind`` of the float spectral table of ``R`` at ``seed``: its
    arrays over the first ``rows`` samples of the float block at ``start``.
    Served when the store holds at least these rows, else computed from the
    entries it needs, taken the same way.  Each row is a pure function of
    its sample: a row keeps its place in its BLAS chunk and LAPACK solves
    each matrix alone, so a served prefix has the bits of a fresh call."""
    global _store
    got = _held(R, seed).blocks.get(start, {}).get(kind)
    if got is not None and len(got[0]) >= rows:
        return tuple(a[:rows] for a in got)
    made = {}  # the float form or first-slot matrix this call makes
    if kind == "draw":
        fields = Field.unit(R.dim), Field.normals(3 * (R.dim - 1))
        got = tuple(next(_blocks(_FLOAT_BLOCK, seed, start + rows, fields, start))[1])
    elif kind == "clusters":
        vals = _table(R, seed, start, rows, "eigh")[0]
        got = cluster_rows(vals, default_cluster_tol(vals))
    else:
        x = _table(R, seed, start, rows, "draw")[0]
        if kind == "eigh":
            Rf = _float_form(R)
            made = {"Rf": Rf} if Rf is not R else {}
            vals, vecs = eigh(reduced_jacobi(Rf, x))
            got = vals, householder_frame(x) @ vecs
        else:
            amb = _table(R, seed, start, rows, "eigh")[1]
            slot = _held(R, seed).slot
            if slot is None:
                slot = made["slot"] = _first_slot(_float_form(R))
            got = (_in_eigenbasis(slot, x, amb),)
    for a in got:
        a.flags.writeable = False
    # the store as the entries this one needs left it, with what it made
    store = _held(R, seed)._replace(**made)
    kept = store._replace(blocks={
        **store.blocks, start: {**store.blocks.get(start, {}), kind: got}})
    _store = kept if kept.nbytes() <= _STORE_BYTES else store
    return got


def check_jacobi_orthogonal(R: CurvatureTensor, *, samples=1000, seed=0,
                            tol=None) -> CheckReport:
    """J_X Y perpendicular to J_Y X over random orthogonal pairs.

    A float tensor takes X from the spectral table's draw, the directions
    that osserman samples, and Y from its first n normals, projected off X
    twice and scaled to unit norm.  A rational tensor is checked exactly: pairs
    of integer vectors are forced orthogonal by projection and the residual
    is the exact inner product (tolerance 0).  Its numerator is an integer
    over L^2, for L the denominator of the tensor.
    """
    if R.dim < 2:
        raise PreconditionError("need dimension >= 2")
    n = R.dim
    exact = R.mode == RATIONAL
    if exact:
        numerators = jacobi_numerator_rows(R)
    fields = (Field.orthogonal_int_pair(n),) if exact else None

    def compute(start, xs, ys):
        if not exact:
            # y: the table's first n normals v projected off x twice; one
            # pass leaves x.y up to about eps / sin(angle of v to x)
            ys = _unit_perp(_unit_perp(ys[:, :n], xs), xs)
        v = np.stack([xs, ys], axis=1).reshape(-1, n)
        if exact:
            # J_x y' and J_{y'} x part by part, then summed
            parts, bits, bound = int64_parts(numerators(v), n, max_abs(v))
            jxy, jyx = (combine([_mv(p[i::2], w) for p in parts], bits, bound)
                        for i, w in ((0, ys), (1, xs)))
            jxy = int_array(jxy, n, max_abs(jyx))
            res = np.abs((jxy * jyx).sum(axis=1))[:, None]
        else:
            j = jacobi_matrices(R, v)
            jxy, jyx = _mv(j[0::2], ys), _mv(j[1::2], xs)
            res = residual(np.abs(_dot(jxy, jyx)), _norm(jxy) * _norm(jyx))[:, None]
        return res, lambda s, c: {"x": xs[s].tolist(), "y": ys[s].tolist()}

    return _sweep("jacobi-orthogonal", R, fields, compute, samples=samples,
                  seed=seed, tol=tol,
                  denominator=R.denominator**2 if exact else None)


def _in_eigenbasis(slot, xs, amb):
    """q[s, b, a, l] = R(x_s, A_a, A_b, e_l) for the eigenvector columns A of
    ``amb[s]``: R contracted with x_s in its first slot, one fixed-shape
    product with ``slot`` (:func:`curvature._first_slot`), then with A in
    its third and second slots."""
    S, n, m = amb.shape
    ambt = amb.transpose(0, 2, 1)
    p = ambt @ block_product(xs, slot).reshape(S, n, n * n)
    return ambt[:, None] @ p.reshape(S, m, n, n)


def _combinations(labels, mults, normals):
    """Three random unit vectors inside each degenerate eigenspace, as
    coefficients in the eigenbasis.

    Eigenvalue j of a sample lies in cluster ``labels[s, j]``
    (:func:`linalg.cluster_rows`).  A cluster of multiplicity mq > 1 takes
    3 mq coefficients from ``normals[S, 3m]``, after those of the degenerate
    clusters before it; combination r uses the r-th mq of them.  There are
    at most D = m // 2 degenerate clusters.  Returns ``coef[S, D, 3, m]``,
    ``cluster[S, D]``, the cluster in slot d, and ``valid[S, D]``, whether a
    degenerate cluster fills slot d.
    """
    S, m = labels.shape
    rows = np.arange(S)[:, None]
    degenerate = mults > 1
    cluster = np.argsort(~degenerate, axis=1, kind="stable")[:, :m // 2]
    valid = degenerate[rows, cluster]
    mult_of = mults[rows, labels]                  # of each eigenvalue's cluster
    start_of = (np.cumsum(mults, axis=1) - mults)[rows, labels]
    in_degenerate = mult_of > 1
    before = (np.cumsum(in_degenerate, axis=1) - in_degenerate)[rows, start_of]
    index = (3 * before[:, None, :] + np.arange(3)[:, None] * mult_of[:, None, :]
             + (np.arange(m) - start_of)[:, None, :])            # (S, 3, m)
    drawn = np.take_along_axis(normals, index.reshape(S, -1), axis=1).reshape(S, 3, m)
    slot_of = (np.cumsum(degenerate, axis=1) - 1)[rows, labels]
    in_slot = in_degenerate[:, None, :] & (slot_of[:, None, :] == np.arange(m // 2)[:, None])
    coef = drawn[:, None] * in_slot[:, :, None]    # (S, D, 3, m)
    coef[valid] /= _norm(coef[valid])[..., None]
    return coef, cluster, valid


def check_jacobi_dual(R: CurvatureTensor, *, samples=1000, seed=0,
                      tol=None) -> CheckReport:
    """J_X Y = lambda Y implies J_Y X = lambda X, over eigenvectors of J_X.

    The candidates Y of a sample are the n-1 eigenvectors of the reduced
    Jacobi at X, then three random unit combinations inside each clustered
    eigenspace of dimension > 1 (the Jacobi operator is quadratic in its
    base, so basis vectors alone do not suffice).
    """
    n = R.dim
    m = n - 1

    def compute(start, xs, normals):
        S = len(xs)
        amb = _table(R, seed, start, S, "eigh")[1]
        labels, centers, mults = _table(R, seed, start, S, "clusters")
        coef, cluster, valid = _combinations(labels, mults, normals)
        coef = coef.reshape(S, -1, m)
        # J_y x = R(x, y, y, .) = c_a c_b q[b, a, :] for y = A c: one n^4
        # product per sample, not one per candidate
        (q,) = _table(R, seed, start, S, "basis")
        along = np.arange(m)
        jyx = np.concatenate(
            [q[:, along, along],
             (coef[:, :, None, :] @ (coef @ q.reshape(S, m, -1)).reshape(S, -1, m, n))
             [:, :, 0]], axis=1)
        lam = np.concatenate([np.take_along_axis(centers, labels, 1),
                              np.repeat(np.take_along_axis(centers, cluster, 1),
                                        3, axis=1)], 1)
        res = residual(_norm(jyx - lam[..., None] * xs[:, None, :]), np.abs(lam))
        res[:, m:][~np.repeat(valid, 3, axis=1)] = -np.inf

        def fields(s, c):
            y = amb[s, :, c] if c < m else amb[s] @ coef[s, c - m]
            return {"x": list(xs[s]), "y": list(y), "eigenvalue": float(lam[s, c])}

        return res, fields

    return _sweep("jacobi-dual", R, None, compute, samples=samples, seed=seed,
                  tol=tol)


def check_osserman(R: CurvatureTensor, *, samples=1000, seed=0,
                   tol=None) -> CheckReport:
    """Constancy of the reduced Jacobi characteristic polynomial over unit X.

    The reference is sample 0, the first row of the first block, so its own
    residual is 0.  Coefficients are taken for the spectrally normalized
    operator (eigenvalues divided by the reference spectral radius): without
    this, a coefficient whose exact value is 0 drowns in the float noise of
    the large ones and no uniform tolerance works across dimensions.
    """
    _require_samples(2, samples=samples)  # sample 0 compares only to itself
    ref = {}  # sample 0's, set by the first block

    def compute(start, xs, normals):
        vals = _table(R, seed, start, len(xs), "eigh")[0]
        if start == 0:
            ref.update(radius=max(1.0, float(np.abs(vals[0]).max())), x=list(xs[0]))
        coeffs = charpoly(vals / ref["radius"])
        c0 = ref.setdefault("coefficients", coeffs[0])  # row 0 of block 0
        res = residual(np.abs(coeffs - c0), np.abs(c0)).max(axis=1, keepdims=True)
        return res, lambda s, c: {
            "x": list(xs[s]), "coefficients": list(coeffs[s]),
            "reference_x": ref["x"], "reference_coefficients": list(c0)}

    return _sweep("osserman", R, None, compute, samples=samples, seed=seed,
                  tol=tol)


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
        worst = residual(max_abs(dev), over=n * R.denominator)
    else:
        ric = ricci_operator(R)
        const = float(np.trace(ric)) / n
        worst = residual(float(np.abs(ric - const * np.eye(n)).max()))
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
    ref, agree = None, True
    for start in range(0, samples, _FLOAT_BLOCK):
        rows = min(_FLOAT_BLOCK, samples - start)
        vals = _table(R, seed, start, rows, "eigh")[0]
        _, centers, mults = _table(R, seed, start, rows, "clusters")
        ct = default_cluster_tol(vals)
        if ref is None:
            ref = centers[0], mults[0]
        same = ((mults == ref[1]).all(axis=1)
                & (np.abs(centers - ref[0]) <= ct[:, None]).all(axis=1))
        agree = agree and bool(same.all())
    k = int(np.count_nonzero(ref[1]))
    return RootClassification(k=k, centers=ref[0][:k].tolist(),
                              multiplicities=ref[1][:k].tolist(),
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
    Rf = _float_form(R)
    n = R.dim
    gap_tol = abs(cls.centers[1] - cls.centers[0]) / 4.0

    def compute(start, ys, normals):
        vals, basis = _table(R, seed, start, len(ys), "eigh")
        labels, centers, mults = cluster_rows(vals, gap_tol)
        count = np.count_nonzero(mults, axis=1)
        bad = np.flatnonzero(count != 2)
        if bad.size:
            raise PreconditionError(f"sample {start + bad[0]} produced "
                                    f"{count[bad[0]]} eigenvalue clusters")
        x = _unit_perp(normals[:, :n], ys)
        along = _mv(basis.transpose(0, 2, 1), x)  # x in the eigenbasis
        x1 = _mv(basis, np.where(labels == 0, along, 0.0))
        x2 = _mv(basis, np.where(labels == 1, along, 0.0))
        # J_X, J_Y, J_X1 and J_X2 of every sample from one product
        j = jacobi_matrices(Rf, np.stack([x, ys, x1, x2], axis=1).reshape(-1, n))
        jx, jy, j1, j2 = (j[k::4] for k in range(4))
        lhs = _dot(_mv(jx, ys), _mv(jy, x))
        b1, b2 = _dot(_mv(j1, ys), x2), _dot(_mv(j2, ys), x1)
        l1, l2 = centers[:, 0], centers[:, 1]
        rhs = (l2 - l1) * (b1 - b2)
        res = np.maximum.reduce([residual(np.abs(lhs - rhs), np.abs(lhs)),
                                 *residual(np.abs([b1, b2]), np.abs(l2 - l1))])
        return res[:, None], lambda s, c: {
            "y": list(ys[s]), "x": list(x[s]),
            "lambda1": float(l1[s]), "lambda2": float(l2[s]),
            "lhs": float(lhs[s]), "rhs": float(rhs[s]),
            "byproducts": [float(b1[s]), float(b2[s])]}

    return _sweep("two-root-decomposition", R, None, compute, samples=samples,
                  seed=seed, tol=tol)


def check_eigen_bianchi_identity(R: CurvatureTensor, *, samples=100, seed=0,
                                 tol=None, precheck_samples=50) -> CheckReport:
    """Eigenvalue-weighted Bianchi identity for Osserman tensors.

    For mutually orthogonal eigenvectors A, B, C of J_X with eigenvalues
    lA, lB, lC:

        R(X,A,B,C)(lC - 2 lB + lA) + R(X,B,A,C)(lC + lB - 2 lA) = 0.

    Every sample checks every triple of its eigenbasis, at every n: the
    table of R(X, A, B, C) that one triple needs holds them all.
    Preconditions: n-1 >= 3, so that there are triples at all, and the
    tensor samples as Osserman.
    """
    if R.dim < 4:
        raise PreconditionError(
            f"eigen-Bianchi identity needs three eigenvectors orthogonal to X: "
            f"dimension must be at least 4, found {R.dim}")
    # checked before the precheck spends samples (the sweep checks again)
    _require_samples(1, samples=samples)
    _require_samples(2, precheck_samples=precheck_samples)
    pre = check_osserman(R, samples=precheck_samples, seed=seed, tol=1e-6)
    if not pre.passed:
        raise PreconditionError(
            f"eigen-Bianchi identity assumes an Osserman tensor "
            f"(osserman residual {pre.worst_residual:.3e})")
    m = R.dim - 1
    ia, ib, ic = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp).T

    def compute(start, xs, normals):
        vals, amb = _table(R, seed, start, len(xs), "eigh")
        # c3[s, b, a, c] = R(X, A_a, B_b, C_c): each triple is a table lookup
        c3 = _table(R, seed, start, len(xs), "basis")[0] @ amb[:, None]
        r_abc, r_bac = c3[:, ib, ia, ic], c3[:, ia, ib, ic]
        la, lb, lc = vals[:, ia], vals[:, ib], vals[:, ic]
        lhs = r_abc * (lc - 2 * lb + la) + r_bac * (lc + lb - 2 * la)
        res = residual(np.abs(lhs), np.abs(r_abc), np.abs(r_bac))
        return res, lambda s, c: {
            "x": list(xs[s]), "triple": [int(ia[c]), int(ib[c]), int(ic[c])],
            "eigenvalues": [float(vals[s, v[c]]) for v in (ia, ib, ic)],
            "r_xabc": float(r_abc[s, c]), "r_xbac": float(r_bac[s, c])}

    return _sweep("eigen-bianchi", R, None, compute, samples=samples, seed=seed,
                  tol=tol)


def _polarization_residuals(jx, jy, jp, jm, x, y):
    """(r1, r2, r3, J_X Y, J_Y X) of the three identities, for one sample
    or a stack of them."""
    jxy, jyx = _mv(jx, y), _mv(jy, x)
    r1 = _mv(jp, x - y) - 2 * (jyx - jxy)
    r2 = _mv(jm, x + y) - 2 * (jyx + jxy)
    return r1, r2, jp + jm - 2 * jx - 2 * jy, jxy, jyx


def check_polarization(R: CurvatureTensor, *, samples=200, seed=0,
                       tol=None) -> CheckReport:
    """Polarization identities of the Jacobi operator at arbitrary X, Y:

        J_{X+Y}(X-Y) = 2 (J_Y X - J_X Y)
        J_{X-Y}(X+Y) = 2 (J_Y X + J_X Y)
        J_{X+Y} + J_{X-Y} = 2 J_X + 2 J_Y   (as matrices)

    A float tensor takes X and the first n normals of the spectral table's
    draw as Y.  A rational tensor is checked exactly, on integer X, Y and
    the integer Jacobi numerators, which all share the denominator of the
    tensor.

    The identities follow from J being quadratic in X and from
    R(X, Y, ., .) = -R(Y, X, ., .), so they hold for every tensor skew in
    its first pair: the check tests the library's Jacobi contractions.
    """
    exact = R.mode == RATIONAL
    n = R.dim
    if exact:
        numerators = jacobi_numerator_rows(R)
    fields = (Field.int_vector(n), Field.int_vector(n)) if exact else None

    def compute(start, xs, ys):
        if not exact:  # ys: the table's normals
            ys = ys[:, :n]
        v = np.stack([xs, ys, xs + ys, xs - ys], axis=1).reshape(-1, n)
        if exact:
            # the residuals add five matrix-vector products of these
            # matrices with vectors no larger than v at most, part by part
            parts, bits, bound = int64_parts(numerators(v), 6, n, max_abs(v))
            r1, r2, r3 = (combine(r, bits, bound) for r in zip(*(
                _polarization_residuals(p[0::4], p[1::4], p[2::4], p[3::4],
                                        xs, ys)[:3] for p in parts)))
            res = np.abs(np.concatenate([r1, r2, r3.reshape(len(xs), -1)], axis=1))
            res = res.max(axis=1)[:, None]
        else:
            j = jacobi_matrices(R, v)
            r1, r2, r3, jxy, jyx = _polarization_residuals(
                j[0::4], j[1::4], j[2::4], j[3::4], xs, ys)
            worst = np.maximum.reduce([_norm(r1), _norm(r2),
                                       np.abs(r3).max(axis=(1, 2))])
            res = residual(worst, _norm(jxy), _norm(jyx))[:, None]
        return res, lambda s, c: {"x": xs[s].tolist(), "y": ys[s].tolist()}

    return _sweep("polarization", R, fields, compute, samples=samples, seed=seed,
                  tol=tol, denominator=R.denominator if exact else None,
                  notes="the identities hold for every tensor skew in its first "
                        "pair: this checks the library's Jacobi contractions")


def check_ricci_sum(R: CurvatureTensor, *, seed=0, tol=None) -> CheckReport:
    """Ricci operator equals the sum of Jacobi operators over any
    orthonormal basis; checked in float on three random orthonormal bases.
    Default tolerance 1e-12.

    Both sides are traces of R, so the identity holds for every 4-tensor:
    the check tests the library's contractions.
    """
    bases = 3
    tol = 1e-12 if tol is None else tol
    n = R.dim
    # Ric[w, y] = sum_i R[y, i, i, w], one trace of the stored scalars
    # (integer numerators for a rational R, each quotient correctly rounded)
    ric = np.trace(_as_tensor(R._matrix, n), axis1=1, axis2=2).T
    if R.mode == RATIONAL:
        ric = _rounded_quotient(ric, R.denominator, n * R._max_numerator)
    # the columns of the three random bases, summed basis by basis
    q = np.swapaxes(random_orthogonal_matrices(n, sample_streams(seed, range(bases))),
                    1, 2).reshape(-1, n)
    acc = jacobi_matrices(R, q).reshape(bases, n, n, n).sum(axis=1)
    # the largest residual, or NaN when there is one
    worst = residual(float(np.abs(acc - ric).max()), float(np.abs(ric).max()))
    return make_report("ricci-sum", worst, {"random_basis_residual": worst},
                       samples=bases, seed=seed, tol=tol, mode=R.mode,
                       notes="the identity holds for every 4-tensor: this "
                             "checks the library's contractions",
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
