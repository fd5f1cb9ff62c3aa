"""Dense linear algebra over two scalar modes: binary64 and exact rationals.

Float-mode quantities live in ordinary ``float64`` numpy arrays.  Exact
integer work runs on int64 arrays when :func:`int64_safe` proves that it
cannot overflow, and on ``dtype=object`` arrays of Python ints otherwise;
exact scalars are :class:`fractions.Fraction` or int.  An exact integer
matrix product (:func:`exact_parts`) takes one of three arithmetic paths:
one float64 product when every partial sum stays below 2^53, one float64
product per limb (:func:`limbs`) of the right factor above that, whether
its entries fit int64 or not, and Python ints only when the entries of the
left factor do not fit int64 or the limbs would be too many to keep.  Its
limb products are int64 parts, which a contraction can take one by one in
int64 (:func:`int64_parts`) before :func:`combine` sums only its result.
All spectral operations are float-only; identity checks may run in either
mode.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

FLOAT64 = "float64"
RATIONAL = "rational"

# Default tolerances.  Safe for dims <= 16 with well separated spectra.
IDENTITY_TOL = 1e-9
UNIT_TOL = 1e-12
SYM_TOL = 1e-10


def default_tol(tol, mode):
    """``tol``, or when it is None the default: exact 0 in rational mode."""
    if tol is not None:
        return tol
    return 0 if mode == RATIONAL else IDENTITY_TOL


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


def require_symmetric(m):
    """``m``, a square matrix or a stack ``m[..., k, k]`` of them, or
    ValueError when one is not symmetric (exactly for integer and object
    matrices, in float to SYM_TOL relative to its largest entry, which must
    be finite)."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    mt = np.swapaxes(m, -1, -2)
    if m.dtype == object or m.dtype.kind in "iu":
        if np.any(m != mt):
            raise ValueError("matrix is not symmetric (exact check)")
        return m
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    worst = np.abs(m - mt).max(axis=(-2, -1), initial=0.0)
    # a NaN residual is never within, and an infinite scale admits nothing
    if not np.all((worst <= SYM_TOL * scale) & np.isfinite(scale)):
        raise ValueError(f"matrix is not symmetric: residual {float(worst.max()):.3e}")
    return m


def cluster_rows(values, cluster_tol):
    """Greedy left-to-right clustering of each row of ``values[S, m]``,
    every row sorted ascending.

    A value joins the current cluster iff it lies within ``cluster_tol`` (a
    scalar or one per row) of the cluster's running mean; centers are the
    cluster means.  Returns ``(labels, centers, mults)``: ``labels[s, j]`` is
    the cluster of value j, and ``centers[s, q]``, ``mults[s, q]`` describe
    cluster q of row s, with center 0 and multiplicity 0 past the last one.
    """
    v = np.asarray(values, dtype=np.float64).T   # value by value, all rows
    m, rows = v.shape
    tol = np.asarray(cluster_tol, dtype=np.float64)
    labels = np.zeros((m, rows), dtype=np.intp)
    # running[j], sizes[j]: mean and size of the cluster of value j as it
    # stands once value j has joined it
    running, sizes = v.copy(), np.ones((m, rows))
    for j in range(1, m):
        gap = v[j] - running[j - 1]
        join = np.abs(gap) <= tol
        sizes[j][join] += sizes[j - 1][join]
        running[j][join] = running[j - 1][join] + gap[join] / sizes[j][join]
        labels[j] = labels[j - 1] + ~join
    labels, running, sizes = labels.T, running.T, sizes.T
    # a cluster's center and size are those after its last value
    last = np.ones((rows, m), dtype=bool)
    last[:, :-1] = labels[:, 1:] != labels[:, :-1]
    centers, mults = np.zeros((rows, m)), np.zeros((rows, m), dtype=np.intp)
    row_of = np.broadcast_to(np.arange(rows)[:, None], (rows, m))
    centers[row_of[last], labels[last]] = running[last]
    mults[row_of[last], labels[last]] = sizes[last]
    return labels, centers, mults


def default_cluster_tol(values):
    """Spec'd default: 1e-6 times the spectral diameter (1 if nearly zero),
    over the last axis of ``values``."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape[-1] == 0:
        return 1e-6
    diam = v.max(axis=-1) - v.min(axis=-1)
    tol = 1e-6 * np.where(diam >= 1e-12, diam, 1.0)
    return float(tol) if tol.ndim == 0 else tol


def _zero_non_finite(m):
    """``(m, bad)``: the symmetric float matrices ``m[..., k, k]`` with each
    matrix that has an entry that is not finite, on which LAPACK does not
    converge, replaced by 0, and which ones those are."""
    m = np.asarray(m, dtype=np.float64)
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    return (np.where(bad[..., None, None], 0.0, m) if bad.any() else m), bad


def eigh(m):
    """``(eigenvalues, eigenvectors)`` of the symmetric float matrices
    ``m[..., k, k]``, ascending, eigenvectors in columns; all NaN for a
    matrix with an entry that is not finite."""
    m = np.asarray(m)
    if m.dtype == object:
        raise PreconditionError("eigh is float-only; eigenvalues are irrational in general")
    m, bad = _zero_non_finite(m)
    require_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    vals[bad], vecs[bad] = np.nan, np.nan
    return vals, vecs


def charpoly(roots):
    """Coefficients, highest degree first, of prod_i (z - roots[..., i]) for
    each row of ``roots``: signed elementary symmetric functions, built one
    root at a time in the order of ``np.poly``."""
    r = np.asarray(roots, dtype=np.float64)
    c = np.zeros(r.shape[:-1] + (r.shape[-1] + 1,))
    c[..., 0] = 1.0
    for j in range(r.shape[-1]):
        c[..., 1:j + 2] -= r[..., j:j + 1] * c[..., :j + 1]
    return c


def householder_frame(x):
    """Orthonormal basis of x-perp for each unit row ``x[..., n]``, as the
    columns of a ``[..., n, n-1]`` array: columns 1..n-1 of the Householder
    reflection that maps e_0 to -sign(x_0) x (sign(0) = 1), in closed form."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    sign = np.where(x[..., :1] < 0, -1.0, 1.0)
    v = x.copy()
    v[..., :1] += sign
    # H = I - v v^T / (1 + |x_0|) for unit x, since v^T v = 2 (1 + |x_0|)
    return np.eye(n)[:, 1:] - v[..., :, None] * (
        x[..., None, 1:] / (1.0 + np.abs(x[..., :1]))[..., None])


# ---------------------------------------------------------------------------
# Fixed-shape products.
#
# BLAS picks its kernel by the shape of a product, and for a few rows it sums
# in another order: a row of X[:S] @ B can change in its last bits with S.
# Every product of a sample-dependent number of rows therefore runs in
# chunks of exactly BLOCK rows, the last one zero-padded, so a row's result
# depends only on the row and its position in its chunk.  BLOCK is this BLAS
# chunk only: a sampling block (analysis._blocks) is a multiple of it.
# ---------------------------------------------------------------------------

BLOCK = 32


def block_product(a, b):
    """``a @ b`` for float64 ``a[rows, k]``, any number of rows, one product
    of BLOCK rows of ``a`` at a time, each written straight into the result:
    row r has the bits it has in its chunk, at position r % BLOCK."""
    rows, k = a.shape
    padded = np.zeros((-(-rows // BLOCK) * BLOCK, k))
    padded[:rows] = a
    out = np.empty((padded.shape[0], b.shape[1]))
    for lo in range(0, padded.shape[0], BLOCK):
        np.matmul(padded[lo:lo + BLOCK], b, out=out[lo:lo + BLOCK])
    return out[:rows]


# ---------------------------------------------------------------------------
# Seeded randomness.
#
# Counter-based generator: Philox4x64 with the 128-bit key
# seed * 2**64 + sample_index.  Per-sample streams are therefore independent
# of the degree of parallelism: sample i always sees the same stream.
# ---------------------------------------------------------------------------

_KEY_MASK = (1 << 64) - 1


def _sample_key(seed, index):
    """Philox key of sample ``index`` of the run keyed by ``seed``, as its
    two 64-bit words, low word first."""
    return [int(index) & _KEY_MASK, int(seed) & _KEY_MASK]


def sample_stream(seed, index=0):
    """Generator for sample ``index`` of the run keyed by ``seed`` (Philox):
    the one-index case of :func:`sample_streams`."""
    return next(sample_streams(seed, (index,)))


def sample_streams(seed, indices):
    """The generator of sample i for each i in ``indices``, in order, drawn
    by re-keying one Philox generator, which costs less than building one
    per sample.  It is built from the seed 0, which reads no entropy pool,
    and then set to the state of a fresh Philox with sample i's key, held
    in plain ints, which the setter reads four times as fast as numpy
    arrays.  Each generator is valid until the next one is taken."""
    bits = np.random.Philox(0)
    stream = np.random.Generator(bits)
    key = _sample_key(seed, 0)
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in indices:
        key[0] = int(i) & _KEY_MASK
        bits.state = state
        yield stream


_MAX_RETRIES = 16


def _norms(v):
    """Norms of the rows of ``v[S, n]``, with the bits of ``np.linalg.norm``:
    a stacked (1, n) @ (n, 1) product calls its BLAS dot (``einsum`` and
    ``norm(axis=1)`` sum in other orders)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _unit_rows(v):
    """``((u,), redo)``: the rows of ``v[S, n]`` scaled to unit norm, twice,
    and those of norm at most 1e-6, which are drawn again."""
    nv = _norms(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = v / nv[:, None]
        return (v / _norms(v)[:, None],), ~(nv > 1e-6)


def _projected_pairs(v):
    """``((x, y'), redo)`` for the integer rows ``v[S, 2n] = (x, y)``:
    y' = (x.x) y - (y.x) x, and the rows where y' is zero (x or y zero, or
    the two parallel), whose whole pair is drawn again."""
    x, y = np.hsplit(v, 2)
    p = (x * x).sum(axis=1)[:, None] * y - (y * x).sum(axis=1)[:, None] * x
    return (x.copy(), p), ~p.any(axis=1)


def _normals(stream, row):
    stream.standard_normal(out=row)


def _integers(stream, row):
    row[:] = stream.integers(-9, 10, size=len(row))


class Field(NamedTuple):
    """One field of a sample's draw: ``fill(stream, row)`` draws one
    sample's ``width`` raw values of ``dtype`` straight into ``row``, and
    ``finish(raw[S, width])`` returns the field's arrays for S samples at
    once and the rows that are drawn again (a bool array, or False)."""

    width: int
    dtype: type
    fill: Callable
    finish: Callable

    def one(self, stream):
        """The definition of the draw: the field's arrays for one sample,
        one row filled and finished, again while ``finish`` rejects it, at
        most _MAX_RETRIES times."""
        row = np.empty((1, self.width), self.dtype)
        for _ in range(_MAX_RETRIES):
            self.fill(stream, row[0])
            arrays, redo = self.finish(row)
            if not np.any(redo):
                return tuple(a[0] for a in arrays)
        raise RuntimeError("degenerate draws")

    @staticmethod
    def unit(n):
        return Field(n, np.float64, _normals, _unit_rows)

    @staticmethod
    def normals(k):
        return Field(k, np.float64, _normals, lambda v: ((v,), False))

    @staticmethod
    def int_vector(n):
        return Field(n, np.int64, _integers, lambda v: ((v,), ~v.any(axis=1)))

    @staticmethod
    def orthogonal_int_pair(n):
        return Field(2 * n, np.int64, _integers, _projected_pairs)


def random_unit_vector(n, stream):
    return Field.unit(n).one(stream)[0]


def random_int_vector(n, stream):
    """Nonzero int64 vector of integers in [-9, 9] (integers are exact
    rationals)."""
    return Field.int_vector(n).one(stream)[0]


def random_orthogonal_matrices(n, streams):
    """Haar-ish random orthogonal matrices, one per generator of
    ``streams``: the Q of the QR factorisation of a Gaussian n x n matrix
    drawn from it, its columns signed so that R has a positive diagonal.
    One stacked QR call factors every matrix, each alone."""
    q, r = np.linalg.qr(np.stack([s.standard_normal((n, n)) for s in streams]))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]


def random_orthogonal_matrix(n, stream):
    """The one-stream case of :func:`random_orthogonal_matrices`."""
    return random_orthogonal_matrices(n, (stream,))[0]


def _exact_scalar(index, e):
    """Entry ``index`` of an array as an int or a Fraction, or ValueError."""
    if isinstance(e, (int, Fraction)):
        return e
    if isinstance(e, numbers.Rational):  # numpy integers, among others
        return Fraction(int(e.numerator), int(e.denominator))
    raise ValueError(f"entry {index} ({e!r}) is not an exact rational")


def clear_denominators(arr):
    """Return ``(numerators, L)`` with ``arr == numerators / L`` exactly.

    An integer-dtype ``arr`` is returned as it is, with L = 1.  Otherwise
    every entry must be an exact rational (``numbers.Rational``); the first
    one that is not raises ``ValueError``.  ``numerators`` is then an object
    array of Python ints, ``L`` the positive lcm of all reduced denominators.
    """
    if arr.dtype.kind in "iu":
        return arr, 1
    flat = arr.reshape(-1).tolist()
    if not set(map(type, flat)) <= {int, Fraction}:
        flat = [_exact_scalar(index, e) for index, e in enumerate(flat)]
    L = math.lcm(*{e.denominator for e in flat if isinstance(e, Fraction)})
    nums = [e.numerator * (L // e.denominator) if isinstance(e, Fraction)
            else e * L for e in flat]
    return np.array(nums, dtype=object).reshape(arr.shape), L


# ---------------------------------------------------------------------------
# The one int64 overflow rule, limbs, and the exact integer product.
#
# Exact integer arrays are int64 only while an a-priori bound on every
# entry and partial sum of the work ahead, given as a product of factors,
# stays below 2^62 with a 10% margin; otherwise they hold Python ints.
#
# An integer too wide for the work ahead is split into limbs of s bits,
# x = sum_t x_t 2^(s t) (see limbs), so that the work runs on each small
# limb and only the final Horner step x = (... x_top 2^s + ...) 2^s + x_0
# may need Python ints.
#
# An exact product a @ b of integer matrices a[rows, k] and b[k, m] bounds
# every partial sum by k max|a| max|b| and takes one of three paths:
#
# - float64: below 2^53 every partial sum is an integer that binary64 holds
#   exactly, whatever order BLAS sums in, so one float64 product cast to
#   int64 is exact;
# - limbs: above 2^53, b is split into limbs of c bits, with c chosen so
#   that k max|a| 2^c < 2^53.  Each limb takes one exact float64 product,
#   a part of the result; the parts, or what a linear map makes of each,
#   are recombined (combine) in int64 when the rule admits the total, in
#   Python ints otherwise.  This holds whether the entries of b fit int64
#   or not;
# - Python ints: only when the entries of a do not fit int64, or a is too
#   large for a limb of one bit, or b would need more than _MAX_LIMBS limbs.
# ---------------------------------------------------------------------------

_INT64_SAFE = 2**62
_FLOAT64_EXACT_BITS = 53
# exact_product keeps the float64 limbs of b, each as large as b: past this
# many, the Python-int product, which keeps no copy, runs instead.  A limb
# product costs under a hundredth of a Python-int one, so the cap bounds
# memory, not time.
_MAX_LIMBS = 16


def int64_safe(*factors):
    """True when the product of the nonnegative int ``factors`` is a bound
    that int64 arithmetic can carry."""
    return 11 * math.prod(factors) < 10 * _INT64_SAFE


def max_abs(a):
    """Largest absolute entry of an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def int_array(a, *growth):
    """Integer array ``a`` as int64 when the int64 rule admits its entries
    times ``growth``, a bound on how much the work ahead can enlarge them,
    taken as at least 1; otherwise as an object array of Python ints."""
    a = np.asarray(a)
    if int64_safe(max_abs(a), max(1, math.prod(growth))):
        return a.astype(np.int64)
    return a if a.dtype == object else a.astype(object)


def limbs(a, bits, top=None):
    """The limbs of ``bits`` bits (1 to 63) of the integer array ``a``
    (int64 or Python ints), low limb first, as int64 arrays:
    ``a == sum_t limb_t 2^(bits t)``.  The low limbs
    ``(a >> bits t) & (2^bits - 1)`` lie in [0, 2^bits), the top limb
    ``a >> bits (count - 1)``, an arithmetic shift, in [-2^bits, 2^bits),
    with ``count`` as small as these ranges allow for entries up to ``top``
    in absolute value (by default ``max_abs(a)``); a single limb is ``a``
    itself when ``a`` is int64."""
    top = max_abs(a) if top is None else top
    count = max(1, -(-top.bit_length() // bits))
    for t in range(count):
        shifted = a >> (bits * t) if t else a
        if t < count - 1:
            shifted = shifted & ((1 << bits) - 1)
        yield shifted.astype(np.int64, copy=False)


def combine(parts, bits, bound):
    """``sum_t parts[t] 2^(bits t)``, low part first, by Horner from the top:
    int64 when it is one int64 part or the int64 rule admits ``bound``, a
    bound on every partial result, Python ints otherwise."""
    *low, acc = parts
    if low and not int64_safe(bound):
        acc = acc.astype(object)
    for part in reversed(low):
        acc = acc * (1 << bits) + part
    return acc


def exact_parts(b):
    """The exact integer product ``a @ b`` as a function of ``a``, in parts.

    ``b[k, m]`` is an integer matrix (int64 or Python ints), prepared once:
    the returned function takes an integer ``a[rows, k]``, picks its path
    from the bound k max|a| max|b| (see above) and returns ``(parts, bits,
    bound)``, ``a @ b == combine(parts, bits, bound)``: one part on the
    float64 and Python-int paths, one int64 part below 2^53 per limb of b on
    the limb path, and twice that bound.  The float64 limbs of b are cut
    once for the narrowest limb width that a call has needed so far and
    kept by the function as long as it lives: a caller that keeps it cuts
    b again only for an a that needs narrower limbs.
    """
    k = b.shape[0]
    try:
        b = b.astype(np.int64, copy=False)
    except OverflowError:  # an entry does not fit int64
        b = b.astype(object, copy=False)
    bmax = max_abs(b)
    cut = None  # (w, the float64 limbs of w bits of b)

    def product(a):
        nonlocal cut
        a = int_array(a)
        amax = max_abs(a)
        c = _FLOAT64_EXACT_BITS - (k * amax).bit_length()  # k max|a| 2^c < 2^53
        bound = 2 * k * amax * bmax  # of each partial result a @ (b >> c t)
        if a.dtype == object or c < 1 or bmax.bit_length() > _MAX_LIMBS * c:
            return [a.astype(object) @ b.astype(object, copy=False)], 1, bound
        if cut is None or cut[0] > c:
            # limbs of w <= c bits keep k max|a| 2^w below 2^53 for every
            # later block whose c is at least w
            w = max(1, min(c, bmax.bit_length()))
            cut = w, [limb.astype(np.float64) for limb in limbs(b, w, bmax)]
        c, b_limbs = cut
        af = a.astype(np.float64)
        return [(af @ limb).astype(np.int64) for limb in b_limbs], c, bound

    return product


def exact_product(b):
    """``a @ b`` as a function of ``a``: the sum of :func:`exact_parts`."""
    parts = exact_parts(b)
    return lambda a: combine(*parts(a))


def int64_parts(product, *growth):
    """``(parts, bits, bound)`` of :func:`exact_parts` with the same sum,
    for work that grows each part by ``growth``, and ``bound`` times that:
    the parts when the int64 rule admits the work on each; else each split
    into its low ``bits`` bits and the rest, which joins the part above (a
    partial result gains one high part, within ``bound``); else, or for
    Python ints, their sum as one part, as :func:`int_array` takes it."""
    parts, bits, bound = product
    grown = bound * math.prod(growth)
    if parts[0].dtype != object:
        top = max(map(max_abs, parts))
        if int64_safe(top, *growth):
            return parts, bits, grown
        if int64_safe((1 << bits) + (top >> bits), *growth):
            low = [p & ((1 << bits) - 1) for p in parts] + [0]
            high = [0] + [p >> bits for p in parts]
            return [lo + hi for lo, hi in zip(low, high)], bits, grown
    return [int_array(combine(*product), *growth)], bits, grown
