"""Dense linear algebra over two scalar modes: binary64 and exact rationals.

Float-mode quantities live in ordinary ``float64`` numpy arrays.  Exact
integer work runs on int64 arrays when :func:`int64_safe` proves that it
cannot overflow, and on ``dtype=object`` arrays of Python ints otherwise;
exact scalars are :class:`fractions.Fraction` or int.  All spectral
operations are float-only; identity checks may run in either mode.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT64 = "float64"
RATIONAL = "rational"

# Default tolerances.  Safe for dims <= 16 with well separated spectra.
IDENTITY_TOL = 1e-9
DEP_TOL = 1e-12
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
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.dtype == object:
        if np.any(m != m.T):
            raise ValueError("matrix is not symmetric (rational mode, exact)")
        return m
    scale = max(1.0, float(np.abs(m).max()))
    worst = float(np.abs(m - m.T).max())
    if worst > SYM_TOL * scale:
        raise ValueError(f"matrix is not symmetric: residual {worst:.3e}")
    return m


def gram_schmidt(vs):
    """Orthonormalize a list of float vectors (modified Gram-Schmidt, two passes)."""
    out = []
    for v in vs:
        w = np.asarray(v, dtype=np.float64).copy()
        for _ in range(2):  # re-orthogonalize for 1e-14 level orthogonality
            for u in out:
                w -= u.dot(w) * u
        nw = np.linalg.norm(w)
        if nw <= DEP_TOL * max(1.0, np.linalg.norm(v)):
            raise ValueError("gram_schmidt: linearly dependent input")
        out.append(w / nw)
    return out


def cluster_eigenvalues(values, cluster_tol):
    """Greedy left-to-right clustering of a sorted value list.

    A value joins the current cluster iff it lies within ``cluster_tol`` of
    the cluster's running mean; centers are the cluster means.
    """
    centers, mults = [], []
    for v in values:
        if centers and abs(v - centers[-1]) <= cluster_tol:
            mults[-1] += 1
            centers[-1] += (v - centers[-1]) / mults[-1]
        else:
            centers.append(v if isinstance(v, Fraction) else float(v))
            mults.append(1)
    return centers, mults


def default_cluster_tol(values):
    """Spec'd default: 1e-6 times the spectral diameter (1 if nearly zero)."""
    if len(values) == 0:
        return 1e-6
    diam = float(max(values)) - float(min(values))
    return 1e-6 * (diam if diam >= 1e-12 else 1.0)


@dataclass(frozen=True)
class SpectralData:
    """Clustered spectrum of a self-adjoint operator.

    ``eigenvalues`` are the distinct clustered centers in ascending order,
    ``multiplicities`` the cluster sizes, and ``eigenbasis`` an orthonormal
    matrix whose columns are grouped to match the clusters.  ``raw`` keeps
    the unclustered ascending eigenvalues.
    """

    eigenvalues: tuple
    multiplicities: tuple
    eigenbasis: np.ndarray
    raw: np.ndarray

    def eigenspace(self, index):
        """Columns of the eigenbasis spanning cluster ``index``."""
        start = sum(self.multiplicities[:index])
        return self.eigenbasis[:, start : start + self.multiplicities[index]]


def eigvalsh(m):
    """Ascending eigenvalues of a symmetric float matrix; all NaN when an
    entry is not finite, on which LAPACK does not converge."""
    if not np.isfinite(m).all():
        return np.full(m.shape[0], np.nan)
    return np.linalg.eigvalsh(m)


def eigh(m, cluster_tol=None):
    """Self-adjoint eigensolver (float mode only).  A matrix with an entry
    that is not finite has NaN eigenvalues and a NaN eigenbasis."""
    m = np.asarray(m)
    if m.dtype == object:
        raise PreconditionError("eigh is float-only; eigenvalues are irrational in general")
    require_symmetric(m)
    if not np.isfinite(m).all():
        vals, vecs = np.full(m.shape[0], np.nan), np.full(m.shape, np.nan)
    else:
        vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(vals)
    centers, mults = cluster_eigenvalues(list(vals), cluster_tol)
    return SpectralData(tuple(centers), tuple(mults), vecs, vals)


# ---------------------------------------------------------------------------
# Seeded randomness.
#
# Counter-based generator: Philox4x64 with the 128-bit key
# seed * 2**64 + sample_index.  Per-sample streams are therefore independent
# of the degree of parallelism: sample i always sees the same stream.
# ---------------------------------------------------------------------------

_KEY_MASK = (1 << 64) - 1


def sample_stream(seed, index=0):
    """Generator for sample ``index`` of the run keyed by ``seed`` (Philox)."""
    key = ((int(seed) & _KEY_MASK) << 64) | (int(index) & _KEY_MASK)
    return np.random.Generator(np.random.Philox(key=key))


_MAX_RETRIES = 16


def random_unit_vector(n, stream):
    if n < 1:
        raise ValueError("n must be >= 1")
    for _ in range(_MAX_RETRIES):
        v = stream.standard_normal(n)
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            v = v / nv
            return v / np.linalg.norm(v)
    raise RuntimeError("random_unit_vector: degenerate draws")


def random_orthonormal_pair(n, stream):
    if n < 2:
        raise ValueError("n must be >= 2 for an orthonormal pair")
    for _ in range(_MAX_RETRIES):
        a = stream.standard_normal(n)
        b = stream.standard_normal(n)
        try:
            x, y = gram_schmidt([a, b])
        except ValueError:
            continue
        return x, y
    raise RuntimeError("random_orthonormal_pair: degenerate draws")


def random_orthogonal_matrix(n, stream):
    """Haar-ish random orthogonal matrix via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(stream.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_int_vector(n, stream):
    """Nonzero vector of integers in [-9, 9] (integers are exact rationals)."""
    for _ in range(_MAX_RETRIES):
        v = stream.integers(-9, 10, size=n)
        if np.any(v != 0):
            return np.array([int(c) for c in v], dtype=object)
    raise RuntimeError("random_int_vector: degenerate draws")


def _exact_scalar(index, e):
    """Entry ``index`` of an array as an int or a Fraction, or ValueError."""
    if isinstance(e, (int, Fraction)):
        return e
    if isinstance(e, numbers.Rational):  # numpy integers, among others
        return Fraction(int(e.numerator), int(e.denominator))
    raise ValueError(f"entry {index} ({e!r}) is not an exact rational")


def clear_denominators(arr):
    """Return ``(numerators, L)`` with ``arr == numerators / L`` exactly.

    Every entry must be an exact rational (``numbers.Rational``); the first
    one that is not raises ``ValueError``.  ``numerators`` is an object array
    of Python ints, ``L`` the positive lcm of all reduced denominators (1 for
    integer input).
    """
    flat = arr.reshape(-1).tolist()
    if not set(map(type, flat)) <= {int, Fraction}:
        flat = [_exact_scalar(index, e) for index, e in enumerate(flat)]
    L = math.lcm(*{e.denominator for e in flat if isinstance(e, Fraction)})
    nums = [e.numerator * (L // e.denominator) if isinstance(e, Fraction)
            else e * L for e in flat]
    return np.array(nums, dtype=object).reshape(arr.shape), L


# ---------------------------------------------------------------------------
# The one int64 overflow rule.
#
# Exact integer arrays are int64 only while an a-priori bound on every
# entry and partial sum of the work ahead, given as a product of factors,
# stays below 2^62 with a 10% margin; otherwise they hold Python ints.
# ---------------------------------------------------------------------------

_INT64_SAFE = 2**62


def int64_safe(*factors):
    """True when the product of the nonnegative int ``factors`` is a bound
    that int64 arithmetic can carry."""
    return 11 * math.prod(factors) < 10 * _INT64_SAFE


def max_abs(a):
    """Largest absolute entry of an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def int_array(a, *growth):
    """Integer array ``a`` as int64 when ``int64_safe(max_abs(a), *growth)``,
    otherwise as an object array of Python ints.  ``growth`` bounds how much
    the work ahead can enlarge the entries."""
    a = np.asarray(a)
    if int64_safe(max_abs(a), *growth):
        return a.astype(np.int64)
    return a if a.dtype == object else a.astype(object)
