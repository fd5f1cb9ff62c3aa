"""Anti-commuting families of skew-adjoint complex structures.

Canonical families are built from tensor products of the 2x2 blocks

    A = [[0, -1], [1, 0]]   (rotation, skew)
    B = [[1, 0], [0, -1]]   (reflection, symmetric)
    C = [[0, 1], [1, 0]]    (swap, symmetric)

with quaternion left/right multiplications supplying the commutant elements
needed to reach the maximal rank in dimension 8.  All entries are integers,
so the Hurwitz relations hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import IDENTITY_TOL
from .report import make_report, residual

_A = np.array([[0, -1], [1, 0]], dtype=np.int64)
_B = np.array([[1, 0], [0, -1]], dtype=np.int64)
_C = np.array([[0, 1], [1, 0]], dtype=np.int64)


def radon_hurwitz_bound(n: int) -> int:
    """Maximal rank of a Clifford family on R^n.

    Write n = 2^(4a+b) * odd with 0 <= b <= 3; the bound is 8a + 2^b - 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    a, b = divmod(v, 4)
    return 8 * a + 2**b - 1


@dataclass(frozen=True)
class CliffordFamily:
    """Skew-adjoint complex structures satisfying the Hurwitz relations."""

    dim: int
    structures: tuple

    def __post_init__(self):
        for J in self.structures:
            if np.asarray(J).shape != (self.dim, self.dim):
                raise ValueError("family matrices must be dim x dim")


# Quaternion multiplication table on the basis (1, i, j, k).
_QUAT = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _quat_mult_matrix(q, side):
    """Matrix of x -> q*x ("left") or x -> x*q ("right") on R^4."""
    m = np.zeros((4, 4), dtype=np.int64)
    for c in range(4):
        s, r = _QUAT[(q, c)] if side == "left" else _QUAT[(c, q)]
        m[r, c] = s
    return m


def _maximal_families():
    """The canonical maximal family on R^d for each d in {2, 4, 8, 16}, as
    read-only arrays."""
    left = [_quat_mult_matrix(q, "left") for q in (1, 2, 3)]
    right = [_quat_mult_matrix(q, "right") for q in (1, 2, 3)]
    fams = {2: [_A.copy()], 4: left}
    fams[8] = ([np.kron(_B, J) for J in left]
               + [np.kron(_A, np.eye(4, dtype=np.int64))]
               + [np.kron(_C, L) for L in right])
    fams[16] = ([np.kron(_B, J) for J in fams[8]]
                + [np.kron(_A, np.eye(8, dtype=np.int64))])
    for fam in fams.values():
        for J in fam:
            J.flags.writeable = False
    return {d: tuple(fam) for d, fam in fams.items()}


# constants, built once at import
_MAXIMAL_FAMILIES = _maximal_families()


def _maximal_family(d):
    """The canonical maximal family on R^d for d in {2, 4, 8, 16}."""
    return _MAXIMAL_FAMILIES[d]


def _minimal_dimension(m):
    for d in (2, 4, 8, 16):
        if radon_hurwitz_bound(d) >= m:
            return d
    raise ValueError(f"rank {m} families need dimension > 16")


def build_clifford_family(n, m) -> CliffordFamily:
    """Canonical integer Clifford family of rank m on R^n, deterministic
    for fixed (n, m)."""
    bound = radon_hurwitz_bound(n)
    if not 1 <= m <= bound:
        raise ValueError(
            f"rank {m} exceeds Radon-Hurwitz bound {bound} for n={n}")
    d = _minimal_dimension(m)
    assert n % d == 0, "bound check guarantees divisibility"
    eye = np.eye(n // d, dtype=np.int64)
    return CliffordFamily(n, tuple(J.copy() if n == d else np.kron(eye, J)
                                   for J in _maximal_family(d)[:m]))


def validate_hurwitz(family: CliffordFamily):
    """Worst residual over skewness, J^2 + id, and all anticommutators."""
    Js = [np.asarray(J) for J in family.structures]
    exact = all(J.dtype == object or np.issubdtype(J.dtype, np.integer)
                for J in Js)
    tol = 0 if exact else IDENTITY_TOL
    eye = np.eye(family.dim, dtype=np.int64 if exact else np.float64)
    # every product J_i J_j in one stacked product: P[i, j] = J_i J_j
    m, A = len(Js), np.array(Js).reshape(len(Js), family.dim, family.dim)
    P = A[:, None] @ A[None]
    skew = np.abs(A + A.transpose(0, 2, 1)).max(axis=(1, 2))
    square = np.abs(P[range(m), range(m)] + eye).max(axis=(1, 2))
    anti = np.abs(P + P.transpose(1, 0, 2, 3)).max(axis=(2, 3))
    skew, square, anti = (a if exact else residual(a) for a in (skew, square, anti))
    per_check = {}
    for i in range(m):
        per_check[f"skew[{i}]"], per_check[f"square[{i}]"] = skew[i], square[i]
    for i in range(m):
        for j in range(i + 1, m):
            per_check[f"anticommute[{i},{j}]"] = anti[i, j]
    worst = np.max(list(per_check.values())) if per_check else 0  # NaN first
    return make_report("hurwitz", residual(worst, over=1) if exact else worst,
                       {"residual_by_check": per_check}, samples=len(per_check),
                       seed=0, tol=tol,
                       mode="rational" if exact else "float64")
