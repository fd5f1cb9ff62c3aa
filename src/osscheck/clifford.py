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
from .report import make_report

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

    @property
    def rank(self):
        return len(self.structures)


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


def _maximal_family(d):
    """The canonical maximal family on R^d for d in {2, 4, 8, 16}."""
    if d == 2:
        return [_A]
    if d == 4:
        return [_quat_mult_matrix(q, "left") for q in (1, 2, 3)]
    if d == 8:
        left = _maximal_family(4)
        right = [_quat_mult_matrix(q, "right") for q in (1, 2, 3)]
        fam = [np.kron(_B, J) for J in left]
        fam.append(np.kron(_A, np.eye(4, dtype=np.int64)))
        fam.extend(np.kron(_C, L) for L in right)
        return fam
    if d == 16:
        fam = [np.kron(_B, J) for J in _maximal_family(8)]
        fam.append(np.kron(_A, np.eye(8, dtype=np.int64)))
        return fam
    raise ValueError(f"no canonical family in dimension {d}")


def _minimal_dimension(m):
    for d in (2, 4, 8, 16):
        if radon_hurwitz_bound(d) >= m:
            return d
    raise ValueError(f"rank {m} families need dimension > 16")


def build_clifford_family(n, m, stream=None) -> CliffordFamily:
    """Canonical integer Clifford family of rank m on R^n.

    Deterministic for fixed (n, m).  Pass a stream to conjugate the whole
    family by a random orthogonal matrix (float entries; relations then hold
    to roundoff instead of exactly).
    """
    bound = radon_hurwitz_bound(n)
    if not 1 <= m <= bound:
        raise ValueError(
            f"rank {m} exceeds Radon-Hurwitz bound {bound} for n={n}")
    d = _minimal_dimension(m)
    assert n % d == 0, "bound check guarantees divisibility"
    reps = n // d
    structures = []
    for J in _maximal_family(d)[:m]:
        big = np.kron(np.eye(reps, dtype=np.int64), J)
        structures.append(big)
    if stream is not None:
        from .linalg import random_orthogonal_matrix

        q = random_orthogonal_matrix(n, stream)
        structures = [q @ J @ q.T for J in structures]
    return CliffordFamily(n, tuple(structures))


def validate_hurwitz(family: CliffordFamily):
    """Worst residual over skewness, J^2 + id, and all anticommutators."""
    Js = [np.asarray(J) for J in family.structures]
    exact = all(J.dtype == object or np.issubdtype(J.dtype, np.integer)
                for J in Js)
    tol = 0 if exact else IDENTITY_TOL
    eye = np.eye(family.dim, dtype=np.int64)
    if not exact:
        eye = eye.astype(np.float64)
    per_check = {}
    for i, J in enumerate(Js):
        per_check[f"skew[{i}]"] = np.abs(J + J.T).max()
        per_check[f"square[{i}]"] = np.abs(J @ J + eye).max()
    for i in range(len(Js)):
        for j in range(i + 1, len(Js)):
            per_check[f"anticommute[{i},{j}]"] = np.abs(
                Js[i] @ Js[j] + Js[j] @ Js[i]).max()
    worst = max(per_check.values()) if per_check else 0
    return make_report("hurwitz", worst, {"residual_by_check": per_check},
                       samples=len(per_check), seed=0, tol=tol,
                       mode="rational" if exact else "float64")
