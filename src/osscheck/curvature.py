"""Curvature tensors on a scalar product space and their Jacobi operators.

Sign convention (re-derived, the master sign oracle of the repo): the unit
constant-curvature tensor is

    R1(X, Y, Z, W) = g(X, W) g(Y, Z) - g(X, Z) g(Y, W),

and the Jacobi operator is read off through g(J_X Y, W) = R(Y, X, X, W).
With these choices R1 gives J_X Y = eps_X Y - g(Y, X) X, and for a
skew-adjoint complex structure J the generated tensor R^J gives
J_X Y = -3 g(Y, JX) JX, i.e. exactly the mu_0 and mu_i terms of the Clifford
Jacobi operator.  Changing either sign breaks that match.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import CliffordFamily, validate_hurwitz
from .linalg import (
    FLOAT64,
    IDENTITY_TOL,
    RATIONAL,
    UNIT_TOL,
    PreconditionError,
    clear_denominators,
    default_tol,
    int64_safe,
    int_array,
    max_abs,
    require_symmetric,
)
from .report import make_report


def _exact_matrix(nums, denom):
    """Object array of exact scalars ``nums / denom`` (ints when denom is 1)."""
    m = nums.astype(object)
    return m if denom == 1 else m * Fraction(1, denom)


# The storage layout, shared by both scalar modes.  A tensor keeps its
# scalars (float64 components or integer numerators) as one C-contiguous
# (n^2, n^2) matrix whose row (l, i) and column (j, k) hold R[i, j, k, l],
# so the Jacobi operator is one matrix-vector product (see _jacobi).  The
# constructors build R1, R^J and R^S in this memory order, and elementwise
# numpy operations on the [i, j, k, l] view keep it, so sums, scalings and
# dtype conversions of stored tensors reach _as_matrix already laid out and
# are not copied again.

def _as_matrix(t):
    """Stored matrix of the four-index array ``t[i, j, k, l]``, read-only;
    a copy only when ``t`` is not a view of one in this layout."""
    n = t.shape[0]
    m = np.ascontiguousarray(t.transpose(3, 0, 1, 2)).reshape(n * n, n * n)
    m.setflags(write=False)
    return m


def _as_tensor(m, n):
    """The ``[i, j, k, l]`` view of a C-contiguous array in the stored order:
    a stored matrix, or an n^4 array indexed ``[l, i, j, k]``."""
    return m.reshape((n,) * 4).transpose(1, 2, 3, 0)


def _jacobi(m, x):
    """M[w, i] = sum_jk R[i, j, k, w] x_j x_k: the stored matrix times
    vec(x x^T), in float or integer arithmetic alike."""
    n = x.shape[0]
    return (m @ np.outer(x, x).reshape(-1)).reshape(n, n)


class CurvatureTensor:
    """Dense rank-4 curvature tensor in the standard orthonormal basis.

    ``components[i, j, k, l] = R(e_i, e_j, e_k, e_l)``.  A float64 tensor
    stores its components.  A rational tensor stores only integer
    ``numerators`` over one common ``denominator``, the lcm of the reduced
    denominators of its components; the numerators are int64 when the int64
    overflow rule admits a Jacobi contraction against a unit-size integer
    vector, Python ints otherwise, and its ``components`` are a read-only
    view built on each access.  Both modes store their scalars in the one
    layout described above.  Immutable after construction; all operations
    on it are pure.
    """

    __slots__ = ("dim", "mode", "provenance", "denominator", "_matrix",
                 "_max_numerator")

    def __init__(self, dim, mode, components, provenance=""):
        """``components`` is a float64 array, or in rational mode an object
        array of exact scalars (ints or Fractions)."""
        if components.shape != (dim,) * 4:
            raise ValueError("components must be an n^4 array")
        if mode == RATIONAL:
            if components.dtype != object:
                raise ValueError("rational mode requires object components")
            self._set_exact(*clear_denominators(components), provenance)
            return
        if mode == FLOAT64 and components.dtype != np.float64:
            raise ValueError("float64 mode requires float64 components")
        components.setflags(write=False)
        self._set(dim=dim, mode=mode, provenance=provenance, denominator=None,
                  _matrix=_as_matrix(components), _max_numerator=None)

    @classmethod
    def _from_numerators(cls, numerators, denominator=1, provenance=""):
        """Rational tensor ``numerators / denominator`` from an n^4 integer
        array (int64 or Python ints) and a positive int."""
        self = cls.__new__(cls)
        self._set_exact(np.asarray(numerators), int(denominator), provenance)
        return self

    def _set_exact(self, nums, L, provenance):
        dim = nums.shape[0]
        if nums.shape != (dim,) * 4:
            raise ValueError("numerators must be an n^4 array")
        if L != 1:
            g = math.gcd(L, *nums.reshape(-1).tolist())
            if g != 1:
                nums, L = nums.astype(object) // g, L // g
        m = _as_matrix(int_array(nums, dim, dim))
        self._set(dim=dim, mode=RATIONAL, provenance=provenance, denominator=L,
                  _matrix=m, _max_numerator=max_abs(m))

    def _set(self, **fields):
        for key, value in fields.items():
            object.__setattr__(self, key, value)

    def __setattr__(self, key, value):
        raise AttributeError("CurvatureTensor is immutable")

    @property
    def numerators(self):
        """Integer numerators ``[i, j, k, l]`` of a rational tensor, read-only
        (None for a float64 tensor)."""
        return _as_tensor(self._matrix, self.dim) if self.mode == RATIONAL else None

    @property
    def components(self):
        stored = _as_tensor(self._matrix, self.dim)
        if self.mode == FLOAT64:
            return stored
        view = _exact_matrix(stored, self.denominator)
        view.setflags(write=False)
        return view

    def to_float(self) -> "CurvatureTensor":
        """The float64 tensor whose components are the correctly rounded
        exact ones."""
        if self.mode == FLOAT64:
            return self
        m, L = self._matrix, self.denominator
        if L == 1 or (self._max_numerator <= 2**53 and L <= 2**53):
            # one rounding: in the conversion when L is 1, otherwise in the
            # division of two operands that binary64 holds exactly
            comp = m.astype(np.float64) / L
        else:
            comp = np.array([v / L for v in m.reshape(-1).tolist()],
                            dtype=np.float64).reshape(m.shape)
        return CurvatureTensor(self.dim, FLOAT64, _as_tensor(comp, self.dim),
                               self.provenance)

    def scaled(self, c) -> "CurvatureTensor":
        return _combine([c], [self], self.mode, f"scaled({c})*{self.provenance}")


def _check_vector(R, x):
    x = np.asarray(x)
    if x.shape != (R.dim,):
        raise ValueError(f"vector has shape {x.shape}, expected ({R.dim},)")
    return x


def eval_tensor(R: CurvatureTensor, X, Y, Z, W):
    """R(X, Y, Z, W): full contraction of the components."""
    X, Y, Z, W = (_check_vector(R, v) for v in (X, Y, Z, W))
    c = R.components
    if c.dtype == object:
        t = np.tensordot(c, X, axes=([0], [0]))
        t = np.tensordot(t, Y, axes=([0], [0]))
        t = np.tensordot(t, Z, axes=([0], [0]))
        return t.dot(W)
    return float(np.einsum("ijkl,i,j,k,l->", c, X, Y, Z, W))


def _jacobi_numerators(R: CurvatureTensor, x):
    """Exact Jacobi matrix of a rational tensor at the exact vector ``x``,
    as ``(numerators, denominator)``.

    ``numerators / denominator`` equals the Jacobi matrix exactly; the
    numerator array is int64 when the int64 overflow rule admits the
    contraction, otherwise an object array of Python ints.
    """
    xn, Lx = clear_denominators(np.asarray(x, dtype=object))
    n, m = R.dim, R._matrix
    xmax = max_abs(xn)
    if m.dtype == np.int64 and int64_safe(R._max_numerator, n, n, xmax, xmax):
        xn = xn.astype(np.int64)
    else:
        m = m.astype(object, copy=False)
    return _jacobi(m, xn), R.denominator * Lx * Lx


def jacobi_matrix(R: CurvatureTensor, x):
    """Matrix of the Jacobi operator J_x: M[w, i] = R(e_i, x, x, e_w).

    Exact scalars in rational mode (``x`` must then hold exact rationals),
    float64 otherwise.
    """
    x = _check_vector(R, x)
    if R.mode == RATIONAL:
        return _exact_matrix(*_jacobi_numerators(R, x))
    return _jacobi(R._matrix, x.astype(np.float64, copy=False))


def _first_slot(R: CurvatureTensor, x):
    """t[w, j, k] = R(x, e_j, e_k, e_w) for a float64 tensor: one batched
    matrix-vector product on the stored matrix.  J_y x is then
    ``t.reshape(n, n * n) @ vec(y y^T)``."""
    n = R.dim
    return (x @ R._matrix.reshape(n, n, n * n)).reshape(n, n, n)


def _complement_frame(x):
    """Deterministic orthonormal basis of x-perp (float), columns of shape (n, n-1)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    m = np.empty((n, n + 1))
    m[:, 0] = x
    m[:, 1:] = np.eye(n)
    q, _ = np.linalg.qr(m)
    return q[:, 1:]


@dataclass(frozen=True)
class ReducedJacobi:
    """Jacobi operator restricted to base-perp, in an orthonormal frame."""

    base: np.ndarray
    frame: np.ndarray   # (n, n-1), orthonormal columns spanning base-perp
    matrix: np.ndarray  # (n-1, n-1)


def reduced_jacobi(R: CurvatureTensor, x) -> ReducedJacobi:
    x = np.asarray(x, dtype=np.float64)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_TOL:
        raise PreconditionError("reduced_jacobi requires a unit base vector")
    frame = _complement_frame(x)
    full = jacobi_matrix(R.to_float(), x)
    red = frame.T @ full @ frame
    return ReducedJacobi(x, frame, 0.5 * (red + red.T))


def ricci_operator(R: CurvatureTensor):
    """Ricci operator: Ric[w, y] = sum_i R(e_y, e_i, e_i, e_w)."""
    t = np.trace(_as_tensor(R._matrix, R.dim), axis1=1, axis2=2)  # t[y, w]
    return _exact_matrix(t.T, R.denominator) if R.mode == RATIONAL else t.T


def validate_symmetries(R: CurvatureTensor, *, tol=None):
    """Check the Z2 symmetries and the first Bianchi identity of R."""
    tol = default_tol(tol, R.mode)
    c = _as_tensor(R._matrix, R.dim)
    res = {
        "skew_first_pair": c + c.transpose(1, 0, 2, 3),
        "skew_last_pair": c + c.transpose(0, 1, 3, 2),
        "pair_interchange": c - c.transpose(2, 3, 0, 1),
        "first_bianchi": c + c.transpose(1, 2, 0, 3) + c.transpose(2, 0, 1, 3),
    }
    if R.mode == RATIONAL:
        per_family = {k: Fraction(max_abs(v), R.denominator) for k, v in res.items()}
    else:
        per_family = {k: np.abs(v).max() for k, v in res.items()}
    worst = np.max(list(per_family.values()))  # a NaN family stays worst
    witness = {"residual_by_family": per_family}
    return make_report("symmetries", worst, witness, samples=R.dim**4, seed=0,
                       tol=tol, mode=R.mode, provenance=R.provenance)


# ---------------------------------------------------------------------------
# Constructors.
# ---------------------------------------------------------------------------

def _r1(n) -> CurvatureTensor:
    """The unit constant-curvature tensor R1 (rational)."""
    eye = np.eye(n, dtype=np.int64)
    lijk = (np.einsum("il,jk->lijk", eye, eye, order="C")
            - np.einsum("ik,jl->lijk", eye, eye, order="C"))
    return CurvatureTensor._from_numerators(_as_tensor(lijk, n))


def _combine(weights, tensors, mode, provenance) -> CurvatureTensor:
    """sum_i w_i T_i in ``mode``; exact in rational mode."""
    if mode == FLOAT64:
        acc = tensors[0].to_float().components * float(weights[0])
        for w, T in zip(weights[1:], tensors[1:]):
            acc = acc + T.to_float().components * float(w)
        return CurvatureTensor(acc.shape[0], FLOAT64, acc, provenance)
    ws = [Fraction(w) for w in weights]
    L = math.lcm(*(w.denominator * T.denominator for w, T in zip(ws, tensors)))
    coeffs = [w.numerator * (L // (w.denominator * T.denominator))
              for w, T in zip(ws, tensors)]
    bound = sum(abs(c) * T._max_numerator for c, T in zip(coeffs, tensors))
    dtype = np.int64 if int64_safe(bound) else object
    acc = sum(c * T.numerators.astype(dtype) for c, T in zip(coeffs, tensors))
    return CurvatureTensor._from_numerators(acc, L, provenance)


def make_constant_curvature(n, kappa, mode=FLOAT64) -> CurvatureTensor:
    """Constant sectional curvature kappa: J_X Y = kappa (eps_X Y - g(Y,X) X)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return _combine([kappa], [_r1(n)], mode, f"constant(n={n}, kappa={kappa})")


def _require_skew(J):
    J = np.asarray(J)
    if J.dtype == object or np.issubdtype(J.dtype, np.integer):
        if np.any(J != -J.T):
            raise ValueError("J is not skew-adjoint (exact check)")
    elif (float(np.abs(J + J.T).max())
          > IDENTITY_TOL * max(1.0, float(np.abs(J).max()))):
        raise ValueError("J is not skew-adjoint beyond tolerance")
    return J


def _rj_components(J):
    """R^J[i,j,k,l] = J[k,i]J[l,j] - J[k,j]J[l,i] + 2 J[j,i]J[l,k], built
    in the stored order."""
    Jt = J.T
    lijk = (np.einsum("ik,jl->lijk", Jt, Jt, order="C")
            - np.einsum("jk,il->lijk", Jt, Jt, order="C")
            + 2 * np.einsum("ij,kl->lijk", Jt, Jt, order="C"))
    return _as_tensor(lijk, J.shape[0])


def make_rj(J, mode=FLOAT64) -> CurvatureTensor:
    """Tensor generated by a skew-adjoint endomorphism J."""
    J = _require_skew(J)
    n = J.shape[0]
    prov = f"rj(n={n})"
    if mode == FLOAT64:
        comp = _rj_components(np.asarray(J, dtype=np.float64))
        return CurvatureTensor(n, mode, comp, prov)
    if J.dtype == object:
        return CurvatureTensor(n, mode, _rj_components(J), prov)
    Ji = np.asarray(J, dtype=np.int64)
    if not np.array_equal(np.asarray(J, dtype=np.float64), Ji.astype(np.float64)):
        raise ValueError("rational mode needs exact (integer/Fraction) J")
    # entries of R^J are sums of three products of two entries of J
    Ji = int_array(Ji, 4, max_abs(Ji))
    return CurvatureTensor._from_numerators(_rj_components(Ji), 1, prov)


def make_clifford(n, mu0, terms, mode=RATIONAL, validate=True) -> CurvatureTensor:
    """Clifford combination mu0 R1 + sum_i mu_i R^{J_i}.

    ``terms`` is a list of (mu_i, J_i) pairs; the J_i must form a valid
    Clifford family (checked unless ``validate=False``).
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    mus = [mu for mu, _ in terms]
    Js = [np.asarray(J) for _, J in terms]
    if validate and Js:
        rep = validate_hurwitz(CliffordFamily(n, tuple(Js)))
        if not rep.passed:
            raise PreconditionError(
                f"not a valid Clifford family: worst residual {rep.worst_residual}")
    return _combine([mu0, *mus], [_r1(n), *(make_rj(J, mode) for J in Js)],
                    mode, _clifford_provenance(n, mu0, mus, Js))


def _clifford_provenance(n, mu0, mus, Js):
    fam = [np.asarray(J).tolist() for J in Js]
    def fmt(x):
        return str(Fraction(x)) if isinstance(x, (int, Fraction)) else repr(x)
    return (f"clifford(n={n}; mu0={fmt(mu0)}; mu=[{', '.join(fmt(m) for m in mus)}]; "
            f"family={json.dumps(fam)})")


def make_from_symmetric(S_list, coeffs, mode=FLOAT64, n=None) -> CurvatureTensor:
    """Spanning generator: sum_t c_t (g(SX,W)g(SY,Z) - g(SX,Z)g(SY,W))."""
    if len(S_list) != len(coeffs):
        raise ValueError("one coefficient per matrix required")
    if not S_list:
        if n is None:
            raise ValueError("empty generator list needs an explicit dimension")
        zero = CurvatureTensor._from_numerators(np.zeros((n,) * 4, dtype=np.int64),
                                               1, "from_symmetric(empty)")
        return zero if mode == RATIONAL else zero.to_float()
    acc = None
    for S, c in zip(S_list, coeffs):
        S = np.asarray(S)
        require_symmetric(S)
        if mode == RATIONAL and S.dtype != object:
            S = np.array([[Fraction(v) for v in row] for row in S.tolist()],
                         dtype=object)
        elif mode == FLOAT64:
            S = np.asarray(S, dtype=np.float64)
        # R^S[i,j,k,l] = S[l,i] S[k,j] - S[k,i] S[l,j], in the stored order
        term = _as_tensor(np.einsum("li,kj->lijk", S, S, order="C")
                          - np.einsum("ki,lj->lijk", S, S, order="C"), S.shape[0])
        cc = Fraction(c) if mode == RATIONAL else float(c)
        acc = term * cc if acc is None else acc + term * cc
    nn = acc.shape[0]
    return CurvatureTensor(nn, mode, acc,
                           f"from_symmetric(n={nn}, terms={len(S_list)})")


def random_curvature(n, k_terms, stream) -> CurvatureTensor:
    """Seeded random tensor from random symmetric generators (float mode).

    Valid by construction; generically non-Osserman (negative control).
    """
    if n < 2 or k_terms < 1:
        raise ValueError("need n >= 2 and k_terms >= 1")
    Ss, cs = [], []
    for _ in range(k_terms):
        a = stream.standard_normal((n, n))
        Ss.append(0.5 * (a + a.T))
        cs.append(float(stream.standard_normal()))
    R = make_from_symmetric(Ss, cs, mode=FLOAT64)
    return CurvatureTensor(n, FLOAT64, R.components,
                           f"random(n={n}, k_terms={k_terms})")
