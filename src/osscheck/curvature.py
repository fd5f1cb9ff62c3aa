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
from fractions import Fraction

import numpy as np

from .clifford import CliffordFamily, validate_hurwitz
from .linalg import (
    FLOAT64,
    IDENTITY_TOL,
    RATIONAL,
    UNIT_TOL,
    PreconditionError,
    block_product,
    clear_denominators,
    combine,
    default_tol,
    exact_parts,
    householder_frame,
    int64_safe,
    int_array,
    limbs,
    max_abs,
    require_symmetric,
)
from .report import make_report, residual


def _rounded_quotient(nums, denom, bound):
    """The float64 array ``nums / denom`` of an integer array and a positive
    int, each entry correctly rounded (to +-inf beyond float range);
    ``bound`` bounds its entries."""
    if denom == 1 or (bound <= 2**53 and denom <= 2**53):
        # one rounding: in the conversion when denom is 1, otherwise in the
        # division of two operands that binary64 holds exactly
        try:
            return nums.astype(np.float64) / denom
        except OverflowError:  # an int beyond float range
            pass
    return np.array([_quotient(v, denom) for v in nums.reshape(-1).tolist()],
                    dtype=np.float64).reshape(nums.shape)


def _quotient(p, q):
    """The int ``p / q`` correctly rounded, +-inf beyond float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _exact_matrix(nums, denom):
    """Object array of exact scalars ``nums / denom`` (ints when denom is 1)."""
    m = nums.astype(object)
    return m if denom == 1 else m * Fraction(1, denom)


# The storage layout, shared by both scalar modes.  A tensor keeps its
# scalars (float64 components or integer numerators) as one C-contiguous
# (n^2, n^2) matrix whose row (l, i) and column (j, k) hold R[i, j, k, l],
# so the Jacobi matrices at the rows of X are one product of the rows
# vec(x x^T) with its transpose (see jacobi_matrices).  The
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


def _require_mode(mode):
    """``mode``, or ValueError when it is not one of the two scalar modes."""
    if mode not in (FLOAT64, RATIONAL):
        raise ValueError(f"unknown scalar mode {mode!r}: expected "
                         f"{FLOAT64!r} or {RATIONAL!r}")
    return mode


class CurvatureTensor:
    """Dense rank-4 curvature tensor in the standard orthonormal basis.

    ``components[i, j, k, l] = R(e_i, e_j, e_k, e_l)``.  A float64 tensor
    stores its components.  A rational tensor stores only integer
    ``numerators`` over one common ``denominator``, the lcm of the reduced
    denominators of its components; the numerators are int64 when the int64
    overflow rule admits a sum of max(n, 3) of them, Python ints otherwise,
    and its ``components`` are a read-only view built on each access.  Such
    sums are the only arithmetic on the stored integers themselves: the
    n-entry traces of ``ricci_operator``, ``check_einstein`` and
    ``check_ricci_sum`` and the 2- and 3-entry sums of
    ``validate_symmetries``.  Every exact Jacobi contraction runs through
    :func:`exact_jacobi`, on the parts of ``linalg.exact_parts``, which
    bounds its own sums.  Both modes store their scalars in the one layout
    described above.  Its scalars are immutable after construction, and
    every operation on it returns the same result on every call.  A
    rational tensor whose exact Jacobi product has cut the stored matrix
    into two or more float64 limbs keeps that product, limbs and all, in
    its one mutable slot (see :func:`exact_jacobi`): at most
    ``linalg._MAX_LIMBS`` float64 copies of the matrix, which die with the
    tensor.  It can be held weakly: the spectral store of ``analysis`` dies
    with its tensor.
    """

    __slots__ = ("dim", "mode", "provenance", "denominator", "_matrix",
                 "_max_numerator", "_limb_product", "__weakref__")

    def __init__(self, dim, mode, components, provenance=""):
        """``components`` is a float64 array, or in rational mode an object
        array of exact scalars (ints or Fractions)."""
        if components.shape != (dim,) * 4:
            raise ValueError("components must be an n^4 array")
        if _require_mode(mode) == RATIONAL:
            if components.dtype != object:
                raise ValueError("rational mode requires object components")
            self._set_exact(*clear_denominators(components), provenance)
            return
        if components.dtype != np.float64:
            raise ValueError("float64 mode requires float64 components")
        components.setflags(write=False)
        self._set(dim=dim, mode=mode, provenance=provenance, denominator=None,
                  _matrix=_as_matrix(components), _max_numerator=None,
                  _limb_product=None)

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
            flat = nums.ravel(order="K")  # a view of a stored-order array
            g = math.gcd(L, *(flat.tolist() if nums.dtype == object
                              else [int(np.gcd.reduce(flat))]))
            if g != 1:
                nums, L = nums.astype(object) // g, L // g
        # int_array(nums, max(dim, 3)), with max_abs taken once: room for
        # the sums of stored entries that the class docstring names
        top = max_abs(nums)
        nums = (nums.astype(np.int64, copy=False) if int64_safe(top, max(dim, 3))
                else nums.astype(object, copy=False))
        self._set(dim=dim, mode=RATIONAL, provenance=provenance, denominator=L,
                  _matrix=_as_matrix(nums), _max_numerator=top,
                  _limb_product=None)

    def _set(self, **fields):
        for key, value in fields.items():
            object.__setattr__(self, key, value)

    def __setattr__(self, *args):
        raise AttributeError("CurvatureTensor is immutable")

    __delattr__ = __setattr__

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
        comp = _rounded_quotient(self._matrix, self.denominator,
                                 self._max_numerator)
        return CurvatureTensor(self.dim, FLOAT64, _as_tensor(comp, self.dim),
                               self.provenance)

    def scaled(self, c) -> "CurvatureTensor":
        """``c`` times this tensor: in rational mode its numerators times the
        numerator p of ``c``, in int64 when the int64 rule admits their
        product, over its denominator times that of ``c``."""
        provenance = f"scaled({c})*{self.provenance}"
        if self.mode == FLOAT64:
            return CurvatureTensor(self.dim, FLOAT64,
                                   self.components * float(c), provenance)
        c = Fraction(c)
        p = c.numerator if self._max_numerator else 0  # a zero tensor stays int64
        return CurvatureTensor._from_numerators(
            int_array(self.numerators, abs(p)) * p,
            self.denominator * c.denominator, provenance)


def _check_vector(R, x):
    x = np.asarray(x)
    if x.shape != (R.dim,):
        raise ValueError(f"vector has shape {x.shape}, expected ({R.dim},)")
    return x


def _jacobi_numerators(R: CurvatureTensor, x):
    """Exact Jacobi matrix of a rational tensor at the exact vector ``x``,
    as ``(numerators, denominator)``: the one-row case of
    :func:`exact_jacobi` at the integer numerators of ``x``."""
    xn, Lx = clear_denominators(np.asarray(x, dtype=object))
    (nums,) = exact_jacobi(R)(xn[None], lambda j: (j,))
    return nums[0], R.denominator * Lx * Lx


def jacobi_matrix(R: CurvatureTensor, x):
    """Matrix of the Jacobi operator J_x: M[w, i] = R(e_i, x, x, e_w).

    Exact scalars in rational mode (``x`` must then hold exact rationals),
    float64 otherwise: the row of ``x`` in :func:`jacobi_matrices`.
    """
    x = _check_vector(R, x)
    if R.mode == RATIONAL:
        return _exact_matrix(*_jacobi_numerators(R, x))
    return jacobi_matrices(R, x[None])[0]


def jacobi_matrices(R: CurvatureTensor, X):
    """Float Jacobi matrices at the rows of ``X[S, n]``, shape (S, n, n):
    the rows vec(x x^T) times the stored matrix of R, in fixed-shape blocks
    (:func:`linalg.block_product`)."""
    n, Rf = R.dim, R.to_float()
    X = np.asarray(X, dtype=np.float64)
    outer = (X[:, :, None] * X[:, None, :]).reshape(-1, n * n)
    return block_product(outer, Rf._matrix.T).reshape(-1, n, n)


def exact_jacobi(R: CurvatureTensor):
    """``apply(V, contract, *growth)``: the tuple ``contract(J)``, exactly,
    for J[S, n, n] the numerators over ``R.denominator`` of the Jacobi
    matrices of a rational tensor at the integer rows of ``V[S, n]``.  The
    linear ``contract``, which enlarges J by at most ``growth``, runs on
    each part of one exact product of the rows vec(v v^T) with the stored
    matrix of R (:func:`linalg.exact_parts`), in int64 where the int64 rule
    admits it, and each of its results is summed over the parts
    (:func:`linalg.combine`).

    The first product that cuts the stored matrix into two or more float64
    limbs is kept on R, with its limbs, and serves every later call, which
    cuts again only for a narrower limb width.  A product of one limb is a
    dtype conversion of the matrix, made once per ``exact_jacobi`` and not
    kept.
    """
    n = R.dim
    product = R._limb_product or exact_parts(R._matrix.T)

    def apply(V, contract, *growth):
        outer = (V[:, :, None] * V[:, None, :]).reshape(-1, n * n)
        parts, bits = product(outer, *growth)
        if R._max_numerator >> bits:  # the matrix is cut into two or more limbs
            R._set(_limb_product=product)
        done = [contract(p.reshape(-1, n, n)) for p in parts]
        return tuple(combine(results, bits) for results in zip(*done))

    return apply


def _first_slot(R: CurvatureTensor):
    """The scalars of a float64 tensor rearranged to rows i and columns
    (k, j, l): for the rows of X, ``X @ _first_slot(R)`` holds
    t[s, k, j, l] = R(x_s, e_j, e_k, e_l), R contracted with x_s in its
    first slot, and J_y x_s is ``y @ (y @ t[s])``."""
    n = R.dim
    return np.ascontiguousarray(
        R._matrix.reshape((n,) * 4).transpose(1, 3, 2, 0)).reshape(n, n**3)


def reduced_jacobi(R: CurvatureTensor, x):
    """Matrix ``[..., n-1, n-1]`` of J_x on x-perp at the unit vector
    ``x[n]``, or each row of ``x[S, n]``, in ``householder_frame(x)``."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.abs(np.linalg.norm(x, axis=-1) - 1.0) <= UNIT_TOL):
        raise PreconditionError("reduced_jacobi requires a unit base vector")
    frame = householder_frame(x)
    full = jacobi_matrices(R, x.reshape(-1, R.dim)).reshape(x.shape + (R.dim,))
    red = np.swapaxes(frame, -1, -2) @ full @ frame
    return 0.5 * (red + np.swapaxes(red, -1, -2))


def ricci_operator(R: CurvatureTensor):
    """Ricci operator: Ric[w, y] = sum_i R(e_y, e_i, e_i, e_w)."""
    t = np.trace(_as_tensor(R._matrix, R.dim), axis1=1, axis2=2)  # t[y, w]
    return _exact_matrix(t.T, R.denominator) if R.mode == RATIONAL else t.T


def validate_symmetries(R: CurvatureTensor, *, tol=None):
    """Check the Z2 symmetries and the first Bianchi identity of R."""
    tol = default_tol(tol, R.mode)
    c, per_family = _as_tensor(R._matrix, R.dim), {}
    # c plus its transposes (minus, for pair_interchange); each family is
    # reduced to its worst entry as soon as it is formed
    for name, axes in (("skew_first_pair", [(1, 0, 2, 3)]),
                       ("skew_last_pair", [(0, 1, 3, 2)]),
                       ("pair_interchange", [(2, 3, 0, 1)]),
                       ("first_bianchi", [(1, 2, 0, 3), (2, 0, 1, 3)])):
        op, v = np.subtract if name == "pair_interchange" else np.add, c
        for a in axes:
            v = op(v, c.transpose(a), out=None if v is c else v)
        per_family[name] = (residual(max_abs(v), over=R.denominator)
                            if R.mode == RATIONAL else residual(np.abs(v, out=v).max()))
    worst = np.max(list(per_family.values()))  # a NaN family stays worst
    witness = {"residual_by_family": per_family}
    return make_report("symmetries", worst, witness, samples=R.dim**4, seed=0,
                       tol=tol, mode=R.mode, provenance=R.provenance)


# ---------------------------------------------------------------------------
# Constructors.  R1, R^S and R^J are each a rule quadratic in one square
# matrix M: a check of M and a table of signed index permutations of the
# Gram tensor G[a, b, c, d] = M[a, b] M[c, d], each index of G a letter of
# the stored order [l, i, j, k].  So a weighted sum of them is read off one
# Gram tensor sum_t w_t vec(M_t) vec(M_t)^T (_generated).
# ---------------------------------------------------------------------------

def _require_skew(J):
    """``J``, or ValueError when it is not skew-adjoint: exactly for integer
    and object matrices, in float to IDENTITY_TOL relative to its largest
    entry, which must be finite."""
    if J.dtype == object or J.dtype.kind in "iu":
        if np.any(J != -J.T):
            raise ValueError("J is not skew-adjoint (exact check)")
    elif not (float(np.abs(J + J.T).max())
              <= IDENTITY_TOL * max(1.0, float(np.abs(J).max())) < np.inf):
        raise ValueError("J is not skew-adjoint beyond tolerance")
    return J


# R^S[i,j,k,l] = S[l,i] S[k,j] - S[k,i] S[l,j] for a symmetric S
_SPANNING = (require_symmetric, (("likj", 1), ("kilj", -1)))
# R^J[i,j,k,l] = J[k,i] J[l,j] - J[k,j] J[l,i] + 2 J[j,i] J[l,k] for a skew J
_RJ = (_require_skew, (("kilj", 1), ("kjli", -1), ("jilk", 2)))


def _read_off(table, G, n, out=None):
    """The n^4 array sum_t sign_t G[letters_t] in the stored order, of a
    rule's ``table`` and a Gram tensor ``G`` of n^4 entries indexed
    [a, b, c, d], summed term by term into ``out`` when it is given."""
    G, scratch = G.reshape((n,) * 4), None
    for letters, sign in table:
        term = G.transpose([letters.index(c) for c in "lijk"])
        if out is None:
            out = np.multiply(term, sign, order="C")
        else:  # through one scratch array: no temporary per term
            scratch = np.multiply(term, abs(sign), out=scratch, order="C")
            (np.add if sign > 0 else np.subtract)(out, scratch, out=out)
    return out


def _float_matrix(M):
    """``M`` as a float64 array, or ValueError naming an entry beyond float
    range or one that is not finite."""
    M = np.asarray(M)
    if M.dtype == object:
        for index, e in np.ndenumerate(M):
            try:
                float(e)
            except OverflowError:
                raise ValueError(f"entry {index} is beyond float range") from None
    M = M.astype(np.float64, copy=False)
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        raise ValueError(f"entry {tuple(bad[0].tolist())} is not finite")
    return M


def _generated(weights, terms, mode, provenance="") -> CurvatureTensor:
    """sum_t w_t rule_t(M_t) for the (rule, M_t) pairs ``terms`` of n x n
    matrices, each checked by its rule: the float64 M_t in float64 mode, its
    integer numerators N_t = L_t M_t in rational mode.

    In float64 mode each term is read off the outer product of M_t (by
    np.einsum, which gives a zero product as +0.0), scaled by float(w_t)
    and added to the sum of the terms before it.  In rational mode the
    terms of one rule are read off one Gram
    tensor G = A^T diag(c) A, where the rows of A are the vec(N_t) and c
    the integer weights of the N_t over one denominator, or one limb of them
    (_exact_sum picks int64, limbs or Python ints).  G is the sum
    (linalg.combine) of the parts of one linalg.exact_parts product with
    the wide side c A on the right: a float64 product, or one per float64
    limb of c A, and Python ints only when A or c A is too wide for that.
    """
    n, exact = len(terms[0][1]), _require_mode(mode) == RATIONAL
    cleared = [(rule, *(clear_denominators(np.asarray(M)) if exact
                        else (_float_matrix(M), 1))) for rule, M in terms]
    for (check, _), N, _ in cleared:
        if N.shape != (n, n):
            raise ValueError(f"every matrix must be {n} x {n}")
        check(int_array(N) if exact else N)
    if not exact:
        acc = None
        for w, ((_, table), M, _) in zip(weights, cleared):
            term = _read_off(table, np.einsum("ab,cd->abcd", M, M), n) * float(w)
            acc = term if acc is None else acc + term
        return CurvatureTensor(n, FLOAT64, _as_tensor(acc, n), provenance)
    groups = {}  # each rule once: its terms, and the int stack A of their N_t
    for rule in dict.fromkeys(rule for rule, _ in terms):
        ts = [t for t, (r, _) in enumerate(terms) if r == rule]
        groups[rule] = ts, int_array(np.stack([cleared[t][1].reshape(-1)
                                               for t in ts]))

    def term_sum(cs, dtype):
        acc = None
        for (_, table), (ts, A) in groups.items():
            c = int_array(np.array([cs[t] for t in ts], dtype=object)[:, None],
                          max_abs(A))
            G = combine(*exact_parts(c * A)(A.T)).astype(dtype, copy=False)
            acc = _read_off(table, G, n, acc)
        return _as_tensor(acc, n)

    tops = [sum(abs(s) for _, s in table) * max_abs(N) ** 2
            for (_, table), N, _ in cleared]
    return CurvatureTensor._from_numerators(*_exact_sum(
        weights, [L * L for *_, L in cleared], tops, term_sum), provenance)


def _exact_sum(weights, denominators, tops, term_sum):
    """``(numerators, L)`` of sum_i w_i X_i / d_i over the common
    denominator L, for rational weights w_i, positive int denominators d_i
    and integer terms |X_i| <= ``tops[i]``: the exact weighted sum of
    _generated, whose X_i are rules read off Gram tensors.

    Over L the numerators are sum_i c_i X_i for integer c_i, which
    ``term_sum(cs, dtype)`` computes in the integer dtype it is given.  When
    the bound sum_i |c_i| tops_i passes the int64 rule, the sum runs in
    int64.  Otherwise the c_i are split into s-bit limbs (linalg.limbs), with
    sum_i tops_i 2^s < 2^61 (so every X_i is int64): each limb's sum runs in
    int64, and only their sum (linalg.combine) may take Python ints, two passes
    over the entries per limb, so with more limbs than terms, or no s >= 1,
    the sum runs in Python ints.
    """
    ws = [Fraction(w) for w in weights]
    L = math.lcm(*(w.denominator * d for w, d in zip(ws, denominators)))
    # a zero term adds nothing, whatever its weight
    coeffs = [w.numerator * (L // (w.denominator * d)) if top else 0
              for w, d, top in zip(ws, denominators, tops)]
    s = 61 - sum(tops).bit_length()  # sum(tops) 2^s < 2^61, which the rule admits
    width = max(abs(c) for c in coeffs).bit_length()
    total = sum(abs(c) * top for c, top in zip(coeffs, tops))
    if int64_safe(total):
        return term_sum(coeffs, np.int64), L
    if s < 1 or width > s * len(coeffs):
        return term_sum(coeffs, object), L
    rows = limbs(np.array(coeffs, dtype=object), s)
    return combine([term_sum(row.tolist(), np.int64) for row in rows], s), L


def make_constant_curvature(n, kappa, mode=FLOAT64) -> CurvatureTensor:
    """Constant sectional curvature kappa: J_X Y = kappa (eps_X Y - g(Y,X) X)."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return _generated([kappa], [(_SPANNING, np.eye(n, dtype=np.int64))], mode,
                      f"constant(n={n}, kappa={kappa})")


def _rj_matrix(J, mode):
    """``J`` as an array; in rational mode a float J must hold integers,
    which it is converted to exactly."""
    J = np.asarray(J)
    if _require_mode(mode) == RATIONAL and J.dtype.kind == "f":
        if not (np.isfinite(J).all() and (J == np.trunc(J)).all()):
            raise ValueError("rational mode needs exact (integer/Fraction) J")
        J = np.frompyfunc(int, 1, 1)(J)
    return J


def make_rj(J, mode=FLOAT64) -> CurvatureTensor:
    """Tensor generated by a skew-adjoint endomorphism J; in rational mode J
    holds exact rationals, or floats that are integers."""
    J = _rj_matrix(J, mode)
    return _generated([1], [(_RJ, J)], mode, f"rj(n={J.shape[0]})")


def make_clifford(n, mu0, terms, mode=RATIONAL) -> CurvatureTensor:
    """Clifford combination mu0 R1 + sum_i mu_i R^{J_i}.

    ``terms`` is a list of (mu_i, J_i) pairs; the J_i must form a valid
    Clifford family, which is checked.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    mus = [mu for mu, _ in terms]
    Js = [np.asarray(J) for _, J in terms]
    if Js:
        rep = validate_hurwitz(CliffordFamily(n, tuple(Js)))
        if not rep.passed:
            raise PreconditionError(
                f"not a valid Clifford family: worst residual {rep.worst_residual}")
    return _generated([mu0, *mus], [(_SPANNING, np.eye(n, dtype=np.int64)),
                                    *((_RJ, _rj_matrix(J, mode)) for J in Js)],
                      mode, _clifford_provenance(n, mu0, mus, Js))


def _clifford_provenance(n, mu0, mus, Js):
    fam = [np.asarray(J).tolist() for J in Js]
    def fmt(x):
        return str(Fraction(x)) if isinstance(x, (int, Fraction)) else repr(x)
    # an exact entry that JSON has no number for is spelled as its Fraction
    return (f"clifford(n={n}; mu0={fmt(mu0)}; mu=[{', '.join(fmt(m) for m in mus)}]; "
            f"family={json.dumps(fam, default=lambda v: str(Fraction(v)))})")


def make_from_symmetric(S_list, coeffs, mode=FLOAT64, n=None) -> CurvatureTensor:
    """Spanning generator: sum_t c_t (g(SX,W)g(SY,Z) - g(SX,Z)g(SY,W)); in
    rational mode a float S stands for its exact binary value."""
    _require_mode(mode)
    if len(S_list) != len(coeffs):
        raise ValueError("one coefficient per matrix required")
    if not S_list:
        if n is None:
            raise ValueError("empty generator list needs an explicit dimension")
        return _generated([0], [(_SPANNING, np.zeros((n, n), dtype=np.int64))],
                          mode, "from_symmetric(empty)")
    Ss = [np.asarray(S) for S in S_list]
    if mode == RATIONAL:
        if any(S.dtype.kind == "f" and not np.isfinite(S).all() for S in Ss):
            raise ValueError("rational mode needs finite S: an entry is not finite")
        Ss = [np.frompyfunc(Fraction, 1, 1)(S) if S.dtype.kind == "f" else S
              for S in Ss]
    return _generated(coeffs, [(_SPANNING, S) for S in Ss], mode,
                      f"from_symmetric(n={len(Ss[0])}, terms={len(Ss)})")


def random_generators(n, k_terms, stream):
    """``(Ss, cs)``: k_terms symmetric float matrices (a + a^T) / 2 of
    standard normal a, each with a standard normal weight."""
    Ss, cs = [], []
    for _ in range(k_terms):
        a = stream.standard_normal((n, n))
        Ss.append(0.5 * (a + a.T))
        cs.append(float(stream.standard_normal()))
    return Ss, cs


def random_curvature(n, k_terms, stream) -> CurvatureTensor:
    """Seeded random tensor from random symmetric generators (float mode).

    Valid by construction; generically non-Osserman (negative control).
    """
    if n < 2 or k_terms < 1:
        raise ValueError("need n >= 2 and k_terms >= 1")
    Ss, cs = random_generators(n, k_terms, stream)
    return _generated(cs, [(_SPANNING, S) for S in Ss], FLOAT64,
                      f"random(n={n}, k_terms={k_terms})")
