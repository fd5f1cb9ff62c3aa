"""Reference computations that the tests compare the library against."""

import math
from fractions import Fraction

import numpy as np

from osscheck.curvature import CurvatureTensor
from osscheck.linalg import clear_denominators, int_array, max_abs


def eval_tensor(R, X, Y, Z, W):
    """R(X, Y, Z, W): the full contraction of the components, the oracle of
    the stored layout and of the Jacobi contractions."""
    c = R.components
    if c.dtype == object:
        for v in (X, Y, Z):
            c = np.tensordot(c, np.asarray(v), axes=([0], [0]))
        return c.dot(np.asarray(W))
    return float(np.einsum("ijkl,i,j,k,l->", c, X, Y, Z, W))


def jacobi_numerators(R, x):
    """``(numerators, denominator)`` of the exact Jacobi matrix of a
    rational tensor at the exact vector ``x``: the stored matrix times
    vec(x x^T), in Python ints, for the integer numerators of ``x``."""
    xn, Lx = clear_denominators(np.asarray(x, dtype=object))
    nums = R._matrix.astype(object) @ np.outer(xn, xn).reshape(-1)
    return nums.reshape(R.dim, R.dim), R.denominator * Lx * Lx


def ricci(c):
    """Ric[w, y] = sum_i c[y, i, i, w] of an object array of exact
    components, each entry one Python sum."""
    n = c.shape[0]
    return np.array([[sum(c[y, i, i, w] for i in range(n)) for y in range(n)]
                     for w in range(n)], dtype=object)


def symmetry_residuals(c):
    """The largest absolute residual of each family that
    ``validate_symmetries`` reports, summed in exact arithmetic on an object
    array of components."""
    n = c.shape[0]
    sums = {"skew_first_pair": lambda i, j, k, l: c[i, j, k, l] + c[j, i, k, l],
            "skew_last_pair": lambda i, j, k, l: c[i, j, k, l] + c[i, j, l, k],
            "pair_interchange": lambda i, j, k, l: c[i, j, k, l] - c[k, l, i, j],
            "first_bianchi": lambda i, j, k, l: (c[i, j, k, l] + c[j, k, i, l]
                                                 + c[k, i, j, l])}
    return {name: max(abs(f(*ix)) for ix in np.ndindex(*(n,) * 4))
            for name, f in sums.items()}


def weighted_sum(weights, tensors):
    """sum_i w_i T_i of rational tensors, in Python ints over the lcm of the
    denominators of the w_i T_i."""
    ws = [Fraction(w) for w in weights]
    dens = [w.denominator * T.denominator for w, T in zip(ws, tensors)]
    L = math.lcm(*dens)
    nums = sum(T.numerators.astype(object) * (w.numerator * (L // d))
               for w, T, d in zip(ws, tensors, dens))
    return CurvatureTensor._from_numerators(nums, L)


def spanning_rule(S):
    """R^S[i,j,k,l] = S[l,i] S[k,j] - S[k,i] S[l,j], by einsum."""
    return np.einsum("li,kj->ijkl", S, S) - np.einsum("ki,lj->ijkl", S, S)


def rj_rule(J):
    """R^J[i,j,k,l] = J[k,i]J[l,j] - J[k,j]J[l,i] + 2 J[j,i]J[l,k], by
    einsum."""
    return (np.einsum("ki,lj->ijkl", J, J) - np.einsum("kj,li->ijkl", J, J)
            + 2 * np.einsum("ji,lk->ijkl", J, J))


def generated(rule, M):
    """The rational tensor ``rule(M)`` of one generator, built on its own:
    the rule applied by einsum to the integer numerators N of M (in int64
    when the int64 rule admits four products of two entries), over L^2."""
    N, L = clear_denominators(np.asarray(M))
    return CurvatureTensor._from_numerators(rule(int_array(N, 4, max_abs(N))),
                                           L * L)


def keyed_stream(seed, index):
    """Sample ``index``'s generator of the run keyed by ``seed``: a fresh
    Philox with the key index + 2^64 seed, both words taken mod 2^64."""
    key = np.array([index % 2**64, seed % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Per-sample draws, one stream call and one np.linalg.norm at a time: the
# definitions that the block fillers of the sampling engine must reproduce
# bit for bit.

def unit_vector(n, stream):
    """A standard normal vector scaled by its norm twice, drawn again while
    its norm is at most 1e-6."""
    for _ in range(16):
        v = stream.standard_normal(n)
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            v = v / nv
            return v / np.linalg.norm(v)
    raise RuntimeError("degenerate draws")


def int_vector(n, stream):
    """Integers in [-9, 9] as Python ints, drawn again while all zero."""
    for _ in range(16):
        v = [int(c) for c in stream.integers(-9, 10, size=n)]
        if any(v):
            return v
    raise RuntimeError("degenerate draws")


def orthogonal_int_pair(n, stream):
    """x and y, n integers in [-9, 9] each, as Python ints, with y replaced
    by (x.x) y - (y.x) x; the whole pair drawn again while that is zero."""
    for _ in range(16):
        x, y = ([int(c) for c in stream.integers(-9, 10, size=n)] for _ in range(2))
        xx, yx = sum(a * a for a in x), sum(a * b for a, b in zip(x, y))
        y = [xx * b - yx * a for a, b in zip(x, y)]
        if any(y):
            return x, y
    raise RuntimeError("degenerate draws")


# Not a draw of the library: an orthonormal pair for tests of identities at
# X perpendicular to Y.

def orthonormal_pair(n, stream):
    """Two standard normal vectors, orthonormalised by modified Gram-Schmidt
    with two passes, drawn again while one is within 1e-12 of dependent."""
    for _ in range(16):
        out = []
        for v in (stream.standard_normal(n), stream.standard_normal(n)):
            w = v.copy()
            for _ in range(2):
                for u in out:
                    w -= u.dot(w) * u
            nw = np.linalg.norm(w)
            if nw <= 1e-12 * max(1.0, np.linalg.norm(v)):
                break
            out.append(w / nw)
        if len(out) == 2:
            return tuple(out)
    raise RuntimeError("degenerate draws")
