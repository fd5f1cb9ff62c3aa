"""Reference computations that the tests compare the library against."""

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
