"""Reference computations that the tests compare the library against."""

import numpy as np


def eval_tensor(R, X, Y, Z, W):
    """R(X, Y, Z, W): the full contraction of the components, the oracle of
    the stored layout and of the Jacobi contractions."""
    c = R.components
    if c.dtype == object:
        for v in (X, Y, Z):
            c = np.tensordot(c, np.asarray(v), axes=([0], [0]))
        return c.dot(np.asarray(W))
    return float(np.einsum("ijkl,i,j,k,l->", c, X, Y, Z, W))
