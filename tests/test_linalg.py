from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osscheck.linalg import (
    PreconditionError,
    _norms,
    charpoly,
    cluster_rows,
    default_cluster_tol,
    eigh,
    householder_frame,
    int64_safe,
    int_array,
    random_int_vector,
    random_unit_vector,
    require_symmetric,
    sample_stream,
    sample_streams,
)
from oracles import keyed_stream, unit_vector


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestInt64Rule:
    def test_bound_keeps_a_ten_percent_margin(self):
        largest = (10 * 2**62 - 1) // 11
        assert int64_safe(largest) and not int64_safe(largest + 1)
        assert int64_safe(2**30, 16, 16) and not int64_safe(2**62)

    def test_int_array_falls_back_to_python_ints(self):
        small = int_array(np.array([3, -2**40], dtype=object), 2**21)
        assert small.dtype == np.int64 and small.tolist() == [3, -2**40]
        big = int_array(np.array([3, -2**40], dtype=np.int64), 2**22)
        assert big.dtype == object and type(big[1]) is int
        assert (big * 2**40).tolist() == [3 * 2**40, -2**80]


def clusters(values, cluster_tol):
    """:func:`cluster_rows` of one sorted value list, as the lists
    ``(centers, multiplicities)`` of its clusters."""
    _, centers, mults = cluster_rows(np.asarray(values, dtype=np.float64)[None],
                                     cluster_tol)
    k = int(np.count_nonzero(mults[0]))
    return centers[0, :k].tolist(), mults[0, :k].tolist()


class TestEigh:
    def test_identity(self):
        vals, _ = eigh(np.eye(3))
        assert clusters(vals, default_cluster_tol(vals)) == ([1.0], [3])

    def test_diag(self):
        vals, _ = eigh(np.diag([2.0, -1.0]))
        assert clusters(vals, default_cluster_tol(vals)) == ([-1.0, 2.0], [1, 1])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # one nonsymmetric matrix of a stack is enough
        with pytest.raises(ValueError):
            eigh(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))

    def test_a_nan_matrix_is_not_symmetric(self):
        # a NaN residual is never within the tolerance; eigh zeroes such a
        # matrix before it checks symmetry
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(np.full((3, 3), np.nan))

    def test_an_infinite_entry_is_not_symmetric(self):
        # the tolerance is relative to the largest entry, which must be
        # finite: an infinite one admitted any asymmetry
        with pytest.raises(ValueError, match="not symmetric"):
            require_symmetric(np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_rejects_rational(self):
        with pytest.raises(PreconditionError):
            eigh(np.array([[Fraction(1), Fraction(0)],
                           [Fraction(0), Fraction(2)]], dtype=object))

    @pytest.mark.parametrize("n", [2, 5, 17, 32])
    def test_reconstruction(self, n):
        g = sample_stream(7, n)
        a = g.standard_normal((n, n))
        m = 0.5 * (a + a.T)
        lam, q = eigh(m)
        recon = q @ np.diag(lam) @ q.T
        scale = np.abs(m).max()
        assert np.abs(recon - m).max() <= 1e-12 * max(scale, 1.0)
        assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-10
        for i in range(n):
            assert np.linalg.norm(m @ q[:, i] - lam[i] * q[:, i]) <= 1e-10 * max(scale, 1.0)
        # a stack is decomposed matrix by matrix, a non-finite one as NaN
        bad = m.copy()
        bad[0, -1] = bad[-1, 0] = np.inf
        vals, vecs = eigh(np.stack([m, bad, m]))
        assert np.array_equal(vals[0], lam) and np.array_equal(vecs[2], q)
        assert np.isnan(vals[1]).all() and np.isnan(vecs[1]).all()


class TestClusterEigenvalues:
    def test_near_duplicates(self):
        centers, mults = clusters([1.0, 1.0 + 1e-12, 4.0], 1e-9)
        assert mults == [2, 1]
        assert abs(centers[0] - 1.0) < 1e-12 and centers[1] == 4.0

    def test_singleton(self):
        assert clusters([5.0], 0.1) == ([5.0], [1])

    def test_running_mean_rule(self):
        # hand-run of the greedy rule on the spec example
        centers, mults = clusters([0.9999, 1.0001, 1.9], 1e-3)
        assert mults == [2, 1]
        assert abs(centers[0] - 1.0) <= 1e-12
        assert centers[1] == 1.9

    def test_empty(self):
        assert clusters([], 1.0) == ([], [])

    def test_default_tol(self):
        assert default_cluster_tol([1.0, 4.0]) == pytest.approx(3e-6)
        assert default_cluster_tol([2.0, 2.0]) == pytest.approx(1e-6)


class TestRandomness:
    def test_n1_is_sign(self):
        v = random_unit_vector(1, sample_stream(0, 0))
        assert abs(abs(v[0]) - 1.0) < 1e-15

    def test_determinism(self):
        a = random_unit_vector(4, sample_stream(5, 9))
        b = random_unit_vector(4, sample_stream(5, 9))
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = random_unit_vector(4, sample_stream(5, 0))
        b = random_unit_vector(4, sample_stream(5, 1))
        assert not np.allclose(a, b)

    def test_unit_norm(self):
        for i in range(50):
            v = random_unit_vector(8, sample_stream(1, i))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14

    def test_unit_vector_equals_the_per_sample_oracle(self):
        for n in range(1, 20):
            for i in range(30):
                got = random_unit_vector(n, sample_stream(n, i))
                want = unit_vector(n, sample_stream(n, i))
                assert got.shape == (n,) and got.tobytes() == want.tobytes()

    def test_row_norms_are_the_bits_of_np_linalg_norm(self):
        for n in range(1, 46):
            v = sample_stream(8, n).standard_normal((33, n))
            want = [np.linalg.norm(row.copy()) for row in v]
            assert _norms(v).tobytes() == np.array(want).tobytes()

    def test_int_vector_nonzero(self):
        v = random_int_vector(6, sample_stream(3, 0))
        assert any(c != 0 for c in v)

    def test_rekeyed_streams_equal_sample_stream(self):
        # seeds and indices are masked to 64 bits: 2**64 + 5 keys like 5
        seeds = [0, 1, 7, 2**63, 2**64 - 1, 2**64, 2**64 + 5, -1, -(2**70)]
        indices = [0, 1, 2, 31, 32, 1000, 2**63, 2**64 - 1, 2**64 + 3, -4]
        for seed in seeds:
            for i, stream in zip(indices, sample_streams(seed, indices)):
                # an odd count of 32-bit draws leaves half a word buffered,
                # which the next key must not inherit
                draws = [(g.integers(0, 2**32, size=3, dtype=np.uint32),
                          g.integers(0, 5, size=3, dtype=np.int32),
                          g.standard_normal(7),
                          g.choice(455, size=40, replace=False))
                         for g in (stream, sample_stream(seed, i),
                                   keyed_stream(seed, i))]
                for a, b, c in zip(*draws):
                    assert np.array_equal(a, c) and np.array_equal(b, c), (seed, i)


@given(st.tuples(*(st.integers(-10**6, 10**6) for _ in range(2)),
                 *(st.integers(1, 10**6) for _ in range(2)),
                 st.integers(-10**6, 10**6), st.integers(1, 10**6)))
@settings(max_examples=1000, deadline=None)
def test_rational_arithmetic_exact(args):
    # cross-multiplication oracle: a/b + c/d == (ad + cb) / bd, exactly
    a, c, b, d, p, q = args
    x, y = Fraction(a, b), Fraction(c, d)
    assert x + y == Fraction(a * d + c * b, b * d)
    assert x * y == Fraction(a * c, b * d)
    z = Fraction(p, q)
    if z != 0:
        assert (x / z) * z == x
    assert x - y == Fraction(a * d - c * b, b * d)


class TestSpectralHelpers:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_householder_frame_is_an_orthonormal_complement(self, n):
        rng = np.random.default_rng(n)
        xs = rng.standard_normal((6, n))
        xs[1, 0] = 0.0                      # x_0 = 0: the sign convention
        xs = np.vstack([xs / np.linalg.norm(xs, axis=1)[:, None],
                        e(0, n), -e(0, n), e(n - 1, n)])
        frames = householder_frame(xs)
        assert frames.shape == (len(xs), n, n - 1)
        for x, f in zip(xs, frames):
            assert np.abs(f.T @ f - np.eye(n - 1)).max() <= 1e-14
            assert np.abs(x @ f).max() <= 1e-14
            assert np.array_equal(householder_frame(x), f)

    def test_charpoly_matches_np_poly(self):
        rng = np.random.default_rng(4)
        for n in range(1, 17):
            roots = rng.standard_normal((10, n)) * rng.choice([1e-3, 1.0, 30.0])
            for r, got in zip(roots, charpoly(roots)):
                want = np.poly(r)
                assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())

    def test_cluster_rows_is_the_greedy_rule_per_row(self):
        rng = np.random.default_rng(6)
        vals = np.sort(rng.integers(0, 5, (40, 9)) + 1e-9 * rng.random((40, 9)), axis=1)
        vals[3] = np.nan
        tol = default_cluster_tol(vals)
        labels, centers, mults = cluster_rows(vals, tol)
        for row, t, lab, c, m in zip(vals, tol, labels, centers, mults):
            want_c, want_m = [], []   # the greedy running-mean rule, by hand
            for v in row:
                if want_c and abs(v - want_c[-1]) <= t:
                    want_m[-1] += 1
                    want_c[-1] += (v - want_c[-1]) / want_m[-1]
                else:
                    want_c.append(float(v))
                    want_m.append(1)
            k = len(want_m)
            assert m[:k].tolist() == want_m and not m[k:].any()
            assert np.array_equal(c[:k], want_c, equal_nan=True)
            assert np.array_equal(np.bincount(lab), want_m)
