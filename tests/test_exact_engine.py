"""The exact block engine against the per-sample Python-int loops it replaced.

The oracles below draw, contract and pick witnesses one sample at a time,
in Python ints and Fractions, as exact jacobi-orthogonal and polarization
did before their blocks ran through ``linalg.exact_product``.  The
checkers must give the same reports (verdict, worst residual, witness) on
each of the product's three arithmetic paths.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osscheck import (
    build_clifford_family,
    check_jacobi_orthogonal,
    check_polarization,
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    sample_stream,
)
from osscheck.analysis import _exact_orthogonal_pair, _worse
from osscheck.curvature import CurvatureTensor, _jacobi_numerators
from osscheck.linalg import RATIONAL, exact_product, random_int_vector


def _int_vector(n, stream):
    for _ in range(16):
        v = [int(c) for c in stream.integers(-9, 10, size=n)]
        if any(v):
            return v
    raise RuntimeError("degenerate draws")


def _orthogonal_pair(n, stream):
    for _ in range(16):
        x, y = _int_vector(n, stream), _int_vector(n, stream)
        xx, yx = sum(a * a for a in x), sum(a * b for a, b in zip(x, y))
        y = [xx * b - yx * a for a, b in zip(x, y)]
        if any(y):
            return x, y
    raise RuntimeError("degenerate draws")


def _numerators(R, v):
    """Jacobi numerators at the integer vector v, in Python ints."""
    nums, denom = _jacobi_numerators(R, np.array(v, dtype=object))
    assert denom == R.denominator
    return nums.astype(object)


def _mv(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m.tolist()]


def _report(residuals):
    """(verdict, worst, witness) of the sequential witness rule."""
    worst, witness = 0.0, None
    for i, (res, fields) in enumerate(residuals):
        if witness is None or _worse(res, worst):
            worst, witness = res, {"sample": i, **fields}
    return ("pass" if worst == 0 else "fail"), worst, witness


def oracle_jacobi_orthogonal(R, samples, seed):
    def residuals():
        for i in range(samples):
            x, y = _orthogonal_pair(R.dim, sample_stream(seed, i))
            jxy, jyx = _mv(_numerators(R, x), y), _mv(_numerators(R, y), x)
            num = sum(a * b for a, b in zip(jxy, jyx))
            yield abs(Fraction(num, R.denominator**2)), {"x": x, "y": y}
    return _report(residuals())


def oracle_polarization(R, samples, seed):
    def residuals():
        for i in range(samples):
            stream = sample_stream(seed, i)
            x, y = _int_vector(R.dim, stream), _int_vector(R.dim, stream)
            p = [a + b for a, b in zip(x, y)]
            m = [a - b for a, b in zip(x, y)]
            jx, jy, jp, jm = (_numerators(R, v) for v in (x, y, p, m))
            jxy, jyx = _mv(jx, y), _mv(jy, x)
            r1 = [a - 2 * (b - c) for a, b, c in zip(_mv(jp, m), jyx, jxy)]
            r2 = [a - 2 * (b + c) for a, b, c in zip(_mv(jm, p), jyx, jxy)]
            r3 = (jp + jm - 2 * jx - 2 * jy).reshape(-1).tolist()
            worst = max(abs(v) for v in r1 + r2 + r3)
            yield Fraction(worst, R.denominator), {"x": x, "y": y}
    return _report(residuals())


def _assert_same(rep, oracle):
    verdict, worst, witness = oracle
    assert (rep.verdict, rep.worst_residual, rep.witness) == (verdict, worst, witness)
    assert isinstance(rep.worst_residual, Fraction)
    assert all(type(v) is int for v in rep.witness["x"] + rep.witness["y"])


def _clifford(n, m, mu0, mus):
    fam = build_clifford_family(n, m)
    return make_clifford(n, mu0, list(zip(mus, fam.structures)), mode=RATIONAL)


def _small_corpus():
    g = sample_stream(501)
    frac = lambda: Fraction(int(g.integers(-9, 10)), int(g.integers(1, 10)))
    out = [make_constant_curvature(5, Fraction(7, 3), RATIONAL)]
    for n, m in ((4, 3), (8, 7), (16, 8)):
        out.append(_clifford(n, m, frac(), [frac() for _ in range(m)]))
    return out


def _large_corpus():
    # integer weights of 10^15 to 10^16: numerators near 2^55, which fit
    # int64, but no product of them with the draws stays below 2^53
    g = sample_stream(502)
    big = lambda: int(g.integers(10**15, 10**16)) * (1 if g.integers(2) else -1)
    return [_clifford(n, m, big(), [big() for _ in range(m)])
            for n, m in ((4, 3), (8, 7), (16, 8))]


def _controls(scale=1):
    """Rational from-symmetric tensors, neither Jacobi-orthogonal nor
    Osserman, with their numerators times ``scale``."""
    out = []
    for n in (4, 5, 6):
        g = sample_stream(503, n)
        Ss = []
        for _ in range(3):
            a = g.integers(-3, 4, size=(n, n))
            Ss.append(np.array((a + a.T).tolist(), dtype=object))
        R = make_from_symmetric(Ss, [Fraction(1, 2), 2, Fraction(-1, 3)],
                                mode=RATIONAL)
        if scale != 1:
            R = CurvatureTensor._from_numerators(
                R.numerators.astype(object) * scale, R.denominator)
        out.append(R)
    return out


def _unsymmetric(scale=1):
    """Random rational 4-tensors with no symmetry: the polarization
    identities fail on them, as R(X, Y, ., .) = -R(Y, X, ., .) does not
    hold."""
    out = []
    for n in (3, 5):
        g = sample_stream(506, n)
        nums = np.array(g.integers(-50, 51, size=(n,) * 4).tolist(), dtype=object)
        out.append(CurvatureTensor._from_numerators(nums * scale, 7))
    return out


def _huge_corpus():
    # numerators of 2^66 and more times those of a Clifford tensor: past
    # int64, so the product runs on Python ints
    return [CurvatureTensor._from_numerators(R.numerators.astype(object) * 2**66)
            for R in _small_corpus()[1:]]


def _max_draw_product(n):
    """Bound on k max|a| of every block: the rows vec(v v^T) of the
    projected y, whose entries are at most 2 n 81 9, against n^2 columns."""
    return n * n * (2 * n * 81 * 9) ** 2


class TestOracle:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_small_weights_take_the_float64_path(self, seed):
        for R in _small_corpus():
            assert _max_draw_product(R.dim) * R._max_numerator < 2**53
            _assert_same(check_jacobi_orthogonal(R, samples=40, seed=seed),
                         oracle_jacobi_orthogonal(R, 40, seed))
            _assert_same(check_polarization(R, samples=40, seed=seed),
                         oracle_polarization(R, 40, seed))

    def test_large_weights_take_the_limb_path(self):
        for R in _large_corpus():
            assert 2**53 <= R._max_numerator < 2**62
            _assert_same(check_jacobi_orthogonal(R, samples=40, seed=3),
                         oracle_jacobi_orthogonal(R, 40, 3))
            _assert_same(check_polarization(R, samples=20, seed=3),
                         oracle_polarization(R, 20, 3))

    def test_numerators_past_int64_take_python_ints(self):
        for R in _huge_corpus() + _controls(2**70) + _unsymmetric(2**70):
            assert R._max_numerator >= 2**63
            _assert_same(check_jacobi_orthogonal(R, samples=20, seed=4),
                         oracle_jacobi_orthogonal(R, 20, 4))
            _assert_same(check_polarization(R, samples=10, seed=4),
                         oracle_polarization(R, 10, 4))

    def test_rational_controls_fail_with_the_oracle_witness(self):
        for R in _controls():
            rep = check_jacobi_orthogonal(R, samples=60, seed=5)
            assert not rep.passed
            _assert_same(rep, oracle_jacobi_orthogonal(R, 60, 5))
            _assert_same(check_polarization(R, samples=30, seed=5),
                         oracle_polarization(R, 30, 5))
        for R in _unsymmetric():
            rep = check_polarization(R, samples=40, seed=6)
            assert not rep.passed
            _assert_same(rep, oracle_polarization(R, 40, 6))

    def test_int64_draws_equal_the_python_int_draws(self):
        for i in range(200):
            v = random_int_vector(7, sample_stream(504, i))
            assert v.dtype == np.int64
            assert v.tolist() == _int_vector(7, sample_stream(504, i))
            x, y = _exact_orthogonal_pair(7, sample_stream(505, i))
            assert x.dtype == y.dtype == np.int64
            assert (x.tolist(), y.tolist()) == _orthogonal_pair(7, sample_stream(505, i))


@st.composite
def _operands(draw):
    k = draw(st.integers(1, 12))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a_bits, b_bits = draw(st.integers(0, 40)), draw(st.integers(0, 70))
    entry = lambda bits: st.integers(-(2**bits), 2**bits)
    a = draw(st.lists(entry(a_bits), min_size=rows * k, max_size=rows * k))
    b = draw(st.lists(entry(b_bits), min_size=k * cols, max_size=k * cols))
    return (np.array(a, dtype=object).reshape(rows, k),
            np.array(b, dtype=object).reshape(k, cols))


class TestExactProduct:
    @settings(max_examples=300, deadline=None)
    @given(_operands())
    def test_equals_the_python_int_product(self, operands):
        a, b = operands
        want = a @ b
        if all(abs(v) < 2**62 for v in a.reshape(-1).tolist()):
            a = a.astype(np.int64)  # the draws of a block are int64
        got = exact_product(b)(a)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()
        if got.dtype == object:
            assert all(type(v) is int for v in got.reshape(-1).tolist())

    def test_int64_result_only_under_the_rule(self):
        b = np.array([[2**61], [2**61]], dtype=object)
        assert exact_product(b)(np.array([[1, 1]])).dtype == object
        assert exact_product(b // 8)(np.array([[1, 1]])).dtype == np.int64

    @pytest.mark.parametrize("bmax", [2**52 - 1, 2**52, 2**53 - 1, 2**53])
    def test_zero_a_against_b_near_the_float64_limit(self, bmax):
        # a zero a leaves a 53-bit limb: b up to 2^53 - 1 is one limb
        b = np.array([[0], [bmax]], dtype=object)
        for a in (np.zeros((1, 2), dtype=np.int64), np.array([[1, 1]])):
            assert exact_product(b)(a).tolist() == (a.astype(object) @ b).tolist()
