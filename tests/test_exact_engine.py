"""The exact block engine against the per-sample Python-int loops it replaced.

The oracles below draw, contract and pick witnesses one sample at a time,
in Python ints and Fractions, as exact jacobi-orthogonal and polarization
did before their blocks ran through ``linalg.exact_product``.  The
checkers must give the same reports (verdict, worst residual, witness) on
each of the product's three arithmetic paths.
"""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from osscheck import (
    build_clifford_family,
    check_jacobi_orthogonal,
    check_polarization,
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    radon_hurwitz_bound,
    sample_stream,
)
from osscheck import analysis, curvature, linalg
from osscheck.analysis import _worse
from osscheck.curvature import (
    CurvatureTensor,
    _jacobi_numerators,
    jacobi_matrix,
)
from osscheck.linalg import (
    _MAX_LIMBS,
    RATIONAL,
    Field,
    combine,
    exact_parts,
    exact_product,
    int64_parts,
    int64_safe,
    limbs,
    max_abs,
    random_int_vector,
)
from oracles import (
    eval_tensor,
    generated,
    jacobi_numerators,
    rj_rule,
    spanning_rule,
    weighted_sum,
)
from oracles import int_vector as _int_vector
from oracles import orthogonal_int_pair as _orthogonal_pair


def _numerators(R, v):
    """Jacobi numerators at the integer vector v, in Python ints."""
    nums, denom = jacobi_numerators(R, v)
    assert denom == R.denominator
    return nums


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


def _zero_corpus():
    # int64, whatever the draws: a zero tensor bounds every product by 0
    return [make_from_symmetric([], [], RATIONAL, n=4)]


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
            x, y = Field.orthogonal_int_pair(7).one(sample_stream(505, i))
            assert x.dtype == y.dtype == np.int64
            assert (x.tolist(), y.tolist()) == _orthogonal_pair(7, sample_stream(505, i))


class TestSingleVector:
    """``jacobi_matrix`` of a rational tensor at one exact vector: the
    one-row case of the block product, on each of its arithmetic paths."""

    _VECTORS = (np.array([Fraction(1, 3), -2, Fraction(5, 7), 0], dtype=object),
                np.array([2**70, -1, 3, 2**64 + 1], dtype=object),
                np.array([1, -2, 3, 9]), np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize("corpus, dtype", [
        (_small_corpus, np.int64), (_large_corpus, np.int64),
        (_huge_corpus, object), (_zero_corpus, np.int64)])
    def test_equals_the_contraction_of_the_components(self, corpus, dtype):
        R = next(R for R in corpus() if R.dim == 4)
        assert R._matrix.dtype == dtype
        e = np.eye(4, dtype=np.int64)
        for x in self._VECTORS:
            got = jacobi_matrix(R, x)
            want = [[eval_tensor(R, e[i], x, x, e[w]) for i in range(4)]
                    for w in range(4)]
            assert got.tolist() == want
            assert {type(v) for v in got.reshape(-1).tolist()} <= {int, Fraction}
            nums, denom = _jacobi_numerators(R, x)
            want_nums, want_denom = jacobi_numerators(R, x)
            assert denom == want_denom
            assert nums.tolist() == want_nums.tolist()


@st.composite
def _operands(draw):
    """A right factor b[k, cols] with entries of up to about 2^200, of both
    signs, and some zero rows, and left factors of several sizes for one
    prepared product."""
    k = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 5))
    entry = lambda bits: st.integers(-(2**bits), 2**bits)

    def matrix(rows, width, bits):
        m = draw(st.lists(entry(bits), min_size=rows * width,
                          max_size=rows * width))
        m = np.array(m, dtype=object).reshape(rows, width)
        m[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0
        return m

    b = matrix(k, cols, draw(st.integers(0, 200)))
    a_list = [matrix(draw(st.integers(1, 5)), k, draw(st.integers(0, 40)))
              for _ in range(draw(st.integers(1, 3)))]
    return a_list, b


class TestExactProduct:
    @settings(max_examples=300, deadline=None)
    @given(_operands())
    def test_equals_the_python_int_product(self, operands):
        a_list, b = operands
        product = exact_product(b)  # one product, blocks of several sizes
        for a in a_list:
            want = a @ b
            if all(abs(v) < 2**62 for v in a.reshape(-1).tolist()):
                a = a.astype(np.int64)  # the draws of a block are int64
            got = product(a)
            assert got.shape == want.shape
            assert got.tolist() == want.tolist()
            if got.dtype == object:
                assert all(type(v) is int for v in got.reshape(-1).tolist())

    def test_int64_result_only_under_the_rule(self):
        b = np.array([[2**61], [2**61]], dtype=object)
        assert exact_product(b)(np.array([[1, 1]])).dtype == object
        assert exact_product(b // 8)(np.array([[1, 1]])).dtype == np.int64

    @pytest.mark.parametrize("bits, cuts", [(100, 1), (2000, 0)])
    def test_limbs_of_b_are_cut_once(self, monkeypatch, bits, cuts):
        # 100-bit entries take the limb path, cut once for blocks of one
        # size; 2000-bit ones would need more limbs than are kept
        b = np.array([[2**bits - 1, 0], [-(2**bits), 3]], dtype=object)
        seen = []
        monkeypatch.setattr(linalg, "limbs",
                            lambda a, c, top: seen.append(c) or limbs(a, c, top))
        product = exact_product(b)
        for a in ([[1, 2]], [[-3, 1], [0, 1]], [[2, 2]]):
            a = np.array(a)
            assert product(a).tolist() == (a.astype(object) @ b).tolist()
        assert len(seen) == cuts

    @pytest.mark.parametrize("bmax", [2**52 - 1, 2**52, 2**53 - 1, 2**53])
    def test_zero_a_against_b_near_the_float64_limit(self, bmax):
        # a zero a leaves a 53-bit limb: b up to 2^53 - 1 is one limb
        b = np.array([[0], [bmax]], dtype=object)
        for a in (np.zeros((1, 2), dtype=np.int64), np.array([[1, 1]])):
            assert exact_product(b)(a).tolist() == (a.astype(object) @ b).tolist()


# the largest entry of a projected y' of jacobi-orthogonal at n = 16
_PROJECTED = 2 * 16 * 81 * 9


@st.composite
def _contractions(draw):
    """``(a, b, v)`` for the parts of a @ b contracted with v: a[rows, k]
    and b[k, m] with entries of up to about 2^53, 2^62 or 2^63, b also at
    the limb cap and one bit past it, and v[m] up to the size of a
    projected pair."""
    k, m, rows = (draw(st.integers(1, top)) for top in (6, 5, 4))

    def ints(shape, top):  # entries in [-top, top], often at either end
        size = math.prod(shape)
        entry = st.one_of(st.integers(-top, top), st.sampled_from((-top, top)))
        entries = draw(st.lists(entry, min_size=size, max_size=size))
        return np.array(entries, dtype=object).reshape(shape)

    a = ints((rows, k), 2 ** draw(st.sampled_from((4, 14, 29, 40, 53, 62, 63))))
    c = 53 - (k * max_abs(a)).bit_length()  # the limb width against a
    widths = [52, 53, 54, 61, 62, 63, 64]
    widths += [_MAX_LIMBS * c, _MAX_LIMBS * c + 1] if c >= 1 else []
    b = ints((k, m), 2 ** draw(st.sampled_from(widths)) - draw(st.integers(0, 1)))
    v = ints((m,), draw(st.sampled_from((9, 18, _PROJECTED)))).astype(np.int64)
    return a, b, v


def _object_sizes(monkeypatch):
    """The sizes of the object arrays that the exact checkers' block steps
    in ``analysis`` return: the Jacobi numerators and what is built from
    them."""
    sizes = []

    def record(value):
        if isinstance(value, np.ndarray) and value.dtype == object:
            sizes.append(value.size)
        elif isinstance(value, (tuple, list)):
            for v in value:
                record(v)
        return value

    def spy(f):
        return lambda *args: record(f(*args))

    for name in ("int_array", "combine", "int64_parts", "_mv",
                 "_polarization_residuals"):
        if hasattr(analysis, name):
            monkeypatch.setattr(analysis, name, spy(getattr(analysis, name)))
    rows = analysis.jacobi_numerator_rows
    monkeypatch.setattr(analysis, "jacobi_numerator_rows", lambda R: spy(rows(R)))
    return sizes


def _wide_int64():
    # integer weights near 10^16, as in perfbench's large slice: 55-bit
    # int64 numerators, two or more limbs against every draw
    return _large_corpus()[1]


def _wide_object():
    # denominators near 10^6, as in the large-denominator file: 82-bit
    # numerators, Python ints
    return _clifford(8, 7, Fraction(1, 1000003),
                     [Fraction(1, 1000033), Fraction(1, 1000037),
                      Fraction(1, 1000039), 1, 1, 1, 1])


# exact calls on one tensor, in an order whose limb widths do not only narrow
_CALLS = (
    lambda R: jacobi_matrix(R, np.array([1, 2, 0, 0, 0, 0, 0, -1])),
    lambda R: check_jacobi_orthogonal(R, samples=16, seed=1),
    lambda R: check_jacobi_orthogonal(R, samples=16, seed=2),
    lambda R: check_polarization(R, samples=6, seed=1),
)


def _result(got):
    return got.tolist() if isinstance(got, np.ndarray) else got.to_dict()


class TestKeptLimbs:
    """A rational tensor keeps the float64 limbs of its exact Jacobi product
    once they are two or more, and cuts them again only to narrow them."""

    @pytest.mark.parametrize("make", [_wide_int64, _wide_object])
    def test_the_matrix_is_cut_once_per_narrowing(self, monkeypatch, make):
        seen = []
        monkeypatch.setattr(linalg, "limbs",
                            lambda a, c, top: seen.append(c) or limbs(a, c, top))
        widths = []  # the one width each call cuts on a tensor of its own
        for call in _CALLS:
            R = make()
            seen.clear()
            call(R)
            assert len(seen) == 1
            widths.append(seen[0])
        R = make()
        seen.clear()
        for call in _CALLS:
            call(R)
        narrowing = [w for i, w in enumerate(widths)
                     if w < min(widths[:i], default=math.inf)]
        assert seen == narrowing
        assert len(seen) < len(_CALLS)

    @pytest.mark.parametrize("make", [_wide_int64, _wide_object])
    def test_repeated_calls_report_as_on_a_fresh_tensor(self, make):
        R = make()
        for _ in range(2):
            for call in _CALLS:
                fresh = CurvatureTensor._from_numerators(
                    R.numerators, R.denominator, R.provenance)
                assert _result(call(R)) == _result(call(fresh))
        assert R._limb_product is not None

    def test_a_narrow_tensor_keeps_nothing(self):
        for R in (_small_corpus()[2],
                  make_constant_curvature(5, Fraction(7, 3), RATIONAL)):
            check_jacobi_orthogonal(R, samples=40, seed=1)
            check_polarization(R, samples=40, seed=1)
            assert R._limb_product is None
            assert R.to_float()._limb_product is None

    def test_a_wide_tensor_dies_with_its_limbs(self):
        R = _wide_object()
        check_jacobi_orthogonal(R, samples=16, seed=1)
        assert R._limb_product is not None
        ref = weakref.ref(R)
        del R
        gc.collect()
        assert ref() is None

    def test_the_slot_is_not_set_from_outside(self):
        R = _wide_int64()
        assert "_limb_product" in CurvatureTensor.__slots__
        with pytest.raises(AttributeError, match="immutable"):
            R._limb_product = None
        check_jacobi_orthogonal(R, samples=16, seed=1)
        with pytest.raises(AttributeError, match="immutable"):
            R._limb_product = None
        assert R._limb_product is not None


class TestContractedParts:
    @settings(max_examples=300, deadline=None)
    @given(_contractions())
    # one part of 52 bits, split; limb parts too wide to split, summed first
    @example((np.array([[2**29]]), np.array([[2**23 - 1]]), np.array([_PROJECTED])))
    @example((np.array([[16]]), np.full((1, 5), 2**62 - 1), np.full(5, _PROJECTED)))
    def test_equals_the_contracted_python_int_product(self, case):
        a, b, v = case
        k, m = b.shape
        parts, bits, bound = int64_parts(exact_parts(b)(a), m, max_abs(v))
        got = combine([p @ v for p in parts], bits, bound)
        want = (a.astype(object) @ b) @ v.astype(object)
        assert got.tolist() == want.tolist()
        if got.dtype == object:
            assert all(type(e) is int for e in got.tolist())
        # int64 exactly when it is one contracted int64 part or the int64
        # rule admits the sum of the parts, and always when the rule admits
        # both the product and its contraction
        if len(parts) == 1:
            assert got.dtype == parts[0].dtype
        else:
            assert (got.dtype == np.int64) == int64_safe(bound)
        if int64_safe(2, k, max_abs(a), max_abs(b), max(1, m * max_abs(v))):
            assert got.dtype == np.int64

    def test_large_weights_contract_each_part_in_int64(self, monkeypatch):
        # numerators of 55 bits: the limb path, whose parts the exact
        # checkers contract before they turn anything into Python ints
        R = _large_corpus()[-1]
        S, n = 32, R.dim
        assert n == 16 and R._matrix.dtype == np.int64
        sizes = _object_sizes(monkeypatch)
        check_jacobi_orthogonal(R, samples=S, seed=3)
        # J_x y' and J_{y'} x, each (S, n)
        assert sizes and max(sizes) <= 2 * S * n
        sizes.clear()
        check_polarization(R, samples=S, seed=3)
        # its four vectors, each (S, n), and r3, (S, n, n)
        assert sizes and max(sizes) <= S * n * n


# ---------------------------------------------------------------------------
# Exact combinations: weighted sums of generators (_generated) and rescaled
# tensors (scaled) against a sum of Fraction components.
# ---------------------------------------------------------------------------

# primes just below 2^32: the product of two of them exceeds 2^63
_PRIMES = (4294967291, 4294967279, 4294967231, 4294967197, 4294967189,
           4294967161, 4294967143, 4294967111)


def _oracle_combination(weights, tensors):
    """sum_i w_i T_i, one Fraction component at a time, as a tensor."""
    comps = sum(Fraction(w) * T.components.astype(object)
                for w, T in zip(weights, tensors))
    return CurvatureTensor(tensors[0].dim, RATIONAL, comps)


def _assert_same_tensor(got, want):
    assert got.denominator == want.denominator
    assert got._matrix.dtype == want._matrix.dtype
    assert got._max_numerator == want._max_numerator
    assert got.numerators.tolist() == want.numerators.tolist()


_RULES = {"sym": (curvature._SPANNING, spanning_rule),
          "skew": (curvature._RJ, rj_rule)}


@st.composite
def _int64_terms(draw):
    """1 to 9 generators at one n in 2..6, each with its int64 tensor built
    on its own: R1, R^J of an integer skew J, and R^S of a symmetric S
    over 3."""
    n = draw(st.integers(2, 6))
    small = st.integers(-3, 3)

    def square():
        return np.array(draw(st.lists(small, min_size=n * n, max_size=n * n)),
                        dtype=np.int64).reshape(n, n)

    terms = []
    for kind in draw(st.lists(st.sampled_from(("r1", "rj", "sym")),
                              min_size=1, max_size=9)):
        a = square()
        if kind == "r1":
            terms.append((_RULES["sym"], np.eye(n, dtype=np.int64)))
        elif kind == "rj":
            terms.append((_RULES["skew"], a - a.T))
        else:
            terms.append((_RULES["sym"], (a + a.T).astype(object) * Fraction(1, 3)))
    return ([(rule, M) for (rule, _), M in terms],
            [generated(oracle, M) for (_, oracle), M in terms])


@st.composite
def _weights(draw, count):
    """Signed weights, the first over the product of two primes near 2^32,
    so the lcm of the denominators exceeds 2^63."""
    numerator = st.integers(-(2**70), 2**70)
    denominator = st.one_of(st.integers(1, 60), st.sampled_from(_PRIMES),
                            st.integers(1, 2**70))
    first = draw(st.lists(st.sampled_from(_PRIMES), min_size=2, max_size=2,
                          unique=True))
    weights = [Fraction(draw(numerator.filter(bool)), first[0] * first[1])]
    weights += [Fraction(draw(numerator), draw(denominator))
                for _ in range(count - 1)]
    assume(math.lcm(*(w.denominator for w in weights)) > 2**63)
    return weights


class TestCombine:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_equals_the_fraction_sum(self, data):
        terms, oracle = data.draw(_int64_terms())
        weights = data.draw(_weights(len(terms)))
        assert all(T._matrix.dtype == np.int64 for T in oracle)
        _assert_same_tensor(curvature._generated(weights, terms, RATIONAL),
                            _oracle_combination(weights, oracle))

    def test_clifford_with_a_huge_common_denominator_takes_limbs(self, monkeypatch):
        # the weights of the large-denominator dim-16 build, at n = 8
        fam = build_clifford_family(8, 7)
        weights = [Fraction(1, 1000003), Fraction(1, 1000033),
                   Fraction(1, 1000037), Fraction(1, 1000039), 1, 1, 1, 1]
        cut = []
        monkeypatch.setattr(curvature, "limbs",
                            lambda a, bits: cut.append(bits) or limbs(a, bits))
        got = make_clifford(8, weights[0], list(zip(weights[1:], fam.structures)),
                            mode=RATIONAL)
        assert cut and got._matrix.dtype == object
        oracle = [generated(spanning_rule, np.eye(8, dtype=np.int64))]
        oracle += [generated(rj_rule, J) for J in fam.structures]
        _assert_same_tensor(got, _oracle_combination(weights, oracle))

    def test_coefficients_wider_than_the_terms_keep_the_python_int_sum(
            self, monkeypatch):
        # a weight of 10^100 needs more limbs than the two terms: the Horner
        # step would take more Python-int passes than the sum
        eye = np.eye(4, dtype=np.int64)
        J = np.eye(4, k=1, dtype=np.int64) - np.eye(4, k=-1, dtype=np.int64)
        terms = [(curvature._SPANNING, eye), (curvature._RJ, J)]
        oracle = [generated(spanning_rule, eye), generated(rj_rule, J)]
        weights = [Fraction(10**100, 3), Fraction(1, _PRIMES[0])]
        monkeypatch.setattr(curvature, "limbs", None)
        _assert_same_tensor(curvature._generated(weights, terms, RATIONAL),
                            _oracle_combination(weights, oracle))

    @pytest.mark.parametrize("scale", [2**70, -(2**200)])
    def test_a_python_int_term(self, scale):
        R = _clifford(4, 3, Fraction(1, 3), [2, Fraction(-5, 7), 1])
        huge = CurvatureTensor._from_numerators(
            R.numerators.astype(object) * scale, R.denominator)
        assert huge._matrix.dtype == object
        for w in (Fraction(3, _PRIMES[0] * _PRIMES[1]), Fraction(-1, 5), 2**64, 0):
            for T in (huge, R):
                _assert_same_tensor(T.scaled(w), _oracle_combination([w], [T]))

    def test_zero_term_with_a_coefficient_beyond_int64(self):
        zero = make_from_symmetric([], [], RATIONAL, n=3)
        got = zero.scaled(2**70)
        assert got._max_numerator == 0 and got.denominator == 1
        assert got._matrix.dtype == np.int64


# ---------------------------------------------------------------------------
# Weighted sums of generated tensors, read off one Gram tensor, against each
# generator built on its own (oracles.generated) and summed in Python ints
# (oracles.weighted_sum).
# ---------------------------------------------------------------------------

@st.composite
def _generator_terms(draw):
    """``(weights, terms, oracle terms)``: 1 to 5 symmetric, skew and
    identity matrices at one n in 2..16, as int64, or as Python ints or
    Fractions with entries or denominators beyond int64, under small
    weights, integer weights beyond 2^63, or weights whose denominators have
    an lcm above 2^63."""
    n = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 5))
    terms, oracle = [], []
    for _ in range(count):
        kind = draw(st.sampled_from(("sym", "skew", "identity")))
        a = rng.integers(-3, 4, size=(n, n))
        M = {"sym": a + a.T, "skew": a - a.T,
             "identity": np.eye(n, dtype=np.int64)}[kind]
        scale = draw(st.sampled_from((1, 1, 2**40, Fraction(1, 3),
                                      Fraction(5, 2**64 + 13))))
        if scale != 1:
            M = M.astype(object) * scale
        rule, oracle_rule = _RULES["skew" if kind == "skew" else "sym"]
        terms.append((rule, M))
        oracle.append(generated(oracle_rule, M))
    wide = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63)))
    weights = draw(st.one_of(
        st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                 min_size=count, max_size=count),
        st.lists(wide, min_size=count, max_size=count),
        _weights(count)))
    return weights, terms, oracle


class TestGram:
    @settings(max_examples=100, deadline=None)
    @given(_generator_terms())
    def test_equals_the_sum_of_its_generators(self, case):
        weights, terms, oracle = case
        _assert_same_tensor(curvature._generated(weights, terms, RATIONAL),
                            weighted_sum(weights, oracle))

    @staticmethod
    def _spy(monkeypatch):
        """``(products, sums)``: the dtypes that the Gram products came back
        in (a Python-int product comes back as object) and that the exact
        sums ran their terms in."""
        products, sums = [], []

        def traced_product(b):
            product = exact_product(b)

            def traced(a):
                G = product(a)
                products.append(G.dtype.type)
                return G
            return traced

        exact_sum = curvature._exact_sum

        def spy(weights, denominators, tops, term_sum):
            def traced(cs, dtype):
                sums.append(dtype)
                return term_sum(cs, dtype)
            return exact_sum(weights, denominators, tops, traced)

        monkeypatch.setattr(curvature, "exact_product", traced_product)
        monkeypatch.setattr(curvature, "_exact_sum", spy)
        return products, sums

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_benchmark_corpus_runs_in_int64(self, n, monkeypatch):
        # the weights of the benchmark corpus at their widest: p/q with |p|
        # and q up to 9 (an lcm of 2520), and integers up to 10^16
        products, sums = self._spy(monkeypatch)
        fam = build_clifford_family(n, radon_hurwitz_bound(n))
        fracs = [Fraction(9, q) for q in (5, 7, 8, 9)] * 3
        large = [(-1) ** i * (10**16 - 1 - i) for i in range(12)]
        for mus in (fracs, large, [Fraction(-9, 7)] * 12):
            make_clifford(n, mus[-1], list(zip(mus, fam.structures)), mode=RATIONAL)
        make_constant_curvature(n, Fraction(-9, 8), RATIONAL)
        assert set(products) == set(sums) == {np.int64}

    def test_large_denominator_build_sums_its_limbs_in_int64(self, monkeypatch):
        products, sums = self._spy(monkeypatch)
        fam = build_clifford_family(16, 8)
        mus = [Fraction(1, 1000033), Fraction(1, 1000037), Fraction(1, 1000039),
               1, 1, 1, 1, 1]
        R = make_clifford(16, Fraction(1, 1000003), list(zip(mus, fam.structures)),
                          mode=RATIONAL)
        assert R.denominator.bit_length() > 63 and R._matrix.dtype == object
        assert len(sums) > 1 and set(products) == set(sums) == {np.int64}

    def test_zero_matrix_with_a_weight_beyond_int64(self):
        terms = [(curvature._RJ, np.zeros((2, 2), dtype=np.int64)),
                 (curvature._SPANNING, np.eye(2, dtype=np.int64))]
        got = curvature._generated([2**63, Fraction(1, 3)], terms, RATIONAL)
        assert got._matrix.dtype == np.int64
        _assert_same_tensor(got, weighted_sum(
            [Fraction(1, 3)], [generated(spanning_rule, np.eye(2, dtype=np.int64))]))
