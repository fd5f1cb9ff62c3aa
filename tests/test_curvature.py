import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from osscheck import (
    build_clifford_family,
    jacobi_matrix,
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    make_rj,
    random_curvature,
    reduced_jacobi,
    ricci_operator,
    sample_stream,
    validate_symmetries,
)
from osscheck.analysis import check_einstein
from osscheck.curvature import CurvatureTensor
from osscheck.linalg import FLOAT64, RATIONAL, PreconditionError, int64_safe
from oracles import (eval_tensor, jacobi_numerators, ricci, rj_rule,
                     spanning_rule, symmetry_residuals)


def basis(n, mode=FLOAT64):
    if mode == RATIONAL:
        return [np.array([1 if j == i else 0 for j in range(n)], dtype=object)
                for i in range(n)]
    return [np.eye(n)[:, i] for i in range(n)]


def quaternionic(mode=RATIONAL):
    fam = build_clifford_family(8, 3)
    return make_clifford(8, 1, [(-1, J) for J in fam.structures], mode=mode)


class TestEval:
    def test_antisymmetry_forces_zero(self):
        R = random_curvature(4, 2, sample_stream(0))
        g = sample_stream(1)
        x, z, w = g.standard_normal(4), g.standard_normal(4), g.standard_normal(4)
        assert abs(eval_tensor(R, x, x, z, w)) <= 1e-12

    def test_unit_constant_curvature(self):
        R = make_constant_curvature(4, 1)
        e = basis(4)
        assert eval_tensor(R, e[0], e[1], e[1], e[0]) == 1.0

    def test_pair_symmetry_random_args(self):
        R = random_curvature(5, 3, sample_stream(2))
        g = sample_stream(3)
        x, y, z, w = (g.standard_normal(5) for _ in range(4))
        assert eval_tensor(R, x, y, z, w) == pytest.approx(
            eval_tensor(R, z, w, x, y), abs=1e-10)

    def test_quadrilinear(self):
        R = make_constant_curvature(3, 2)
        g = sample_stream(4)
        x, y, z, w = (g.standard_normal(3) for _ in range(4))
        assert eval_tensor(R, 2 * x, y, z, w) == pytest.approx(
            2 * eval_tensor(R, x, y, z, w))


class TestMasterSignOracle:
    """The convention must reproduce the Clifford Jacobi operator formula."""

    def test_constant_term(self):
        # J_X Y = kappa (eps_X Y - g(Y, X) X) for R1 scaled by kappa
        R = make_constant_curvature(5, Fraction(3, 2), mode=RATIONAL)
        g = sample_stream(5)
        x = np.array([int(v) for v in g.integers(-5, 6, 5)], dtype=object)
        y = np.array([int(v) for v in g.integers(-5, 6, 5)], dtype=object)
        got = jacobi_matrix(R, x).dot(y)
        want = Fraction(3, 2) * (x.dot(x) * y - y.dot(x) * x)
        assert all(a == b for a, b in zip(got, want))

    def test_rj_term_exact(self):
        # J_X Y = -3 g(Y, JX) JX for a complex structure J, unit basis X
        J = build_clifford_family(4, 1).structures[0]
        R = make_rj(J, mode=RATIONAL)
        Jo = np.array(J.tolist(), dtype=object)
        e = basis(4, RATIONAL)
        g = sample_stream(6)
        for x in e:
            jx = Jo.dot(x)
            for _ in range(5):
                y = np.array([int(v) for v in g.integers(-5, 6, 4)], dtype=object)
                got = jacobi_matrix(R, x).dot(y)
                want = -3 * y.dot(jx) * jx
                assert all(a == b for a, b in zip(got, want))


class TestValidateSymmetries:
    def test_constant_passes_exactly(self):
        rep = validate_symmetries(make_constant_curvature(4, 1, RATIONAL))
        assert rep.passed and rep.worst_residual == 0

    def test_perturbed_component_fails(self):
        R = make_constant_curvature(4, 1)
        comp = R.components.copy()
        comp[0, 1, 2, 3] += 1e-3
        bad = CurvatureTensor(4, FLOAT64, comp, "perturbed")
        rep = validate_symmetries(bad)
        assert not rep.passed
        assert rep.worst_residual == pytest.approx(1e-3, rel=0.5)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_one_residual_array_at_a_time(self, mode):
        # each family is reduced as soon as it is formed: with all four n^4
        # residual arrays alive, the rational call traced 2.06 MiB
        fam = build_clifford_family(16, 8)
        mus = [Fraction(p, q) for p, q in ((1, 2), (-2, 5), (3, 7), (4, 9),
                                           (5, 2), (6, 5), (-7, 3), (8, 7))]
        R = make_clifford(16, Fraction(1, 3), list(zip(mus, fam.structures)))
        R = R.to_float() if mode == FLOAT64 else R
        validate_symmetries(R)
        tracemalloc.start()
        try:
            rep = validate_symmetries(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and peak < 1_000_000

    def test_rj_random_skew_bianchi_oracle(self):
        # oracle: expand the Bianchi sum of the R^J formula by direct loops
        g = sample_stream(7)
        a = g.standard_normal((4, 4))
        J = a - a.T
        R = make_rj(J)
        assert validate_symmetries(R).passed

        def rj(x, y, z, w):
            return (J.dot(x).dot(z) * J.dot(y).dot(w)
                    - J.dot(y).dot(z) * J.dot(x).dot(w)
                    + 2 * J.dot(x).dot(y) * J.dot(z).dot(w))

        e = basis(4)
        for i, j, k, l in itertools.product(range(4), repeat=4):
            x, y, z, w = e[i], e[j], e[k], e[l]
            b = rj(x, y, z, w) + rj(y, z, x, w) + rj(z, x, y, w)
            assert abs(b) <= 1e-12
            assert R.components[i, j, k, l] == pytest.approx(rj(x, y, z, w))


class TestConstantCurvature:
    def test_reduced_is_identity(self):
        R = make_constant_curvature(3, 1)
        x = np.array([2.0, -1.0, 2.0]) / 3.0
        red = reduced_jacobi(R, x)
        assert np.abs(red - np.eye(2)).max() <= 1e-12

    def test_zero_kappa(self):
        R = make_constant_curvature(4, 0)
        assert np.abs(R.components).max() == 0.0

    def test_scaled_component(self):
        R = make_constant_curvature(4, 2)
        e = basis(4)
        # substitute into the convention formula: kappa*(g11 g22 - g12 g21)
        assert eval_tensor(R, e[0], e[1], e[1], e[0]) == 2.0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            make_constant_curvature(1, 1)


class TestRJ:
    def test_rotation_dim2(self):
        J = np.array([[0, -1], [1, 0]])
        R = make_rj(J, mode=RATIONAL)
        e = basis(2, RATIONAL)
        # term-by-term: g(Je1,e1)g(Je2,e2) - g(Je2,e1)g(Je1,e2) + 2 g(Je1,e2)^2
        assert eval_tensor(R, e[0], e[1], e[0], e[1]) == 3

    def test_zero_J(self):
        R = make_rj(np.zeros((3, 3)))
        assert np.abs(R.components).max() == 0.0

    def test_complex_structure_jacobi(self):
        J = build_clifford_family(4, 1).structures[0]
        R = make_rj(J, mode=RATIONAL)
        e = basis(4, RATIONAL)
        je1 = np.array(J.tolist(), dtype=object).dot(e[0])
        got = jacobi_matrix(R, e[0]).dot(je1)
        assert all(a == -3 * b for a, b in zip(got, je1))

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            make_rj(np.eye(3))

    def test_an_infinite_entry_is_not_skew(self):
        # the tolerance is relative to the largest entry, which must be finite
        from osscheck.curvature import _require_skew

        with pytest.raises(ValueError, match="not skew-adjoint"):
            _require_skew(np.array([[np.inf, 1.0], [-1.0, 0.0]]))


class TestClifford:
    def test_m0_equals_constant(self):
        R = make_clifford(4, 1, [], mode=RATIONAL)
        C = make_constant_curvature(4, 1, mode=RATIONAL)
        assert np.array_equal(R.components, C.components)

    def test_dim4_eigenvalues(self):
        fam = build_clifford_family(4, 1)
        R = make_clifford(4, 1, [(-1, fam.structures[0])], mode=FLOAT64)
        for i in range(5):
            x = sample_stream(8, i).standard_normal(4)
            x /= np.linalg.norm(x)
            vals = np.linalg.eigvalsh(reduced_jacobi(R, x))
            assert np.allclose(sorted(vals), [1, 1, 4], atol=1e-9)

    def test_dim8_quaternionic_eigenvalues(self):
        R = quaternionic(FLOAT64)
        x = sample_stream(9).standard_normal(8)
        x /= np.linalg.norm(x)
        vals = np.linalg.eigvalsh(reduced_jacobi(R, x))
        assert np.allclose(sorted(vals), [1, 1, 1, 1, 4, 4, 4], atol=1e-9)

    def test_dim8_companion_matrix_oracle(self):
        # independent spectral oracle: Faddeev-LeVerrier coefficients of the
        # reduced Jacobi, then roots of the companion matrix
        R = quaternionic(FLOAT64)
        x = sample_stream(10).standard_normal(8)
        x /= np.linalg.norm(x)
        m = reduced_jacobi(R, x)
        n = m.shape[0]
        coeffs = [1.0]
        mk = np.zeros_like(m)
        for k in range(1, n + 1):
            mk = m @ (mk + coeffs[-1] * np.eye(n)) if k > 1 else m.copy()
            coeffs.append(-np.trace(mk) / k)
        roots = np.roots(coeffs)
        # repeated roots of multiplicity 4 are conditioned like eps**(1/4)
        assert np.abs(roots.imag).max() <= 1e-3
        assert np.allclose(sorted(roots.real), [1, 1, 1, 1, 4, 4, 4], atol=1e-3)

    def test_provenance_embeds_family(self):
        R = quaternionic()
        assert R.provenance.startswith("clifford(")
        assert "family=" in R.provenance

    def test_invalid_family_rejected(self):
        J = build_clifford_family(4, 1).structures[0]
        with pytest.raises(PreconditionError):
            make_clifford(4, 1, [(1, J), (1, J)])


class TestFromSymmetric:
    def test_identity_gives_constant(self):
        R = make_from_symmetric([np.eye(4, dtype=np.int64).astype(object)],
                                [1], mode=RATIONAL)
        C = make_constant_curvature(4, 1, mode=RATIONAL)
        assert np.array_equal(R.components, C.components)

    def test_empty_is_zero(self):
        R = make_from_symmetric([], [], mode=FLOAT64, n=3)
        assert np.abs(R.components).max() == 0.0

    def test_rational_symmetries_exact(self):
        g = sample_stream(11)
        Ss = []
        for _ in range(2):
            a = g.integers(-4, 5, size=(4, 4))
            Ss.append(np.array((a + a.T).tolist(), dtype=object))
        R = make_from_symmetric(Ss, [Fraction(1, 2), Fraction(-2, 3)],
                                mode=RATIONAL)
        rep = validate_symmetries(R)
        assert rep.passed and rep.worst_residual == 0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            make_from_symmetric([np.array([[0.0, 1.0], [0.0, 0.0]])], [1.0])

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_rejects_matrices_of_two_sizes(self, mode):
        with pytest.raises(ValueError, match="every matrix must be 2 x 2"):
            make_from_symmetric([np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)],
                                [1, 1], mode)


class TestRandomCurvature:
    def test_valid_by_construction(self):
        R = random_curvature(4, 3, sample_stream(12))
        assert validate_symmetries(R).passed

    def test_deterministic(self):
        a = random_curvature(4, 3, sample_stream(13))
        b = random_curvature(4, 3, sample_stream(13))
        assert np.array_equal(a.components, b.components)


class TestJacobi:
    def test_zero_base(self):
        R = make_constant_curvature(4, 1)
        assert np.abs(jacobi_matrix(R, np.zeros(4))).max() == 0.0

    def test_constant_on_basis(self):
        R = make_constant_curvature(4, 1)
        e = basis(4)
        assert np.allclose(jacobi_matrix(R, e[0]).dot(e[1]), e[1])

    def test_quadratic_in_base(self):
        R = random_curvature(5, 2, sample_stream(14))
        x = sample_stream(15).standard_normal(5)
        assert np.allclose(jacobi_matrix(R, 2 * x), 4 * jacobi_matrix(R, x))

    def test_self_adjoint_and_annihilates_base(self):
        R = random_curvature(5, 3, sample_stream(16))
        x = sample_stream(17).standard_normal(5)
        m = jacobi_matrix(R, x)
        assert np.abs(m - m.T).max() <= 1e-10
        assert np.linalg.norm(m @ x) <= 1e-10
        y = sample_stream(18).standard_normal(5)
        assert abs((m @ y).dot(x)) <= 1e-10


class TestReducedJacobi:
    def test_constant_identity(self):
        R = make_constant_curvature(5, 1)
        x = sample_stream(19).standard_normal(5)
        x /= np.linalg.norm(x)
        assert np.abs(reduced_jacobi(R, x) - np.eye(4)).max() <= 1e-12

    def test_charpoly_frame_independent(self):
        fam = build_clifford_family(4, 1)
        R = make_clifford(4, 1, [(-1, fam.structures[0])], mode=FLOAT64)
        ref = None
        for i in range(100):
            x = sample_stream(20, i).standard_normal(4)
            x /= np.linalg.norm(x)
            coeffs = np.poly(np.linalg.eigvalsh(reduced_jacobi(R, x)))
            if ref is None:
                ref = coeffs
            assert np.abs(coeffs - ref).max() <= 1e-10 * (1 + np.abs(ref).max())

    def test_trace_matches_full(self):
        R = random_curvature(5, 2, sample_stream(21))
        x = sample_stream(22).standard_normal(5)
        x /= np.linalg.norm(x)
        assert np.trace(reduced_jacobi(R, x)) == pytest.approx(
            np.trace(jacobi_matrix(R, x)), abs=1e-10)

    def test_charpoly_is_full_over_lambda(self):
        R = random_curvature(4, 3, sample_stream(23))
        x = sample_stream(24).standard_normal(4)
        x /= np.linalg.norm(x)
        full = np.poly(np.linalg.eigvalsh(jacobi_matrix(R, x)))
        red = np.poly(np.linalg.eigvalsh(reduced_jacobi(R, x)))
        q, rem = np.polydiv(full, [1.0, 0.0])
        assert np.abs(q - red).max() <= 1e-9 * (1 + np.abs(red).max())

    def test_non_unit_rejected(self):
        R = make_constant_curvature(3, 1)
        with pytest.raises(PreconditionError):
            reduced_jacobi(R, np.array([1.0, 1.0, 0.0]))

    def test_nan_base_rejected(self):
        # a NaN norm is never within the unit tolerance
        with pytest.raises(PreconditionError, match="unit base vector"):
            reduced_jacobi(make_constant_curvature(4, 1), [np.nan, 0, 0, 0])


class TestRicci:
    def test_constant(self):
        R = make_constant_curvature(6, 1, mode=RATIONAL)
        ric = ricci_operator(R)
        assert np.array_equal(np.asarray(ric, dtype=float), 5 * np.eye(6))

    def test_dim4_clifford_explicit_sum_oracle(self):
        fam = build_clifford_family(4, 1)
        R = make_clifford(4, 1, [(-1, fam.structures[0])], mode=RATIONAL)
        e = basis(4, RATIONAL)
        total = sum(jacobi_matrix(R, x) for x in e)
        ric = ricci_operator(R)
        assert np.array_equal(total, ric)
        assert np.array_equal(np.asarray(ric, dtype=float), 6 * np.eye(4))

    def test_random_not_einstein(self):
        R = random_curvature(4, 3, sample_stream(25))
        ric = ricci_operator(R)
        assert np.abs(ric - ric.T).max() <= 1e-10
        off = ric - np.trace(ric) / 4 * np.eye(4)
        assert np.abs(off).max() > 1e-3


class TestPolarizationInvariants:
    def test_vector_identities_exact(self):
        g = sample_stream(26)
        Ss = []
        for _ in range(2):
            a = g.integers(-3, 4, size=(4, 4))
            Ss.append(np.array((a + a.T).tolist(), dtype=object))
        R = make_from_symmetric(Ss, [Fraction(1, 3), Fraction(2)], mode=RATIONAL)
        for i in range(20):
            s = sample_stream(27, i)
            x = np.array([int(v) for v in s.integers(-5, 6, 4)], dtype=object)
            y = np.array([int(v) for v in s.integers(-5, 6, 4)], dtype=object)
            jx, jy = jacobi_matrix(R, x), jacobi_matrix(R, y)
            jp, jm = jacobi_matrix(R, x + y), jacobi_matrix(R, x - y)
            assert all(v == 0 for v in jp.dot(x - y) - 2 * (jy.dot(x) - jx.dot(y)))
            assert all(v == 0 for v in jm.dot(x + y) - 2 * (jy.dot(x) + jx.dot(y)))
            assert np.array_equal(jp + jm, 2 * jx + 2 * jy)

    def test_y_equals_x_degenerates(self):
        R = make_constant_curvature(3, 1, mode=RATIONAL)
        x = np.array([1, 2, 3], dtype=object)
        assert all(v == 0 for v in jacobi_matrix(R, 2 * x).dot(x - x))
        assert all(v == 0 for v in jacobi_matrix(R, x - x).dot(2 * x))


def test_scaled_tensor():
    R = make_constant_curvature(4, 1, mode=RATIONAL)
    S = R.scaled(Fraction(3, 2))
    e = basis(4, RATIONAL)
    assert eval_tensor(S, e[0], e[1], e[1], e[0]) == Fraction(3, 2)


class TestExactStorage:
    def test_one_canonical_integer_form(self):
        fam = build_clifford_family(4, 1)
        R = make_clifford(4, Fraction(1, 6), [(Fraction(-1, 4), fam.structures[0])])
        assert R.numerators.dtype == np.int64
        # the denominator is the lcm of the reduced component denominators
        dens = {Fraction(v).denominator for v in R.components.reshape(-1)}
        assert R.denominator == math.lcm(*dens) == 12
        assert all(Fraction(int(n), R.denominator) == c for n, c in
                   zip(R.numerators.reshape(-1), R.components.reshape(-1)))

    def test_object_constructor_clears_denominators(self):
        comp = make_constant_curvature(3, Fraction(4, 6), RATIONAL).components
        R = CurvatureTensor(3, RATIONAL, np.array(comp.tolist(), dtype=object))
        assert R.denominator == 3 and R.numerators.dtype == np.int64

    def test_components_view_is_read_only(self):
        R = make_constant_curvature(3, 2, RATIONAL)
        with pytest.raises(ValueError):
            R.components[0, 1, 1, 0] = 5
        with pytest.raises(AttributeError):
            R.denominator = 2

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_attributes_are_not_deleted(self, mode):
        # a deleted slot would leave a tensor whose every checker raises
        R = make_constant_curvature(3, 1, mode)
        for name in CurvatureTensor.__slots__[:-1]:  # all but __weakref__
            with pytest.raises(AttributeError, match="immutable"):
                delattr(R, name)
        assert R.denominator == (1 if mode == RATIONAL else None)
        assert check_einstein(R).passed

    def test_huge_weights_fall_back_to_python_ints(self):
        R = make_constant_curvature(4, 10**20, RATIONAL)
        assert R.numerators.dtype == object
        assert R.components[0, 1, 1, 0] == 10**20
        assert validate_symmetries(R).passed

    def test_to_float_rounds_once(self):
        # numerators beyond 2^53 over L > 1: converting the numerator first
        # and dividing afterwards would round twice
        kappa = Fraction(2**60 + 3, 7)
        R = make_constant_curvature(3, kappa, RATIONAL)
        got = R.to_float().components
        want = [float(Fraction(v)) for v in R.components.reshape(-1)]
        assert got.reshape(-1).tolist() == want
        assert got[0, 1, 1, 0] == float(kappa)
        small = make_constant_curvature(3, Fraction(1, 3), RATIONAL).to_float()
        assert small.components[0, 1, 1, 0] == 1 / 3

    def test_scaled_stays_canonical(self):
        R = make_constant_curvature(4, Fraction(1, 3), RATIONAL).scaled(3)
        assert R.denominator == 1
        assert R.provenance.startswith("scaled(3)*constant(")

    @pytest.mark.parametrize("mu", [Fraction(-2, 3), 2 * 10**16, 10**17])
    def test_exact_jacobi_matches_full_contraction(self, mu):
        # 2 * 10**16 gives numerators past room for a sum of n * n of them
        # but within room for max(n, 3), so they stay int64; 10**17 exceeds
        # the int64 bound, so that tensor takes the Python-int path
        fam = build_clifford_family(4, 3)
        R = make_clifford(4, Fraction(5, 7), [(mu, J) for J in fam.structures])
        assert R.numerators.dtype == (object if mu == 10**17 else np.int64)
        e = basis(4, RATIONAL)
        x = np.array([3, -1, Fraction(1, 2), 2], dtype=object)
        m = jacobi_matrix(R, x)
        for w, i in itertools.product(range(4), repeat=2):
            assert m[w, i] == eval_tensor(R, e[i], x, x, e[w])

    def test_large_integer_weights_stay_int64_at_dim_16(self):
        # weights of the size the large-integer benchmark slice draws: the
        # numerators need 56 bits, more than room for a sum of n * n of them
        fam = build_clifford_family(16, 8)
        w = 10**16 - 1
        mus = [(-1) ** i * (w - i) for i in range(8)]
        R = make_clifford(16, w, list(zip(mus, fam.structures)))
        assert R.numerators.dtype == np.int64
        assert not int64_safe(R._max_numerator, 16, 16)
        x = np.arange(1, 17, dtype=object) * (-1) ** np.arange(16)
        nums, L = jacobi_numerators(R, x)
        assert np.array_equal(jacobi_matrix(R, x), nums * Fraction(1, L))

    @pytest.mark.parametrize("n", [2, 4, 16])
    @pytest.mark.parametrize("kind", ["constant", "uniform"])
    def test_storage_rule_bound(self, n, kind):
        # the rule admits int64 numerators up to this top: every sum of
        # max(n, 3) stored entries then stays within the int64 rule
        bound = (10 * 2**62 - 1) // 11 // max(n, 3)
        for top, stored in ((bound, np.int64), (bound + 1, object)):
            if kind == "constant":
                R = make_constant_curvature(n, top, RATIONAL)
                c = spanning_rule(np.eye(n, dtype=np.int64)).astype(object) * top
            else:  # every entry top: not a curvature tensor, but each sum
                # reaches its bound
                c = np.full((n,) * 4, top, dtype=object)
                R = CurvatureTensor._from_numerators(c)
            assert R.numerators.dtype == stored
            ric = ricci(c)
            assert np.array_equal(ricci_operator(R), ric)
            const = Fraction(np.trace(ric), n)
            rep = check_einstein(R)
            assert rep.witness["einstein_constant"] == const
            assert rep.worst_residual == max(abs(v - const * (i == j))
                                             for (i, j), v in np.ndenumerate(ric))
            assert (validate_symmetries(R).witness["residual_by_family"]
                    == symmetry_residuals(c))
            assert np.array_equal(R.scaled(3).components, 3 * c)
            assert (R.to_float().components.reshape(-1).tolist()
                    == [float(v) for v in c.reshape(-1)])

    def test_inexact_entries_are_rejected(self):
        # a float entry used to be truncated: [0.6, 0.8, 0, 0] gave J = 0
        R = make_constant_curvature(4, 1, RATIONAL)
        with pytest.raises(ValueError, match=r"entry 0 \(0\.6\)"):
            jacobi_matrix(R, np.array([0.6, 0.8, 0, 0]))
        comp = np.array(R.components.tolist(), dtype=object)
        comp[0, 1, 1, 0] = 1.5
        with pytest.raises(ValueError, match=r"entry 20 \(1\.5\)"):
            CurvatureTensor(4, RATIONAL, comp)
        comp[0, 1, 1, 0] = np.int64(3)
        assert CurvatureTensor(4, RATIONAL, comp).components[0, 1, 1, 0] == 3


class TestStorageLayout:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_float_jacobi_matches_eval_and_exact(self, n):
        fam = build_clifford_family(n, 3)
        R = make_clifford(n, Fraction(5, 7), [(Fraction(-2, 3), J)
                                              for J in fam.structures])
        Rf = R.to_float()
        g = sample_stream(70 + n)
        x = np.array([Fraction(int(v), 4) for v in g.integers(-4, 5, n)],
                     dtype=object)
        xf = x.astype(np.float64)
        got = jacobi_matrix(Rf, xf)
        assert got.dtype == np.float64
        exact = np.asarray(jacobi_matrix(R, x), dtype=np.float64)
        assert np.abs(got - exact).max() <= 1e-12
        e = np.eye(n)
        for w, i in itertools.product(range(n), repeat=2):
            assert abs(got[w, i] - eval_tensor(Rf, e[i], xf, xf, e[w])) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_float_jacobi_is_its_row_of_the_block(self, n):
        from osscheck.curvature import jacobi_matrices

        Rf = random_curvature(n, 3, sample_stream(90 + n))
        X = sample_stream(91 + n).standard_normal((5, n))
        for k, x in enumerate(X):
            assert np.array_equal(jacobi_matrix(Rf, x), jacobi_matrices(Rf, x[None])[0])
            # the row sits first in its product here, k-th in the stack
            assert np.abs(jacobi_matrix(Rf, x) - jacobi_matrices(Rf, X)[k]).max() \
                <= 1e-13 * np.abs(jacobi_matrix(Rf, x)).max()

    def test_both_modes_share_one_layout(self):
        from osscheck.curvature import _RJ, _as_matrix, _as_tensor, _read_off

        J = build_clifford_family(4, 1).structures[0]
        R = make_clifford(4, 1, [(-1, J)])
        Rf = R.to_float()
        assert np.array_equal(Rf._matrix, R._matrix.astype(np.float64))
        # R^J is built in the layout, and sums, scalings and conversions of
        # stored tensors keep it, so _as_matrix hands them through uncopied
        G = np.multiply.outer(J, J)
        for t in (_as_tensor(_read_off(_RJ[1], G, 4), 4), Rf.components * 2.0,
                  R.numerators.astype(object) * 3, R.numerators + R.numerators):
            assert np.shares_memory(_as_matrix(t), t)
        c = np.ascontiguousarray(Rf.components)
        assert not np.shares_memory(_as_matrix(c), c)


class TestScalarMode:
    """Every constructor takes one of the two scalar modes, and names any
    other mode it is given."""

    def test_curvature_tensor(self):
        with pytest.raises(ValueError, match="'float32'"):
            CurvatureTensor(4, "float32", np.zeros((4,) * 4))

    def test_constant_curvature(self):
        with pytest.raises(ValueError, match="'float32'"):
            make_constant_curvature(4, 1, "float32")

    def test_rj(self):
        J = build_clifford_family(4, 1).structures[0]
        with pytest.raises(ValueError, match="'x'"):
            make_rj(J, "x")

    def test_clifford(self):
        fam = build_clifford_family(4, 3)
        for terms in ([(-1, J) for J in fam.structures], []):
            with pytest.raises(ValueError, match="'Rational'"):
                make_clifford(4, 1, terms, mode="Rational")

    def test_from_symmetric(self):
        with pytest.raises(ValueError, match="'Float64'"):
            make_from_symmetric([np.eye(3)], [1.0], mode="Float64")
        with pytest.raises(ValueError, match="'Float64'"):
            make_from_symmetric([], [], mode="Float64", n=3)

    def test_both_modes_still_build(self):
        for mode in (FLOAT64, RATIONAL):
            assert make_constant_curvature(3, 1, mode).mode == mode
            assert make_from_symmetric([np.eye(3)], [1], mode=mode).mode == mode


# ---------------------------------------------------------------------------
# R1, R^S and R^J come from the integer numerators of their matrix.  The
# oracle is the earlier construction: n^4 exact components, cleared entry by
# entry (rational), or summed term by term (float).
# ---------------------------------------------------------------------------

def _oracle_from_symmetric(S_list, coeffs, mode):
    acc = None
    for S, c in zip(S_list, coeffs):
        S = np.asarray(S)
        if mode == RATIONAL:
            S = np.array([[Fraction(v) for v in row] for row in S.tolist()],
                         dtype=object)
        else:
            S = np.asarray(S, dtype=np.float64)
        cc = Fraction(c) if mode == RATIONAL else float(c)
        acc = spanning_rule(S) * cc if acc is None else acc + spanning_rule(S) * cc
    n = acc.shape[0]
    return CurvatureTensor(n, mode, acc, f"from_symmetric(n={n}, terms={len(S_list)})")


def _oracle_make_rj(J, mode):
    J = np.asarray(J)
    J = (np.asarray(J, dtype=np.float64) if mode == FLOAT64
         else np.array([[Fraction(v) for v in row] for row in J.tolist()],
                       dtype=object))
    return CurvatureTensor(J.shape[0], mode, rj_rule(J), f"rj(n={J.shape[0]})")


def _assert_identical(got, want):
    from osscheck.tensorio import _document_text

    assert (got.mode, got.dim, got.provenance) == (want.mode, want.dim, want.provenance)
    assert got.denominator == want.denominator
    assert got._matrix.dtype == want._matrix.dtype
    if got.mode == RATIONAL:
        assert got.numerators.tolist() == want.numerators.tolist()
    else:  # bit for bit, the sign of zero included
        assert got._matrix.tobytes() == want._matrix.tobytes()
    assert _document_text(got) == _document_text(want)


def _symmetric_ints(n, seed, bound=5):
    a = sample_stream(seed).integers(-bound, bound + 1, size=(n, n))
    return a + a.T


def _symmetric_cases():
    """(name, S_list, coeffs): int64, object-int, Fraction and float S, and
    entries and denominators beyond int64."""
    n = 5
    ints = [_symmetric_ints(n, s) for s in (1, 2, 3)]
    fracs = [np.array(S.tolist(), dtype=object) * Fraction(1, d)
             for S, d in zip(ints, (3, 7, 1))]
    floats = [0.1 * S for S in ints]
    huge = [np.array(S.tolist(), dtype=object) * 2**70 for S in ints[:2]]
    wide = [np.array(S.tolist(), dtype=object) * Fraction(1, 2**65 + 1) for S in ints[1:]]
    return [
        ("int64", ints, [Fraction(1, 2), -3, Fraction(5, 7)]),
        ("object ints", [np.array(S.tolist(), dtype=object) for S in ints], [1, 2, -1]),
        ("fraction", fracs, [Fraction(2, 3), 1, Fraction(-1, 5)]),
        ("float", floats, [1, Fraction(1, 3), 2]),
        ("mixed", [ints[0], fracs[1], floats[2]], [Fraction(1, 3), 2, -1]),
        ("beyond int64", huge, [Fraction(1, 3), 1]),
        ("denominators beyond int64", wide, [1, Fraction(3, 2**64 + 13)]),
    ]


def _skew_cases():
    J = build_clifford_family(8, 1).structures[0]
    a = sample_stream(31).integers(-4, 5, size=(6, 6))
    skew = a - a.T
    return [
        ("clifford int", J),
        ("random int", skew),
        ("int beyond int64 products", skew * 2**40),
        ("clifford fraction", J.astype(object) * Fraction(1, 3)),
        ("random fraction", np.array(
            [[Fraction(int(v), 1 + (i + j) % 4) for j, v in enumerate(row)]
             for i, row in enumerate(skew)], dtype=object)),
        ("float integers", skew.astype(np.float64)),
    ]


class TestGeneratorParity:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    @pytest.mark.parametrize("case", _symmetric_cases(), ids=lambda c: c[0])
    def test_from_symmetric(self, case, mode):
        _, S_list, coeffs = case
        _assert_identical(make_from_symmetric(S_list, coeffs, mode),
                          _oracle_from_symmetric(S_list, coeffs, mode))

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    @pytest.mark.parametrize("case", _skew_cases(), ids=lambda c: c[0])
    def test_rj(self, case, mode):
        _assert_identical(make_rj(case[1], mode), _oracle_make_rj(case[1], mode))

    def test_dtypes_follow_the_int64_rule(self):
        cases = dict((name, (S, c)) for name, S, c in _symmetric_cases())
        assert make_from_symmetric(*cases["int64"], RATIONAL)._matrix.dtype == np.int64
        assert make_from_symmetric(*cases["beyond int64"], RATIONAL)._matrix.dtype == object
        big = dict(_skew_cases())["int beyond int64 products"]
        assert make_rj(big, RATIONAL)._matrix.dtype == object

    @pytest.mark.parametrize("n, k", [(4, 3), (7, 1)])
    def test_random_curvature_is_its_from_symmetric_sum(self, n, k):
        from osscheck.curvature import random_generators

        got = random_curvature(n, k, sample_stream(40 + n))
        want = _oracle_from_symmetric(
            *random_generators(n, k, sample_stream(40 + n)), FLOAT64)
        assert got.provenance == f"random(n={n}, k_terms={k})"
        assert got._matrix.tobytes() == want._matrix.tobytes()


class TestExactGeneratorChecks:
    """In rational mode the symmetry of S and the skewness of J are checked
    on the exact matrix the tensor is built from, not on its float input."""

    def test_float_s_symmetric_only_within_tolerance(self):
        S = np.array([[1.0, 0.5], [0.5 + 1e-12, 2.0]])
        assert validate_symmetries(make_from_symmetric([S], [1], FLOAT64)).passed
        with pytest.raises(ValueError, match="not symmetric"):
            make_from_symmetric([S], [1], RATIONAL)

    def test_integer_s_is_checked_exactly(self):
        S = np.array([[0, 10**17], [10**17 + 1, 0]], dtype=np.int64)
        with pytest.raises(ValueError, match="not symmetric"):
            make_from_symmetric([S], [1], RATIONAL)

    def test_integer_valued_float_j_skew_only_within_tolerance(self):
        J = np.array([[0.0, -1e10], [1e10 + 1, 0.0]])
        with pytest.raises(ValueError, match="not skew-adjoint"):
            make_rj(J, RATIONAL)

    def test_non_integer_float_j_keeps_its_error(self):
        J = np.array([[0.0, -0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="needs exact"):
            make_rj(J, RATIONAL)

    def test_integer_valued_float_j_beyond_int64(self):
        J = np.array([[0.0, 2.0**70], [-(2.0**70), 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = make_rj(J, RATIONAL)
        want = make_rj(np.array([[0, 2**70], [-(2**70), 0]], dtype=object), RATIONAL)
        _assert_identical(R, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_s_raises_value_error_without_a_warning(self, bad):
        S = np.array([[bad, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                make_from_symmetric([S], [1], RATIONAL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_j_raises_without_a_warning(self, bad):
        J = np.array([[0.0, bad], [-bad, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs exact"):
                make_rj(J, RATIONAL)

    def test_float_mode_names_an_entry_beyond_float_range(self):
        S = np.array([[10**400, 0], [0, 1]], dtype=object)
        with pytest.raises(ValueError, match=r"entry \(0, 0\) is beyond float range"):
            make_from_symmetric([S], [1], FLOAT64)
        J = np.array([[0, Fraction(10**400, 3)], [Fraction(-(10**400), 3), 0]],
                     dtype=object)
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is beyond float range"):
            make_rj(J, FLOAT64)

    def test_fraction_j_is_checked_exactly(self):
        J = np.array([[0, Fraction(-1, 3)], [Fraction(1, 3) + Fraction(1, 10**30), 0]],
                     dtype=object)
        with pytest.raises(ValueError, match="not skew-adjoint"):
            make_rj(J, RATIONAL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_float_generator_names_its_entry(bad):
    J = build_clifford_family(4, 1).structures[0].astype(float)
    J[0, 1] = bad
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
        make_rj(J, FLOAT64)
    S = np.eye(4)
    S[0, 1] = bad
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
        make_from_symmetric([S], [1], FLOAT64)


def test_rational_constructors_clear_only_their_matrices(monkeypatch, tmp_path):
    # no constructor builds the n^4 exact components to clear them entry by
    # entry: clear_denominators only ever sees an n x n matrix or less
    from osscheck import curvature
    from osscheck.tensorio import dump_tensor, load_tensor

    n = 8
    clear = curvature.clear_denominators

    def refuse(arr):
        assert np.asarray(arr).size <= n * n, "n^4 components cleared"
        return clear(arr)

    monkeypatch.setattr(curvature, "clear_denominators", refuse)
    ints = [_symmetric_ints(n, s) for s in (5, 6)]
    fam = build_clifford_family(n, 3)
    J = fam.structures[0]
    built = [
        make_constant_curvature(n, Fraction(2, 3), RATIONAL),
        make_constant_curvature(n, 0.5, FLOAT64),
        make_rj(J, RATIONAL),
        make_rj(J.astype(object) * Fraction(1, 3), RATIONAL),
        make_rj(J.astype(np.float64), RATIONAL),
        make_rj(J, FLOAT64),
        make_clifford(n, Fraction(1, 3), [(Fraction(-1, 7), Jx) for Jx in fam.structures]),
        make_clifford(n, 1, [(-1, Jx) for Jx in fam.structures], mode=FLOAT64),
        make_from_symmetric(ints, [Fraction(1, 2), 3], RATIONAL),
        make_from_symmetric([ints[0].astype(object) * Fraction(1, 5), 0.25 * ints[1]],
                            [1, 2**70], RATIONAL),
        make_from_symmetric(ints, [0.5, 3], FLOAT64),
        make_from_symmetric([], [], RATIONAL, n=n),
        random_curvature(n, 3, sample_stream(7)),
    ]
    built.append(built[6].scaled(Fraction(5, 2**70 + 1)))
    dump_tensor(built[-1], tmp_path / "c.json")
    built.append(load_tensor(tmp_path / "c.json"))
    assert built[-1].denominator > 2**70
    for R in built:
        assert validate_symmetries(R).passed, R.provenance
