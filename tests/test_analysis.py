from fractions import Fraction

import numpy as np
import pytest

from osscheck import (
    build_clifford_family,
    check_eigen_bianchi_identity,
    check_einstein,
    check_jacobi_dual,
    check_jacobi_orthogonal,
    check_osserman,
    check_polarization,
    check_ricci_sum,
    check_two_root_decomposition,
    classify_k_root,
    eval_tensor,
    jacobi_matrix,
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    random_curvature,
    reduced_jacobi,
    ricci_operator,
    sample_stream,
)
from osscheck import analysis
from osscheck.analysis import _eigenvectors_with_values
from osscheck.curvature import CurvatureTensor
from osscheck.linalg import FLOAT64, RATIONAL, PreconditionError, eigh


def clifford_tensor(n, m, mode=RATIONAL, mus=None, mu0=1):
    fam = build_clifford_family(n, m)
    if mus is None:
        mus = [-1] * m
    return make_clifford(n, mu0, list(zip(mus, fam.structures)), mode=mode)


@pytest.fixture(scope="module")
def quaternionic8():
    return clifford_tensor(8, 3)


@pytest.fixture(scope="module")
def random4():
    return random_curvature(4, 3, sample_stream(1000))


class TestJacobiOrthogonal:
    def test_constant_curvature_exact(self):
        R = make_constant_curvature(5, Fraction(7, 3), mode=RATIONAL)
        rep = check_jacobi_orthogonal(R, samples=50)
        assert rep.passed and rep.worst_residual == 0

    def test_clifford_exact_all_dims(self):
        g = sample_stream(77)
        for n in (4, 8, 16):
            m = {4: 3, 8: 7, 16: 8}[n]
            mus = [Fraction(int(g.integers(-9, 10)), int(g.integers(1, 10)))
                   for _ in range(m)]
            R = clifford_tensor(n, m, mus=mus,
                                mu0=Fraction(int(g.integers(-9, 10)),
                                             int(g.integers(1, 10))))
            rep = check_jacobi_orthogonal(R, samples=25, seed=n)
            assert rep.passed and rep.worst_residual == 0

    def test_random_fails(self, random4):
        rep = check_jacobi_orthogonal(random4, samples=50)
        assert not rep.passed
        assert rep.worst_residual > 1e-3

    def test_float_mode_on_clifford(self, quaternionic8):
        rep = check_jacobi_orthogonal(quaternionic8.to_float(), samples=100)
        assert rep.passed

    def test_deterministic_reports(self, quaternionic8):
        a = check_jacobi_orthogonal(quaternionic8, samples=20, seed=3)
        b = check_jacobi_orthogonal(quaternionic8, samples=20, seed=3)
        assert a.worst_residual == b.worst_residual
        assert a.witness == b.witness


class TestJacobiDual:
    def test_constant(self):
        rep = check_jacobi_dual(make_constant_curvature(4, 1), samples=20)
        assert rep.passed

    def test_orthogonal_implies_dual(self, quaternionic8):
        # Jacobi-orthogonal tensors must also be Jacobi-dual
        assert check_jacobi_orthogonal(quaternionic8, samples=25).passed
        assert check_jacobi_dual(quaternionic8, samples=50).passed

    def test_random_fails(self, random4):
        rep = check_jacobi_dual(random4, samples=50)
        assert not rep.passed


class TestOsserman:
    def test_constant_any_kappa(self):
        for kappa in (-2.0, 0.0, 3.0):
            rep = check_osserman(make_constant_curvature(4, kappa), samples=50)
            assert rep.passed

    def test_dim8_charpoly_product_oracle(self, quaternionic8):
        rep = check_osserman(quaternionic8, samples=100)
        assert rep.passed
        # coefficients must match the expanded product (x-4)^3 (x-1)^4
        want = np.poly([4, 4, 4, 1, 1, 1, 1])
        x0 = np.array([1.0] + [0.0] * 7)
        red = reduced_jacobi(quaternionic8.to_float(), x0)
        got = np.poly(np.linalg.eigvalsh(red.matrix))
        assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_random_fails(self, random4):
        rep = check_osserman(random4, samples=50)
        assert not rep.passed


class TestEinstein:
    def test_constant(self):
        rep = check_einstein(make_constant_curvature(5, 1, RATIONAL))
        assert rep.passed
        assert rep.witness["einstein_constant"] == 4

    def test_clifford_constant_formula(self, quaternionic8):
        rep = check_einstein(quaternionic8)
        assert rep.passed and rep.worst_residual == 0
        # mu0 (n-1) - 3 sum(mu_i) = 7 + 9
        assert rep.witness["einstein_constant"] == 16

    def test_nonscalar_symmetric_fails(self):
        S = np.array([[2, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=object)
        R = make_from_symmetric([S], [1], mode=RATIONAL)
        # direct Ricci oracle: compute the trace form by loops
        n = 3
        ric = ricci_operator(R)
        for w in range(n):
            for y in range(n):
                s = sum(R.components[y, i, i, w] for i in range(n))
                assert ric[w, y] == s
        assert not check_einstein(R).passed


class TestKRoot:
    def test_constant_one_root(self):
        cls = classify_k_root(make_constant_curvature(4, 1), samples=20)
        assert cls.k == 1
        assert cls.multiplicities == [3]
        assert abs(cls.centers[0] - 1) <= 1e-9
        assert cls.per_sample_agreement

    def test_dim4_two_root(self):
        cls = classify_k_root(clifford_tensor(4, 1), samples=50)
        assert cls.k == 2
        assert cls.multiplicities == [2, 1]
        assert np.allclose(cls.centers, [1, 4], atol=1e-9)
        assert cls.per_sample_agreement

    def test_dim8_two_root(self, quaternionic8):
        cls = classify_k_root(quaternionic8, samples=50)
        assert (cls.k, cls.multiplicities) == (2, [4, 3])
        assert np.allclose(cls.centers, [1, 4], atol=1e-9)

    def test_multiplicities_sum(self, quaternionic8):
        cls = classify_k_root(quaternionic8, samples=5)
        assert sum(cls.multiplicities) == quaternionic8.dim - 1


class TestTwoRootDecomposition:
    def test_dim8(self, quaternionic8):
        rep = check_two_root_decomposition(quaternionic8, samples=100)
        assert rep.passed
        assert abs(rep.witness["lhs"]) <= 1e-9

    def test_dim4(self):
        rep = check_two_root_decomposition(clifford_tensor(4, 1), samples=100)
        assert rep.passed

    def test_precondition_one_root(self):
        with pytest.raises(PreconditionError):
            check_two_root_decomposition(make_constant_curvature(4, 1))

    def test_x_inside_first_eigenspace_degenerates(self, quaternionic8):
        # X2 = 0 makes the right-hand side vanish term by term
        Rf = quaternionic8.to_float()
        y = np.array([1.0] + [0.0] * 7)
        spaces = _eigenvectors_with_values(Rf, y, cluster_tol=0.75)
        (l1, v1), (l2, v2) = spaces
        x = v1[:, 0]
        b1 = jacobi_matrix(Rf, x).dot(y).dot(v2 @ (v2.T @ x))
        assert abs(b1) <= 1e-12
        lhs = jacobi_matrix(Rf, x).dot(y).dot(jacobi_matrix(Rf, y).dot(x))
        assert abs(lhs) <= 1e-9


class TestEigenBianchi:
    def test_clifford_dims_4_8(self, quaternionic8):
        for R in (clifford_tensor(4, 3), quaternionic8):
            rep = check_eigen_bianchi_identity(R, samples=30)
            assert rep.passed

    def test_same_eigenspace_triple_is_trivially_zero(self):
        la = lb = lc = 2.5
        assert (lc - 2 * lb + la) == 0.0
        assert (lc + lb - 2 * la) == 0.0

    def test_precondition_non_osserman(self):
        R = random_curvature(4, 3, sample_stream(2000))
        with pytest.raises(PreconditionError):
            check_eigen_bianchi_identity(R, samples=5)

    def test_cross_check_derivation_line(self, quaternionic8):
        # g(J_X(A+B+C), J_{A+B+C}X) must equal the eigenvalue-weighted sum
        # of curvature components; both sides computed independently
        Rf = quaternionic8.to_float()
        for i in range(10):
            x = sample_stream(31, i).standard_normal(8)
            x /= np.linalg.norm(x)
            red = reduced_jacobi(Rf, x)
            vals, vecs = np.linalg.eigh(red.matrix)
            amb = red.frame @ vecs
            ia, ib, ic = 0, 3, 5
            a, b, c = amb[:, ia], amb[:, ib], amb[:, ic]
            la, lb, lc = vals[ia], vals[ib], vals[ic]
            s = a + b + c
            lhs = jacobi_matrix(Rf, x).dot(s).dot(jacobi_matrix(Rf, s).dot(x))
            rhs = (la * (eval_tensor(Rf, x, b, c, a) + eval_tensor(Rf, x, c, b, a))
                   + lb * (eval_tensor(Rf, x, a, c, b) + eval_tensor(Rf, x, c, a, b))
                   + lc * (eval_tensor(Rf, x, a, b, c) + eval_tensor(Rf, x, b, a, c)))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPolarization:
    def test_exact_on_rational_random(self):
        g = sample_stream(40)
        Ss = []
        for _ in range(3):
            a = g.integers(-3, 4, size=(5, 5))
            Ss.append(np.array((a + a.T).tolist(), dtype=object))
        R = make_from_symmetric(Ss, [Fraction(1, 2), 2, Fraction(-1, 3)],
                                mode=RATIONAL)
        rep = check_polarization(R, samples=30)
        assert rep.passed and rep.worst_residual == 0

    def test_float_mode(self, random4):
        rep = check_polarization(random4, samples=30)
        assert rep.passed

    def test_norm_equality_consequence_on_clifford(self, quaternionic8):
        # for Jacobi-orthogonal R and X perp Y: |J_X Y| = |J_Y X|
        Rf = quaternionic8.to_float()
        from osscheck.linalg import random_orthonormal_pair

        for i in range(20):
            x, y = random_orthonormal_pair(8, sample_stream(41, i))
            a = np.linalg.norm(jacobi_matrix(Rf, x).dot(y))
            b = np.linalg.norm(jacobi_matrix(Rf, y).dot(x))
            assert a == pytest.approx(b, abs=1e-9)


class TestRicciSum:
    def test_constant_dim5(self):
        R = make_constant_curvature(5, 1, RATIONAL)
        rep = check_ricci_sum(R)
        assert rep.passed
        assert np.array_equal(np.asarray(ricci_operator(R), dtype=float),
                              4 * np.eye(5))

    def test_dim8_quaternionic(self, quaternionic8):
        rep = check_ricci_sum(quaternionic8)
        assert rep.passed
        assert np.array_equal(
            np.asarray(ricci_operator(quaternionic8), dtype=float),
            16 * np.eye(8))

    def test_holds_for_all_tensors(self, random4):
        rep = check_ricci_sum(random4)
        assert rep.passed
        assert float(rep.worst_residual) <= 1e-12


class TestScalingEquivariance:
    def test_verdicts_agree(self, quaternionic8, random4):
        for R in (quaternionic8, random4):
            for c in (2, Fraction(1, 3)):
                S = R.scaled(c if R.mode == RATIONAL else float(c))
                a = check_jacobi_orthogonal(R, samples=20, seed=5)
                b = check_jacobi_orthogonal(S, samples=20, seed=5)
                assert a.verdict == b.verdict

    def test_raw_witness_scales_quadratically(self, random4):
        # J_X is linear in R, so the raw inner product g(J_X Y, J_Y X)
        # picks up a factor c^2 when R is scaled by c
        from osscheck.linalg import random_orthonormal_pair

        x, y = random_orthonormal_pair(4, sample_stream(60, 0))
        S = random4.scaled(3.0)
        raw_r = jacobi_matrix(random4, x).dot(y).dot(jacobi_matrix(random4, y).dot(x))
        raw_s = jacobi_matrix(S, x).dot(y).dot(jacobi_matrix(S, y).dot(x))
        assert raw_s == pytest.approx(9 * raw_r, rel=1e-9)


def test_negative_controls_small():
    # full 100-seed version lives in the acceptance suite
    fails = 0
    for seed in range(20):
        R = random_curvature(4, 3, sample_stream(seed))
        if not check_osserman(R, samples=10).passed:
            fails += 1
    assert fails >= 19


class TestToleranceAndNaN:
    def test_einstein_honours_explicit_tolerance(self, quaternionic8):
        assert check_einstein(quaternionic8, tol=1e-9).tolerance == 1e-9
        assert check_einstein(quaternionic8).tolerance == 0

    def test_all_nan_tensor_fails_osserman(self):
        # from n = 3 on, LAPACK does not converge on a NaN matrix
        for n in (2, 4):
            R = CurvatureTensor(n, FLOAT64, np.full((n,) * 4, np.nan), "nan")
            rep = check_osserman(R, samples=5)
            assert not rep.passed
            assert np.isnan(rep.worst_residual)
            assert rep.witness["sample"] == 1

    def test_nan_spectrum_fails_jacobi_dual_and_k_root(self):
        R = CurvatureTensor(4, FLOAT64, np.full((4,) * 4, np.nan), "nan")
        rep = check_jacobi_dual(R, samples=3)
        assert not rep.passed and np.isnan(rep.worst_residual)
        for samples in (1, 3):
            assert not classify_k_root(R, samples=samples).per_sample_agreement

    def test_first_nan_is_worst(self):
        from osscheck.analysis import _worse

        nan = float("nan")
        assert _worse(nan, 1.0) and not _worse(1.0, nan) and not _worse(nan, nan)
        assert _worse(2.0, 1.0) and not _worse(1.0, 1.0)

    def test_nan_tensor_fails_eigen_bianchi_precheck(self):
        for n in (2, 4):
            R = CurvatureTensor(n, FLOAT64, np.full((n,) * 4, np.nan), "nan")
            with pytest.raises(PreconditionError):
                check_eigen_bianchi_identity(R, samples=5)


class TestCheckerTable:
    def test_every_checker_defaults_tol_to_none(self):
        import inspect

        from osscheck import analysis

        for name, (checker, takes) in analysis.CHECKERS.items():
            params = inspect.signature(getattr(analysis, checker)).parameters
            assert params["tol"].default is None, name
            assert params["tol"].kind is inspect.Parameter.KEYWORD_ONLY, name
            assert set(takes) <= set(params), name

    def test_run_check_looks_checkers_up_when_called(self, monkeypatch):
        from osscheck import analysis

        calls = []
        original = analysis.check_osserman

        def spy(R, **kw):
            calls.append(kw)
            return original(R, **kw)

        monkeypatch.setattr(analysis, "check_osserman", spy)
        rep = analysis.run_check("osserman", make_constant_curvature(3, 1),
                                 samples=4, seed=2, tol=None, mode=None)
        assert rep.passed
        assert calls == [{"samples": 4, "seed": 2, "tol": None}]

    def test_no_checker_takes_a_mode(self):
        # the scalar mode belongs to the tensor: convert it with to_float()
        import inspect

        checkers = [getattr(analysis, c) for c, _ in analysis.CHECKERS.values()]
        for checker in checkers + [classify_k_root]:
            assert "mode" not in inspect.signature(checker).parameters, checker
        for _, takes in analysis.CHECKERS.values():
            assert "mode" not in takes

    def test_exact_checkers_read_integers(self, quaternionic8, monkeypatch):
        # no rational Jacobi matrix of Fractions is built by any checker
        def refuse(R, x):
            assert R.mode == FLOAT64, "jacobi_matrix called on a rational tensor"
            return jacobi_matrix(R, x)

        monkeypatch.setattr(analysis, "jacobi_matrix", refuse)
        for name in analysis.CHECKERS:
            assert analysis.run_check(name, quaternionic8, samples=4, seed=1,
                                      tol=None).passed, name


class TestSampleCounts:
    @pytest.mark.parametrize("name", [n for n, (_, takes) in
                                      analysis.CHECKERS.items() if "samples" in takes])
    def test_zero_samples_rejected(self, name, quaternionic8):
        with pytest.raises(PreconditionError, match="samples must be at least"):
            analysis.run_check(name, quaternionic8, samples=0, seed=0, tol=None)

    def test_k_root_zero_samples_rejected(self, quaternionic8):
        with pytest.raises(PreconditionError, match="samples must be at least 1"):
            classify_k_root(quaternionic8, samples=0)

    def test_one_osserman_sample_compares_nothing(self, quaternionic8):
        with pytest.raises(PreconditionError, match="samples must be at least 2"):
            check_osserman(quaternionic8, samples=1)
        with pytest.raises(PreconditionError,
                           match="precheck_samples must be at least 2"):
            check_eigen_bianchi_identity(quaternionic8, samples=3,
                                         precheck_samples=1)


SAMPLING = [n for n, (_, takes) in analysis.CHECKERS.items() if "samples" in takes]


class TestSweep:
    """Every sampling checker runs through the one sweep of analysis._sweep."""

    @pytest.mark.parametrize("name", SAMPLING)
    def test_nan_tensor_names_the_first_sample(self, name):
        R = CurvatureTensor(4, FLOAT64, np.full((4,) * 4, np.nan), "nan")
        try:
            rep = analysis.run_check(name, R, samples=3, seed=0, tol=None)
        except PreconditionError:
            return
        assert not rep.passed and np.isnan(float(rep.worst_residual))
        # osserman compares against sample 0, so its first sample is 1
        assert rep.witness["sample"] == (1 if name == "osserman" else 0)

    @pytest.mark.parametrize("name", SAMPLING)
    def test_every_report_carries_the_sampling_note(self, name, quaternionic8):
        rep = analysis.run_check(name, quaternionic8, samples=3, seed=0, tol=None)
        assert rep.notes == "sampling check: pass means no counterexample found"
