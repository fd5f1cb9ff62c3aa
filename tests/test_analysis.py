import gc
import itertools
import json
import weakref
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
from osscheck.curvature import CurvatureTensor, _first_slot
from osscheck.linalg import (
    FLOAT64,
    RATIONAL,
    Field,
    PreconditionError,
    cluster_rows,
    default_cluster_tol,
    eigh,
    householder_frame,
)
from oracles import eval_tensor, orthogonal_int_pair as orthogonal_int_pair_draw
from oracles import int_vector as int_vector_draw, orthonormal_pair, unit_vector


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

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 15, 16])
    def test_float_witness_is_an_orthonormal_pair(self, n):
        # y is the table's first n normals projected off x twice: the
        # witness of every seed is a unit x and a unit y orthogonal to it
        R = random_curvature(n, 3, sample_stream(n))
        for seed in range(5):
            w = check_jacobi_orthogonal(R, samples=100, seed=seed).witness
            x, y = np.array(w["x"]), np.array(w["y"])
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-14
            assert abs(x.dot(y)) <= 1e-14, (seed, x.dot(y))

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
        got = np.poly(np.linalg.eigvalsh(red))
        assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())

    def test_random_fails(self, random4):
        rep = check_osserman(random4, samples=50)
        assert not rep.passed

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_reference_is_sample_zero(self, n, monkeypatch):
        from osscheck.linalg import charpoly, random_unit_vector

        for R in (clifford_tensor(n, 3).to_float(),
                  random_curvature(n, 2, sample_stream(60 + n))):
            rows = _per_sample(monkeypatch, "osserman", R, 40)
            rep = check_osserman(R, samples=40, seed=3)
            # the standalone spectrum of sample 0, alone in its product
            x0 = random_unit_vector(n, sample_stream(3, 0))
            vals0 = eigh(reduced_jacobi(R, x0[None]))[0][0]
            ref = charpoly(vals0 / max(1.0, float(np.abs(vals0).max())))
            assert rep.witness["reference_x"] == list(x0)
            assert np.array_equal(rep.witness["reference_coefficients"], ref)
            assert rows["osserman", 0][0] == [repr(0.0)]


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

    def test_a_sample_with_three_clusters_is_named(self, monkeypatch):
        # one row of the second block reports three clusters: the sweep
        # stops there and names that sample
        calls = []

        def cluster_rows_3(vals, tol):
            labels, centers, mults = cluster_rows(vals, tol)
            if np.isscalar(tol):  # the sweep's, not classify_k_root's
                calls.append(len(vals))
                if len(calls) == 2:
                    mults = mults.copy()
                    mults[5] = [1, 1, 1]
            return labels, centers, mults

        monkeypatch.setattr(analysis, "cluster_rows", cluster_rows_3)
        block = analysis._FLOAT_BLOCK
        with pytest.raises(PreconditionError,
                           match=f"sample {block + 5} produced 3 eigenvalue clusters"):
            check_two_root_decomposition(clifford_tensor(4, 1), samples=block + 8)
        assert calls == [block, 8]

    def test_x_inside_first_eigenspace_degenerates(self, quaternionic8):
        # X2 = 0 makes the right-hand side vanish term by term
        Rf = quaternionic8.to_float()
        y = np.array([1.0] + [0.0] * 7)
        vals, vecs = eigh(reduced_jacobi(Rf, y))
        labels, _, mults = cluster_rows(vals[None], 0.75)
        assert np.count_nonzero(mults) == 2
        v1, v2 = (householder_frame(y) @ vecs[:, labels[0] == q] for q in (0, 1))
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

    def test_dimension_three_has_no_triples(self, monkeypatch):
        # n - 1 = 2 eigenvectors make no triple: no residual, no verdict
        def refuse(*args, **kwargs):
            raise AssertionError("the Osserman precheck ran")

        monkeypatch.setattr(analysis, "check_osserman", refuse)
        for n in (2, 3):
            with pytest.raises(PreconditionError, match="at least 4, found"):
                check_eigen_bianchi_identity(make_constant_curvature(n, 1), samples=5)

    def test_every_triple_at_every_dimension(self, clifford16, monkeypatch):
        rows = {key: row for key, row in
                _per_sample(monkeypatch, "eigen-bianchi", clifford16, 3).items()
                if key[0] == "eigen-bianchi"}  # not the Osserman precheck
        assert sorted(rows) == [("eigen-bianchi", s) for s in range(3)]
        every = [list(t) for t in itertools.combinations(range(15), 3)]
        for residuals, fields in rows.values():
            assert len(residuals) == len(every) == 455
            assert [json.loads(f)["triple"] for f in fields] == every
        rep = check_eigen_bianchi_identity(clifford16, samples=3, seed=3)
        assert rep.worst_residual == max(float(r) for residuals, _ in rows.values()
                                         for r in residuals)

    def test_cross_check_derivation_line(self, quaternionic8):
        # g(J_X(A+B+C), J_{A+B+C}X) must equal the eigenvalue-weighted sum
        # of curvature components; both sides computed independently
        Rf = quaternionic8.to_float()
        for i in range(10):
            x = sample_stream(31, i).standard_normal(8)
            x /= np.linalg.norm(x)
            vals, vecs = np.linalg.eigh(reduced_jacobi(Rf, x))
            amb = householder_frame(x) @ vecs
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
        for i in range(20):
            x, y = orthonormal_pair(8, sample_stream(41, i))
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

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_random_route_is_the_per_vector_loop(self, n, monkeypatch):
        from osscheck.linalg import random_orthogonal_matrices

        original, calls = analysis.jacobi_matrices, []

        def spy(R, X):
            calls.append((X, original(R, X)))
            return calls[-1][1]

        monkeypatch.setattr(analysis, "jacobi_matrices", spy)
        Rf = (random_curvature(n, 3, sample_stream(n)) if n < 16
              else clifford_tensor(n, 8).to_float())
        rep = check_ricci_sum(Rf, seed=4)
        (X, J), = calls  # one product over the three bases
        ric = ricci_operator(Rf)
        worst = 0.0
        for b in range(3):
            q = random_orthogonal_matrices(n, (sample_stream(4, b),))[0]
            assert np.array_equal(X[b * n:(b + 1) * n], q.T)
            loop = sum(jacobi_matrix(Rf, q[:, i]) for i in range(n))
            batched = J[b * n:(b + 1) * n].sum(axis=0)
            assert np.abs(batched - loop).max() <= 1e-13 * np.abs(loop).max()
            worst = max(worst, np.abs(loop - ric).max() / (1 + np.abs(ric).max()))
        assert abs(rep.witness["random_basis_residual"] - worst) <= 1e-13

    def test_reports_the_random_basis_residual_only(self, quaternionic8):
        # the Jacobi sum over the standard basis and the Ricci operator add
        # the same scalars of R: comparing them tests nothing
        for R in (quaternionic8, quaternionic8.to_float(), make_constant_curvature(5, 1)):
            rep = check_ricci_sum(R, seed=2)
            assert rep.samples == 3
            assert rep.witness == {"random_basis_residual": rep.worst_residual}

    def test_notes_say_what_it_certifies(self, quaternionic8):
        for R in (quaternionic8, quaternionic8.to_float()):
            assert check_ricci_sum(R).notes == (
                "the identity holds for every 4-tensor: this checks the "
                "library's contractions")


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
        x, y = orthonormal_pair(4, sample_stream(60, 0))
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
            # the reference, sample 0, is the first NaN
            assert rep.witness["sample"] == 0

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
        # no rational Jacobi matrix of Fractions is built by any checker:
        # jacobi_matrix on a rational tensor goes through _jacobi_numerators
        from osscheck import curvature

        def refuse(R, x):
            raise AssertionError("exact Jacobi matrix built at a single vector")

        monkeypatch.setattr(curvature, "_jacobi_numerators", refuse)
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
        # osserman's too: its reference, sample 0, has a residual like the rest
        assert rep.witness["sample"] == 0

    @pytest.mark.parametrize("name", SAMPLING)
    def test_every_report_carries_the_sampling_note(self, name, quaternionic8):
        rep = analysis.run_check(name, quaternionic8, samples=3, seed=0, tol=None)
        want = "sampling check: pass means no counterexample found"
        if name == "polarization":
            want += ("; the identities hold for every tensor skew in its first "
                     "pair: this checks the library's Jacobi contractions")
        assert rep.notes == want


@pytest.fixture(scope="module")
def clifford16():
    """Float dim-16 Clifford tensor with two roots, 1 x7 and 4 x8: every
    sampling checker applies, eigen-Bianchi checks C(15, 3) = 455 triples a
    sample, and jacobi-dual has degenerate eigenspaces."""
    return clifford_tensor(16, 8).to_float()


def _per_sample(monkeypatch, name, R, samples):
    """{(property, sample): (residuals, witness fields of every candidate)}
    of one run, read from every block the engine computes."""
    sweep, rows = analysis._sweep, {}

    def spy(prop, R_, draw, compute, **options):
        def recording(start, *arrays):
            res, fields = compute(start, *arrays)
            for s in range(res.shape[0]):
                cands = [c for c in range(res.shape[1]) if res[s, c] != -np.inf]
                rows[prop, start + s] = (
                    [repr(float(res[s, c])) for c in cands],
                    [json.dumps(fields(s, c)) for c in cands])
            return res, fields
        return sweep(prop, R_, draw, recording, **options)

    with monkeypatch.context() as m:
        m.setattr(analysis, "_sweep", spy)
        analysis.run_check(name, R, samples=samples, seed=3, tol=None)
    return rows


def _loop_winner(values):
    """Witness index of the sequential rule: the first candidate, then each
    value that _worse than the worst so far."""
    worst, win = 0.0, None
    for k, v in enumerate(values):
        if win is None or analysis._worse(v, worst):
            worst, win = v, k
    return worst, win


class TestEngine:
    """The three-phase engine of analysis._sweep: draw, compute, witness."""

    @pytest.mark.parametrize("name", SAMPLING)
    def test_sample_fields_do_not_depend_on_the_sample_count(
            self, name, clifford16, monkeypatch):
        # samples = i + 1 ends a run at sample i, in a partial block; 300
        # crosses block boundaries
        runs = {}
        for samples in (2, 9, 34, 36, 300):
            analysis._store = None  # no run reads the spectra of another
            runs[samples] = _per_sample(monkeypatch, name, clifford16, samples)
        assert len(runs[300]) >= 299
        for samples, rows in runs.items():
            assert rows, samples
            for key, row in rows.items():
                assert row == runs[300][key], (samples, key)

    def test_block_rule_equals_the_worse_loop(self):
        rng = np.random.default_rng(11)
        R = make_constant_curvature(2, 1)
        block = analysis._FLOAT_BLOCK
        samples = 2 * block + 5  # three blocks
        ties = rng.integers(0, 4, (samples, 3)).astype(float)
        nans = ties.copy()
        nans[rng.random(nans.shape) < 0.02] = np.nan
        late_nan = np.zeros((samples, 3))
        late_nan[block + 1, 2] = np.nan
        no_candidate = rng.random((samples, 3))
        no_candidate[:, 1:][rng.random((samples, 2)) < 0.5] = -np.inf
        exact = np.array([[Fraction(int(v), 3) for v in row] for row in ties],
                         dtype=object)
        cases = [np.zeros((samples, 3)), ties, nans, late_nan, no_candidate,
                 rng.random((samples, 1)), exact]
        for values in cases:
            def compute(start, unused, values=values):
                res = values[start:start + len(unused)]
                return res, lambda s, c: {"candidate": c}

            rep = analysis._sweep("rule", R, (Field.normals(1),),
                                  compute, samples=samples, seed=0, tol=1)
            worst, win = _loop_winner(values.reshape(-1))
            i, c = divmod(win, values.shape[1])
            assert rep.witness == {"sample": i, "candidate": c}
            if isinstance(worst, Fraction):
                assert rep.worst_residual == worst
            else:  # bit-equal, NaN included
                assert repr(float(rep.worst_residual)) == repr(float(worst))


def _ints(values):
    return np.array(values, dtype=np.int64)


# Every field combination that a sampling checker declares, and three that
# none does (the unit vector alone and with n normals, and two normal
# vectors), as functions of n: its fields, and its per-sample draw, one call
# at a time (tests/oracles.py)
DRAWS = {
    "unit": (lambda n: (Field.unit(n),), lambda n, s: (unit_vector(n, s),)),
    "unit, 3(n-1) normals": (
        lambda n: (Field.unit(n), Field.normals(3 * (n - 1))),
        lambda n, s: (unit_vector(n, s), s.standard_normal(3 * (n - 1)))),
    "unit, n normals": (lambda n: (Field.unit(n), Field.normals(n)),
                        lambda n, s: (unit_vector(n, s), s.standard_normal(n))),
    "two int vectors": (lambda n: (Field.int_vector(n), Field.int_vector(n)),
                        lambda n, s: (_ints(int_vector_draw(n, s)),
                                      _ints(int_vector_draw(n, s)))),
    "two normal vectors": (lambda n: (Field.normals(n), Field.normals(n)),
                           lambda n, s: (s.standard_normal(n), s.standard_normal(n))),
    "orthogonal int pair": (lambda n: (Field.orthogonal_int_pair(n),),
                            lambda n, s: tuple(map(_ints, orthogonal_int_pair_draw(n, s)))),
}


def _filled(fields, size, seed, samples):
    """The arrays of every block of ``analysis._blocks``, joined."""
    blocks = list(analysis._blocks(size, seed, samples, fields))
    assert [start for start, _ in blocks] == list(range(0, samples, size))
    assert all(a.flags.c_contiguous for _, arrays in blocks for a in arrays)
    return [np.concatenate(a) for a in zip(*(arrays for _, arrays in blocks))]


def _stacked(draw, n, seed, samples, stream=sample_stream):
    """np.stack of the per-sample draws, array by array."""
    return [np.stack(a) for a in zip(*(draw(n, stream(seed, i)) for i in range(samples)))]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


class _Planted:
    """A sample stream whose first ``n`` normals or integers are scaled by
    ``scale``, however the draws split them: 0 plants a zero vector, 1e-8 a
    nonzero one of norm below 1e-6 (integers truncate to zero either
    way)."""

    def __init__(self, stream, scale, n):
        self.stream, self.scale, self.left = stream, scale, n

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def _first_scaled(self, values):
        head = values.reshape(-1)[:self.left]
        head[...] = head * self.scale
        self.left -= len(head)
        return values

    def standard_normal(self, size=None, out=None):
        return self._first_scaled(self.stream.standard_normal(size, out=out))

    def integers(self, *args, **kwargs):
        return self._first_scaled(self.stream.integers(*args, **kwargs))


# the block sizes of an exact and a float sweep
BLOCK_SIZES = (analysis.BLOCK, analysis._FLOAT_BLOCK)


class TestBlockFill:
    """analysis._blocks fills each block in place, and every block equals
    np.stack of its samples' own draws byte for byte."""

    @pytest.mark.parametrize("name", DRAWS)
    def test_block_is_the_stack_of_the_per_sample_draws(self, name):
        fields, draw = DRAWS[name]
        for n in (2, 3, 4, 8, 15, 16):
            for size, samples in itertools.product(BLOCK_SIZES, (1, 31, 32, 33, 70)):
                _assert_same_bytes(_filled(fields(n), size, 100 + n, samples),
                                   _stacked(draw, n, 100 + n, samples))

    @pytest.mark.parametrize("name, tensor, combination", [
        ("osserman", "float4", "unit, 3(n-1) normals"),
        ("k-root", "float4", "unit, 3(n-1) normals"),
        ("jacobi-dual", "float4", "unit, 3(n-1) normals"),
        ("two-root-decomposition", "float8", "unit, 3(n-1) normals"),
        ("eigen-bianchi", "float4", "unit, 3(n-1) normals"),
        ("eigen-bianchi", "float16", "unit, 3(n-1) normals"),
        ("polarization", "rational4", "two int vectors"),
        ("polarization", "float4", "unit, 3(n-1) normals"),
        ("jacobi-orthogonal", "rational4", "orthogonal int pair"),
        ("jacobi-orthogonal", "float4", "unit, 3(n-1) normals"),
    ])
    def test_checkers_declare_these_fields(self, name, tensor, combination,
                                           quaternionic8, clifford16, monkeypatch):
        R = {"rational4": clifford_tensor(4, 3), "float4": clifford_tensor(4, 3).to_float(),
             "float8": quaternionic8.to_float(), "float16": clifford16}[tensor]
        declared, blocks = [], analysis._blocks

        def spy(size, seed, samples, fields, *first):
            declared.append((size, fields))
            return blocks(size, seed, samples, fields, *first)

        monkeypatch.setattr(analysis, "_blocks", spy)
        if name == "k-root":
            classify_k_root(R, samples=2, seed=1)
        else:
            analysis.run_check(name, R, samples=2, seed=1, tol=None)
        monkeypatch.undo()
        # the last declaration is the checker's own, after any precheck, in
        # blocks of the size of its mode; a float spectral checker's is the
        # draw of the shared table, which its precheck may have made
        size, fields = declared[-1]
        assert size == (analysis.BLOCK if tensor == "rational4" else analysis._FLOAT_BLOCK)
        _assert_same_bytes(_filled(fields, size, 9, 33),
                           _stacked(DRAWS[combination][1], R.dim, 9, 33))

    @pytest.mark.parametrize("name", DRAWS)
    def test_a_degenerate_row_is_drawn_again_as_its_sample_is(self, name, monkeypatch):
        fields, draw = DRAWS[name]
        # zero in the first block, and in blocks of one BLAS chunk in a later
        # one; short in the last
        planted = {5: 0.0, 40: 0.0, 69: 1e-8}
        stream, streams = analysis.sample_stream, analysis.sample_streams

        def planted_stream(seed, i=0):
            g = stream(seed, i)
            return _Planted(g, planted[i], n) if i in planted else g

        def planted_streams(seed, indices):
            for i, g in zip(indices, streams(seed, indices)):
                yield _Planted(g, planted[i], n) if i in planted else g

        for n in (2, 4, 16):
            for size in BLOCK_SIZES:
                plain = _filled(fields(n), size, 7, 70)
                with monkeypatch.context() as m:
                    m.setattr(analysis, "sample_stream", planted_stream)
                    m.setattr(analysis, "sample_streams", planted_streams)
                    got = _filled(fields(n), size, 7, 70)
                _assert_same_bytes(got, _stacked(draw, n, 7, 70, planted_stream))
                for i in range(69):
                    same = all(np.array_equal(a[i], b[i]) for a, b in zip(got, plain))
                    assert same == (i not in planted), (n, size, i)


class TestBlockRule:
    """A float sweep's block is two BLAS chunks, an exact sweep's one; the
    reports do not depend on it."""

    @pytest.mark.parametrize("n, m", [(4, 2), (8, 3), (16, 8)])
    def test_reports_equal_those_of_one_chunk_per_block(self, n, m, monkeypatch):
        # two-root Clifford tensors: every sampling checker applies, and
        # polarization and jacobi-orthogonal run exactly and in float
        R = clifford_tensor(n, m)
        Rf = R.to_float()
        runs = [(name, T) for name in SAMPLING
                for T in ((R, Rf) if name in ("polarization", "jacobi-orthogonal")
                          else (Rf,))]
        # a row keeps its position in its chunk; past the first block under
        # either rule
        assert analysis._FLOAT_BLOCK % analysis.BLOCK == 0
        samples = analysis._FLOAT_BLOCK + analysis.BLOCK + 3

        def reports():
            analysis._store = None  # no run reads the spectra of another
            return [analysis.run_check(name, T, samples=samples, seed=5,
                                       tol=None).to_json() for name, T in runs
                    ] + [repr(classify_k_root(Rf, samples=samples, seed=5))]

        default = reports()
        monkeypatch.setattr(analysis, "_FLOAT_BLOCK", analysis.BLOCK)
        assert reports() == default


# The float spectral checkers, in the order the float-sweep benchmark runs
# them on a tensor
SPECTRAL = ("osserman", "jacobi-dual", "k-root", "eigen-bianchi",
            "two-root-decomposition")


def _spectral_report(name, R, samples, seed, precheck_samples=50):
    if name == "k-root":
        return repr(classify_k_root(R, samples=samples, seed=seed))
    if name == "eigen-bianchi":
        return check_eigen_bianchi_identity(
            R, samples=samples, seed=seed, precheck_samples=precheck_samples).to_json()
    return analysis.run_check(name, R, samples=samples, seed=seed, tol=None).to_json()


# The kinds of entry of the float spectral table, in the order of their needs
KINDS = ("draw", "eigh", "clusters", "basis")


def _fresh(R, seed, start, rows, kind):
    """What a table entry computes with no store, for samples start to
    start + rows - 1: their one-call-at-a-time draws, then the eigensolves,
    clusters or eigenbasis table of those rows alone."""
    draw = DRAWS["unit, 3(n-1) normals"][1]
    x, normals = (np.stack(a) for a in zip(*(
        draw(R.dim, sample_stream(seed, i)) for i in range(start, start + rows))))
    vals, vecs = eigh(reduced_jacobi(R, x))
    amb = householder_frame(x) @ vecs
    return {"draw": lambda: (x, normals), "eigh": lambda: (vals, amb),
            "clusters": lambda: cluster_rows(vals, default_cluster_tol(vals)),
            "basis": lambda: (analysis._in_eigenbasis(_first_slot(R), x, amb),),
            }[kind]()


def _held_arrays(store):
    return [a for block in store.blocks.values() for arrays in block.values()
            for a in arrays]


class TestSpectralSharing:
    """The float spectral checkers share one table per (tensor, seed) of
    draws, eigensolves, clusters and eigenbasis tables (analysis._table),
    and every report is the one a fresh store gives."""

    @pytest.mark.parametrize("samples", [36, 100])
    def test_one_pass_per_block_over_the_float_sweep_ops(
            self, samples, quaternionic8, clifford16, monkeypatch):
        calls = []
        # the rows of each call: the draw's from sample `first` on
        rows_of = {"_blocks": lambda args: args[2] - args[4],
                   "cluster_rows": lambda args: len(args[0]),
                   "_first_slot": lambda args: None}
        for fn in ("_blocks", "reduced_jacobi", "eigh", "cluster_rows",
                   "_in_eigenbasis", "_first_slot"):
            def spy(*args, fn=fn, real=getattr(analysis, fn)):
                calls.append((fn, rows_of.get(fn, lambda args: len(args[-1]))(args)))
                return real(*args)
            monkeypatch.setattr(analysis, fn, spy)
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda *args: calls.append(("eigvalsh", None)))
        tensors = (quaternionic8.to_float(), clifford16)
        for R in tensors:
            for name in SPECTRAL:
                _spectral_report(name, R, samples, 4, precheck_samples=12)
        size = analysis._FLOAT_BLOCK
        rows = [min(size, samples - start) for start in range(0, samples, size)]
        # each once per block and tensor, cluster_rows also for two-root's
        # own gap tolerance; the first-slot matrix once per tensor
        per_block = ("_blocks", "reduced_jacobi", "eigh", "cluster_rows",
                     "cluster_rows", "_in_eigenbasis")
        assert sorted(calls) == sorted(
            [(fn, r) for fn in per_block for r in rows * len(tensors)]
            + [("_first_slot", None)] * len(tensors))

    def test_check_all_draws_once_on_a_float_tensor(self, quaternionic8, monkeypatch):
        # every float sampling checker, polarization and jacobi-orthogonal
        # included, reads the table's draw: one block of 64 rows
        drawn, blocks = [], analysis._blocks

        def spy(size, seed, samples, fields, first=0):
            drawn.append(samples - first)
            return blocks(size, seed, samples, fields, first)

        monkeypatch.setattr(analysis, "_blocks", spy)
        R = quaternionic8.to_float()
        for name in analysis.CHECKERS:
            analysis.run_check(name, R, samples=64, seed=3, tol=None)
        assert drawn == [64]

    def test_reports_equal_those_of_a_fresh_store(self, quaternionic8):
        pairs = [(R, seed) for R in (clifford_tensor(4, 2), quaternionic8.to_float())
                 for seed in (1, 2)]
        # 1094 samples: past the rows whose eigenbasis tables fit the store
        # at n = 8
        counts = (12, 36, 100, 300, 1094)
        # each (tensor, seed) through every count, then each checker over
        # every (tensor, seed) in turn
        runs = [(R, seed, samples, name) for R, seed in pairs
                for samples in counts for name in SPECTRAL]
        runs += [(R, seed, 100, name) for name in SPECTRAL for R, seed in pairs]
        for R, seed, samples, name in runs:
            shared = _spectral_report(name, R, samples, seed)
            kept, analysis._store = analysis._store, None
            assert shared == _spectral_report(name, R, samples, seed), (
                name, samples, seed)
            analysis._store = kept

    def test_served_rows_equal_a_fresh_call(self, quaternionic8, monkeypatch):
        R = quaternionic8.to_float()
        drawn, blocks = [], analysis._blocks
        monkeypatch.setattr(analysis, "_blocks",
                            lambda *args: drawn.append(args) or blocks(*args))
        # (block start, rows, whether the request draws): a prefix of what
        # the store holds is served; more rows, or another block, are drawn
        # and computed
        requests = [(0, 40, True), (0, 20, False), (0, 64, True), (0, 30, False),
                    (64, 30, True), (64, 10, False), (0, 64, False), (128, 5, True)]
        for kind in KINDS:
            analysis._store = None
            for start, rows, draws in requests:
                count = len(drawn)
                got = analysis._table(R, 5, start, rows, kind)
                assert len(drawn) == count + draws, (kind, start, rows)
                _assert_same_bytes(got, _fresh(R, 5, start, rows, kind))

    def test_served_arrays_are_read_only(self, quaternionic8, monkeypatch):
        served, table = [], analysis._table

        def spy(*args):
            got = table(*args)
            served.extend(got)
            return got

        monkeypatch.setattr(analysis, "_table", spy)
        R = quaternionic8.to_float()
        # the last blocks' eigenbasis tables lie past the store's budget and
        # are not kept
        for name in SPECTRAL:
            _spectral_report(name, R, 1094, 2)
        stored = _held_arrays(analysis._store)
        assert len(served) > 0 and len(stored) > 0
        assert not all("basis" in b for b in analysis._store.blocks.values())
        for a in served + stored:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0.0

    def test_threads_on_two_tensors_give_the_serial_reports(self, quaternionic8):
        import sys
        import threading

        tensors = (clifford_tensor(4, 2).to_float(), quaternionic8.to_float())

        def reports(R):
            return [_spectral_report(name, R, 100, 7) for name in SPECTRAL]

        serial = []
        for R in tensors:
            analysis._store = None
            serial.append(reports(R))
        results, errors = {k: [] for k in range(4)}, []

        def work(k):
            try:
                for _ in range(3):
                    results[k].append(reports(tensors[k % 2]))
            except Exception as e:  # re-raised below, in the test's thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        for k, got in results.items():
            assert got == [serial[k % 2]] * 3, k

    def test_a_call_replaces_the_store_and_changes_no_earlier_one(self, clifford16):
        check_osserman(clifford16, samples=100, seed=3)
        before = analysis._store
        head, blocks = before[:4], {s: dict(b) for s, b in before.blocks.items()}
        check_jacobi_dual(clifford16, samples=100, seed=3)
        after = analysis._store
        assert after is not before and after.ref() is clifford16
        assert all(a is b for a, b in zip(before[:4], head))
        assert before.blocks == blocks and sorted(blocks) == sorted(after.blocks) == [0, 64]
        for start, block in blocks.items():
            assert sorted(block) == ["draw", "eigh"]
            assert sorted(after.blocks[start]) == ["basis", "clusters", "draw", "eigh"]
            assert all(a is b for k, v in block.items()
                       for a, b in zip(after.blocks[start][k], v))
        # another seed empties the table and keeps the first-slot matrix
        check_osserman(clifford16, samples=100, seed=4)
        store = analysis._store
        assert store.seed == 4 and sorted(store.blocks) == [0, 64]
        assert all(sorted(b) == ["draw", "eigh"] for b in store.blocks.values())
        assert store.slot is after.slot is not None

    def test_the_store_keeps_at_most_its_cap(self):
        # check all at the CLI's default 1000 samples on a rational dim-16
        # file: the draws, spectra and clusters of every block fit, beside
        # the float form and first-slot matrix; the eigenbasis tables do not
        R = clifford_tensor(16, 8)
        check_osserman(R, samples=1000, seed=1)
        check_jacobi_dual(R, samples=1000, seed=1)
        store = analysis._store
        assert sorted(store.blocks) == list(range(0, 1000, analysis._FLOAT_BLOCK))
        for kind in ("draw", "eigh", "clusters"):
            assert sum(len(b[kind][0]) for b in store.blocks.values()) == 1000
        assert not all("basis" in b for b in store.blocks.values())
        held = _held_arrays(store) + [store.slot, store.Rf._matrix]
        assert store.nbytes() == sum(a.nbytes for a in held) <= analysis._STORE_BYTES

    def test_a_rational_tensor_is_converted_once_per_store(self, quaternionic8,
                                                           monkeypatch):
        conversions, to_float = [], CurvatureTensor.to_float

        def spy(self):
            if self.mode == RATIONAL:
                conversions.append(self)
            return to_float(self)

        monkeypatch.setattr(CurvatureTensor, "to_float", spy)
        check_osserman(quaternionic8, samples=200, seed=1)
        classify_k_root(quaternionic8, samples=200, seed=1)
        check_osserman(quaternionic8, samples=200, seed=1)
        assert conversions == [quaternionic8]

    @pytest.mark.parametrize("mu0, mus", [
        (1, [-1] * 8),
        (Fraction(1, 3), [Fraction(p, q) for p, q in ((1, 2), (-2, 5), (3, 7), (4, 9),
                                                       (5, 2), (6, 5), (-7, 3), (8, 7))]),
    ], ids=["two-root", "fractional"])
    def test_check_all_converts_a_rational_file_twice(self, mu0, mus, tmp_path,
                                                      monkeypatch, capsys):
        from osscheck.cli import main
        from osscheck.tensorio import dump_tensor

        # ricci-sum converts R for its product and osserman's first miss
        # for the store; jacobi-dual, two-root and eigen-Bianchi read the
        # store's float form
        path = tmp_path / "c16.json"
        dump_tensor(clifford_tensor(16, 8, mus=mus, mu0=mu0), path)
        conversions, to_float = [], CurvatureTensor.to_float

        def spy(self):
            if self.mode == RATIONAL:
                conversions.append(self)
            return to_float(self)

        monkeypatch.setattr(CurvatureTensor, "to_float", spy)
        assert main(["check", "all", "--in", str(path), "--samples", "6",
                     "--seed", "3"]) == 0
        two_root = "two-root-decomposition: pass" in capsys.readouterr().out
        assert two_root == (mu0 == 1)
        assert len(conversions) == 2

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_the_store_dies_with_its_tensor(self, mode):
        R = clifford_tensor(8, 3, mode=mode)
        check_jacobi_dual(R, samples=100, seed=2)
        assert analysis._store is not None and analysis._store.blocks
        del R
        gc.collect()
        assert analysis._store is None

    def test_a_float_tensor_is_held_only_weakly(self):
        R = clifford_tensor(8, 3, mode=FLOAT64)
        check_osserman(R, samples=100, seed=2)
        store, ref = analysis._store, weakref.ref(R)
        assert store[0]() is R and store[2] is None
        del R
        gc.collect()
        # the tuple is kept here, and still no tensor lives on through it
        assert ref() is None and store[0]() is None
        assert analysis._store is None
