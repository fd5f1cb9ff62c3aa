"""The residual model: every checker's residual is scaled by one function,
``report.residual``.

- The function itself: magnitudes are added to 1.0 from left to right, an
  absolute residual is divided by 1.0, and an exact residual is a Fraction
  of Python ints.
- Every checker's worst residual is recomputed in Python from the fields
  of its witness, bit for bit, so a change to a checker's formula or to
  the order of its additions shows.
- No module adds a literal 1 to a divisor outside the one function.
"""

import ast
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from osscheck import (
    build_clifford_family,
    check_eigen_bianchi_identity,
    check_osserman,
    check_ricci_sum,
    check_two_root_decomposition,
    make_clifford,
    random_curvature,
    ricci_operator,
    sample_stream,
    validate_hurwitz,
)
from osscheck import analysis
from osscheck.curvature import CurvatureTensor, jacobi_matrices
from osscheck.linalg import (FLOAT64, RATIONAL, random_orthogonal_matrices,
                             sample_streams)
from osscheck.report import residual

SRC = Path(__file__).resolve().parent.parent / "src" / "osscheck"
TINY = 2.0**-53


def _bits(x):
    return struct.pack("<d", x)


def clifford_tensor(n, m, mode=RATIONAL):
    """mu0 = 1 and m weights -1: two roots, 1 and -2."""
    fam = build_clifford_family(n, m)
    return make_clifford(n, 1, [(-1, J) for J in fam.structures], mode=mode)


class TestResidual:
    def test_magnitudes_are_added_to_one_from_left_to_right(self):
        # (1 + 2^-53) + 2^-53 rounds to 1 twice; 1 + (2^-53 + 2^-53) does not
        assert 1.0 + TINY + TINY == 1.0
        assert 1.0 + (TINY + TINY) == 1.0000000000000002
        assert _bits(residual(1.0, TINY, TINY)) == _bits(1.0)
        a = np.array([TINY, 0.5, 3.0])
        b = np.array([TINY, 0.25, 1e-17])
        want = np.array([1.0 / ((1.0 + x) + y) for x, y in zip(a, b)])
        assert residual(np.ones(3), a, b).tobytes() == want.tobytes()

    def test_one_magnitude_is_one_plus_it(self):
        raw, m = np.array([3.0, 1e-300, 0.1]), np.array([2.0, 1e300, 0.7])
        assert residual(raw, m).tobytes() == (raw / (1.0 + m)).tobytes()

    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf, 5e-324,
                                     2.0**-1070, 0.0, -0.0, 1.5])
    def test_an_absolute_residual_is_unchanged(self, raw):
        assert _bits(residual(raw)) == _bits(raw)
        assert _bits(residual(np.float64(raw))) == _bits(raw)
        a = np.array([raw, raw])
        assert residual(a).tobytes() == a.tobytes()

    @pytest.mark.parametrize("raw, over, want", [
        (np.int64(6), 4, Fraction(3, 2)),
        (np.int64(-7), 1, Fraction(-7)),
        (np.int32(0), 9, Fraction(0)),
        (12 * 10**30, 8 * 10**29, Fraction(15)),
        (Fraction(1, 3), 2, Fraction(1, 6)),
    ])
    def test_an_exact_residual_is_a_fraction_of_python_ints(self, raw, over, want):
        got = residual(raw, over=over)
        assert type(got) is Fraction and got == want
        assert type(got.numerator) is int and type(got.denominator) is int

    def test_every_exact_report_holds_a_fraction_of_python_ints(self):
        R = clifford_tensor(8, 3)
        reports = [analysis.run_check(name, R, samples=8, seed=1, tol=None)
                   for name in analysis.CHECKERS]
        reports.append(validate_hurwitz(build_clifford_family(8, 7)))
        exact = [r for r in reports if r.mode == RATIONAL
                 and not isinstance(r.worst_residual, float)]
        assert {r.name for r in exact} == {
            "symmetries", "einstein", "polarization", "jacobi-orthogonal", "hurwitz"}
        for r in exact:
            w = r.worst_residual
            assert type(w) is Fraction, r.name
            assert (type(w.numerator), type(w.denominator)) == (int, int), r.name
            assert r.to_dict()["worst_residual"] == "0"


# --- Witness recomputation --------------------------------------------------

def _osserman(w):
    return max(abs(float(c) - float(r)) / (1.0 + abs(float(r)))
               for c, r in zip(w["coefficients"], w["reference_coefficients"]))


def _two_root(w):
    lhs, rhs, (b1, b2) = w["lhs"], w["rhs"], w["byproducts"]
    gap = abs(w["lambda2"] - w["lambda1"])
    return max(abs(lhs - rhs) / (1.0 + abs(lhs)),
               abs(b1) / (1.0 + gap), abs(b2) / (1.0 + gap))


def _eigen_bianchi(w):
    la, lb, lc = w["eigenvalues"]
    r_abc, r_bac = w["r_xabc"], w["r_xbac"]
    lhs = r_abc * (lc - 2 * lb + la) + r_bac * (lc + lb - 2 * la)
    return abs(lhs) / (1.0 + abs(r_abc) + abs(r_bac))


@pytest.fixture(scope="module")
def valid():
    return {8: clifford_tensor(8, 3), 16: clifford_tensor(16, 8)}


class TestWitnessRecomputation:
    """Each worst residual equals its formula evaluated in Python on the
    witness fields, bit for bit."""

    def test_osserman_on_a_valid_tensor(self, valid):
        rep = check_osserman(valid[8], samples=100, seed=3)
        assert rep.passed
        assert _bits(_osserman(rep.witness)) == _bits(rep.worst_residual)

    def test_osserman_on_a_perturbed_tensor(self, valid):
        R = valid[8].to_float()
        E = random_curvature(8, 3, sample_stream(5))
        Rp = CurvatureTensor(8, FLOAT64, R.components + 1e-3 * E.components)
        rep = check_osserman(Rp, samples=100, seed=3)
        assert not rep.passed
        assert rep.witness["sample"] > 0
        assert _bits(_osserman(rep.witness)) == _bits(rep.worst_residual)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_two_root(self, valid, n, seed):
        rep = check_two_root_decomposition(valid[n], samples=40, seed=seed)
        assert rep.passed and rep.worst_residual > 0
        assert _bits(_two_root(rep.witness)) == _bits(rep.worst_residual)

    # (1 + a) + b, (1 + b) + a and 1 + (a + b) give other last bits to a
    # few of these worst residuals, so a change of order fails some case
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("seed", range(15))
    def test_eigen_bianchi(self, valid, n, seed):
        rep = check_eigen_bianchi_identity(valid[n], samples=40, seed=seed,
                                           precheck_samples=8)
        assert rep.passed and rep.worst_residual > 0
        assert _bits(_eigen_bianchi(rep.witness)) == _bits(rep.worst_residual)

    @pytest.mark.parametrize("n", [8, 16])
    def test_ricci_sum(self, valid, n):
        # the witness holds only the residual, so its two sides are formed
        # again from the checker's bases
        R, seed = valid[n].to_float(), 7
        rep = check_ricci_sum(R, seed=seed)
        q = np.concatenate([random_orthogonal_matrices(n, (s,))[0].T
                            for s in sample_streams(seed, range(3))])
        acc = jacobi_matrices(R, q).reshape(3, n, n, n).sum(axis=1)
        ric = ricci_operator(R)
        want = float(np.abs(acc - ric).max()) / (1.0 + float(np.abs(ric).max()))
        assert want > 0
        assert _bits(want) == _bits(rep.worst_residual)
        assert _bits(rep.witness["random_basis_residual"]) == _bits(want)


# --- Lint: one place scales residuals -----------------------------------------

def _adds_one(node):
    """Whether ``node`` holds an addition with a literal 1 or 1.0."""
    return any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Add)
               and any(isinstance(s, ast.Constant) and type(s.value) in (int, float)
                       and s.value == 1 for s in (a.left, a.right))
               for a in ast.walk(node))


def _one_plus_divisions(source, skip=()):
    """Line numbers of the divisions in ``source`` (``/``, ``/=``,
    ``np.divide``) with an addition of a literal 1 in an operand, outside
    the functions named in ``skip``."""
    tree = ast.parse(source)
    skipped = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               and f.name in skip for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.value,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("divide", "true_divide")):
            operands = node.args
        else:
            continue
        if any(_adds_one(o) for o in operands):
            found.append(node.lineno)
    return found


class TestOneScalingFunction:
    @pytest.mark.parametrize("line", [
        "r = a / (1.0 + b)", "r = a / (b * c + 1.0)", "r = a / (1 + b + c)",
        "r = (a / (1.0 + b)).max()", "r /= 1.0 + b", "r = np.divide(a, b + 1.0)",
        "r = (1.0 + a) / b",
    ])
    def test_the_lint_flags_a_one_plus_division(self, line):
        assert _one_plus_divisions(line) == [1]

    @pytest.mark.parametrize("line", [
        "r = residual(a, b)", "r = a / b + 1.0", "r = a // (n + 1)",
        "r = a / (2.0 + b)", "def residual(raw, m):\n    return raw / (1.0 + m)",
    ])
    def test_the_lint_passes_other_code(self, line):
        assert _one_plus_divisions(line, skip=("residual",)) == []

    @pytest.mark.parametrize("module", ["analysis.py", "curvature.py",
                                        "clifford.py", "report.py"])
    def test_no_module_scales_a_residual_itself(self, module):
        source = (SRC / module).read_text(encoding="utf-8")
        assert _one_plus_divisions(source, skip=("residual",)) == []
