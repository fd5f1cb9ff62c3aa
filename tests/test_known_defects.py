"""Known defects of the spectral checkers, each as a strict expected failure.

Every test asserts the correct behaviour and names the observed value in its
message.  While the defect stands, the assertion fails and the test is an
expected failure; a fix turns it into an unexpected pass, which fails the
suite under ``strict``, and the fixing change removes the marker.  The
defect numbers are those of ROADMAP.md.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from osscheck import (
    analysis,
    build_clifford_family,
    check_eigen_bianchi_identity,
    check_einstein,
    check_jacobi_dual,
    check_jacobi_orthogonal,
    check_osserman,
    check_ricci_sum,
    make_clifford,
    make_from_symmetric,
    random_curvature,
    ricci_operator,
    sample_stream,
    validate_symmetries,
)
from osscheck.cli import main
from osscheck.curvature import CurvatureTensor
from osscheck.linalg import FLOAT64, RATIONAL, PreconditionError
from osscheck.tensorio import dump_tensor
from oracles import weighted_sum


def _known(defect):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP defect {defect}")


def _premise(holds, what):
    """A setup fact the test rests on: it fails the test outright, not as
    the expected failure, when it does not hold."""
    if not holds:
        pytest.fail(f"premise does not hold: {what}")


def _clifford(n, m, mu0, mus, mode=RATIONAL):
    fam = build_clifford_family(n, m)
    return make_clifford(n, mu0, list(zip(mus, fam.structures)), mode)


def _largest_entry_one(R):
    c = R.components
    return CurvatureTensor(R.dim, FLOAT64, c / np.abs(c).max())


def _from_symmetric_control(mode):
    """The n = 8 from-symmetric control: three symmetrised integer matrices
    a + a^T, a with entries in [-3, 3], weights 1."""
    a = sample_stream(1234).integers(-3, 4, size=(3, 8, 8))
    return make_from_symmetric([s + s.T for s in a], [1, 1, 1], mode)


def _check_all(R, path, samples, seed):
    """``check all`` on R written to ``path``: its exit code and the
    reports of its --out file."""
    dump_tensor(R, path)
    out = path.with_suffix(".report.json")
    code = main(["check", "all", "--in", str(path), "--samples", str(samples),
                 "--seed", str(seed), "--out", str(out)])
    return code, json.loads(out.read_text())["reports"]


@_known(1)
def test_check_all_fails_a_small_non_osserman_tensor(tmp_path):
    # the control fails einstein, osserman, jacobi-dual and
    # jacobi-orthogonal at scale 1; scaled by 2^-40 every residual shrinks
    # below its unscaled tolerance
    R = _from_symmetric_control(RATIONAL).to_float()
    _premise(_check_all(R, tmp_path / "one.json", 30, 1)[0] == 1,
             "check all fails at scale 1")
    code, reports = _check_all(R.scaled(2.0**-40), tmp_path / "small.json", 30, 1)
    rep = reports["osserman"]
    assert code == 1, (f"check all exits {code} at scale 2^-40: osserman "
                       f"{rep['verdict']} at {rep['worst_residual']:.3e}")


@_known(1)
def test_a_large_weight_clifford_tensor_passes_eigen_bianchi():
    # the dim-16 Clifford file with weights near 10^16: a Clifford tensor,
    # so Osserman, and exact jacobi-orthogonal passes it at 0
    mus = [-9999999999999998, 4182252893772301, -7979979107520731,
           8325981966109077, -1000000000000001, 5555555555555555,
           -3141592653589793, 2718281828459045]
    R = _clifford(16, 8, 9999999999999999, mus)
    rep = check_eigen_bianchi_identity(R, samples=40, seed=3)
    assert rep.passed, f"eigen-bianchi {rep.verdict} at {rep.worst_residual:.3e}"


@_known(2)
def test_ricci_sum_passes_a_large_weight_clifford_tensor():
    # exact-sweep's large/n4/m3 at seed 354 (group 5, op seed 354005): the
    # identity holds for every 4-tensor
    R = _clifford(4, 3, 4525498720860099,
                  [-7979979107520731, 4182252893772301, 8325981966109077])
    _premise(check_einstein(R).passed, "exact einstein passes")
    rep = check_ricci_sum(R, seed=354005)
    assert rep.passed, f"ricci-sum {rep.verdict} at {rep.worst_residual:.3e}"


@_known(4)
def test_osserman_refuses_a_tensor_without_the_curvature_symmetries():
    # a random float n = 6 4-tensor is no curvature tensor: a verdict on it
    # says nothing about the Osserman property
    T = CurvatureTensor(6, FLOAT64, np.random.default_rng(0).standard_normal((6,) * 4))
    sym = validate_symmetries(T)
    _premise(not sym.passed, "symmetries fails")
    try:
        rep = check_osserman(T, samples=100, seed=1)
    except PreconditionError:
        return
    raise AssertionError(f"osserman {rep.verdict} at {rep.worst_residual:.3e} on a "
                         f"symmetries residual of {sym.worst_residual:.3g}")


@_known(3)
def test_a_large_denominator_clifford_tensor_passes_jacobi_dual():
    # `build clifford --dim 16 --mu0 1/1000003
    # --mu=1/1000033,1/1000037,1/1000039,1,1,1,1,1`: a Clifford tensor, so
    # Jacobi-dual; its close eigenvalues merge into one cluster
    R = _clifford(16, 8, Fraction(1, 1000003),
                  [Fraction(1, p) for p in (1000033, 1000037, 1000039)] + [1] * 5)
    rep = check_jacobi_dual(R, samples=6, seed=3)
    assert rep.passed, f"jacobi-dual {rep.verdict} at {rep.worst_residual:.3e}"


@_known(7)
def test_check_all_reduces_each_direction_once(tmp_path, monkeypatch):
    # check all --samples 36 runs eigen-bianchi's Osserman precheck at its
    # default 50 samples: 50 distinct directions of block 0
    path = tmp_path / "c16.json"
    dump_tensor(_clifford(16, 8, 1, [-1] * 8), path)
    rows, reduce = [], analysis.reduced_jacobi
    monkeypatch.setattr(analysis, "reduced_jacobi",
                        lambda R, X: rows.append(len(X)) or reduce(R, X))
    _premise(main(["check", "all", "--in", str(path), "--samples", "36",
                   "--seed", "3"]) == 0, "check all passes")
    assert sum(rows) == 50, (
        f"{sum(rows)} rows through reduced_jacobi for 50 directions ({rows})")


@_known(8)
def test_jacobi_orthogonal_fails_a_near_one_root_tensor():
    # T = R + 1e-6 E at n = 4, R one-root Clifford, both scaled to largest
    # entry 1: not Osserman (osserman, jacobi-dual and einstein fail it), so
    # not Jacobi-orthogonal by the paper's theorem; the residual is O(1e-12)
    R = _largest_entry_one(_clifford(4, 3, 1, [-1] * 3, FLOAT64))
    E = _largest_entry_one(random_curvature(4, 3, sample_stream(77)))
    T = CurvatureTensor(4, FLOAT64, R.components + 1e-6 * E.components)
    _premise(not check_osserman(T, samples=1000, seed=1).passed, "osserman fails")
    rep = check_jacobi_orthogonal(T, samples=1000, seed=1)
    assert not rep.passed, (
        f"jacobi-orthogonal {rep.verdict} at {rep.worst_residual:.3e}")


@_known(9)
def test_float_osserman_fails_a_rational_tensor_that_is_not_einstein():
    # T = the (8, 3) Clifford tensor + 1e-12 times an integer from-symmetric
    # control: exact einstein fails it, and an Osserman tensor is Einstein
    a = sample_stream(1234).integers(-3, 4, size=(3, 8, 8))
    control = make_from_symmetric([s + s.T for s in a], [1, 1, 1], RATIONAL)
    T = weighted_sum([1, Fraction(1, 10**12)], [_clifford(8, 3, 1, [-1] * 3), control])
    _premise(not check_einstein(T).passed, "exact einstein fails")
    rep = check_osserman(T, samples=200, seed=1)
    assert not rep.passed, f"osserman {rep.verdict} at {rep.worst_residual:.3e}"


def _kulkarni_nomizu(h):
    """h wedge g: the part of R^S(h + I) bilinear in h and the identity."""
    eye = np.eye(len(h), dtype=np.int64)
    return make_from_symmetric([h + eye, h, eye], [1, -1, -1], RATIONAL)


@_known(13)
def test_float_osserman_fails_a_rational_einstein_tensor_that_is_not_osserman():
    # W is the Ricci-flat part of defect 9's control E: E - h wedge g, with
    # Ric(h wedge g) = a h + b tr(h) I equal to Ric(E).  T = the (8, 3)
    # Clifford tensor + 1e-12 W is Einstein, so exact einstein passes it,
    # but exact jacobi-orthogonal fails it, and an Osserman tensor is
    # Jacobi-orthogonal
    E = _from_symmetric_control(RATIONAL)
    n = E.dim
    unit = np.zeros((n, n), dtype=np.int64)
    unit[0, 0] = 1
    ric = ricci_operator(_kulkarni_nomizu(unit))  # a e0 e0^T + b I
    b = ric[1, 1]
    a = ric[0, 0] - b
    target = ricci_operator(E)
    trace = Fraction(np.trace(target)) / (a + b * n)
    h = (target - b * trace * np.eye(n, dtype=np.int64)) / a
    W = weighted_sum([1, -1], [E, _kulkarni_nomizu(h)])
    _premise(not ricci_operator(W).any(), "W is Ricci-flat")
    T = weighted_sum([1, Fraction(1, 10**12)], [_clifford(8, 3, 1, [-1] * 3), W])
    _premise(check_einstein(T).passed, "exact einstein passes")
    _premise(not check_jacobi_orthogonal(T, samples=200, seed=1).passed,
             "exact jacobi-orthogonal fails")
    rep = check_osserman(T, samples=200, seed=1)
    assert not rep.passed, f"osserman {rep.verdict} at {rep.worst_residual:.3e}"
