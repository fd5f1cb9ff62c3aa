"""Known defects of the spectral checkers, each as a strict expected failure.

Every test asserts the correct behaviour and names the observed value in its
message.  While the defect stands, the assertion fails and the test is an
expected failure; a fix turns it into an unexpected pass, which fails the
suite under ``strict``, and the fixing change removes the marker.  The
defect numbers are those of ROADMAP.md.
"""

from fractions import Fraction

import numpy as np
import pytest

from osscheck import (
    analysis,
    build_clifford_family,
    check_einstein,
    check_jacobi_dual,
    check_jacobi_orthogonal,
    check_osserman,
    make_clifford,
    make_from_symmetric,
    random_curvature,
    sample_stream,
)
from osscheck.cli import main
from osscheck.curvature import CurvatureTensor
from osscheck.linalg import FLOAT64, RATIONAL
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
