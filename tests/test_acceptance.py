"""Acceptance suite: one test per criterion, one printed line each.

The Clifford corpus (dims 4/8/16, every rank up to the Radon-Hurwitz bound,
20 random rational weight vectors per rank) is built once per session and
shared across criteria.
"""

import time
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
    make_clifford,
    make_constant_curvature,
    make_from_symmetric,
    radon_hurwitz_bound,
    random_curvature,
    sample_stream,
    validate_hurwitz,
    validate_symmetries,
)
from osscheck.linalg import RATIONAL

DIMS = (4, 8, 16)
MU_VECTORS_PER_RANK = 20


def _announce(criterion, ok, detail=""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _random_mu(stream):
    return Fraction(int(stream.integers(-9, 10)), int(stream.integers(1, 10)))


@pytest.fixture(scope="session")
def clifford_corpus():
    """{(n, m): [(mu0, mus, tensor), ...]} over all buildable ranks."""
    corpus = {}
    for n in DIMS:
        for m in range(1, radon_hurwitz_bound(n) + 1):
            fam = build_clifford_family(n, m)
            entries = []
            for t in range(MU_VECTORS_PER_RANK):
                stream = sample_stream(1000 * n + m, t)
                mu0 = _random_mu(stream)
                mus = [_random_mu(stream) for _ in range(m)]
                R = make_clifford(n, mu0, list(zip(mus, fam.structures)),
                                  mode=RATIONAL)
                entries.append((mu0, mus, R))
            corpus[(n, m)] = entries
    return corpus


@pytest.fixture(scope="session")
def quaternionic8():
    fam = build_clifford_family(8, 3)
    return make_clifford(8, 1, [(-1, J) for J in fam.structures])


def test_criterion_1_clifford_jacobi_orthogonal_exact(clifford_corpus):
    """Clifford tensors are Jacobi-orthogonal, certified exactly."""
    t0 = time.monotonic()
    checked = 0
    for (n, m), entries in clifford_corpus.items():
        for idx, (_, _, R) in enumerate(entries):
            rep = check_jacobi_orthogonal(R, samples=200, seed=idx)
            assert rep.passed, f"(n={n}, m={m}, tensor {idx})"
            assert rep.worst_residual == 0
            checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed <= 300.0
    _announce(1, ok, f"{checked} tensors x 200 exact pairs in {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 5 min target"


def test_criterion_2_orthogonal_implies_dual_and_einstein(clifford_corpus):
    """Jacobi-orthogonal corpus tensors are Jacobi-dual and Einstein."""
    for (n, m), entries in clifford_corpus.items():
        for idx, (mu0, mus, R) in enumerate(entries):
            rep = check_jacobi_dual(R, samples=200, seed=idx, tol=1e-9)
            assert rep.passed, f"jacobi-dual (n={n}, m={m}, tensor {idx})"
            erep = check_einstein(R, tol=1e-10)
            assert erep.passed, f"einstein (n={n}, m={m}, tensor {idx})"
            want = mu0 * (n - 1) - 3 * sum(mus)
            got = erep.witness["einstein_constant"]
            assert abs(got - want) <= 1e-10
    _announce(2, True, f"{sum(len(v) for v in clifford_corpus.values())} tensors")


def test_criterion_3_two_root_quaternionic(quaternionic8):
    cls = classify_k_root(quaternionic8, samples=100)
    ok = (cls.k == 2 and cls.multiplicities == [4, 3]
          and np.allclose(cls.centers, [1, 4], atol=1e-9)
          and cls.per_sample_agreement)
    rep = check_two_root_decomposition(quaternionic8, samples=500, tol=1e-9)
    ok = ok and rep.passed
    _announce(3, ok, f"spectrum 1 x4, 4 x3; worst residual "
                     f"{float(rep.worst_residual):.2e}")
    assert ok


def test_criterion_4_eigen_bianchi_identity(clifford_corpus):
    """Eigenvalue-weighted Bianchi identity on the whole Clifford corpus;
    triples are exhaustive in dims 4 and 8."""
    for (n, m), entries in clifford_corpus.items():
        for idx, (_, _, R) in enumerate(entries):
            rep = check_eigen_bianchi_identity(R, samples=20, seed=idx,
                                               tol=1e-9, precheck_samples=10)
            assert rep.passed, f"(n={n}, m={m}, tensor {idx})"
    _announce(4, True, "exhaustive triples for n-1 <= 8, randomized for dim 16")


def test_criterion_5_proof_step_identities():
    """Polarization exact in rational mode and ricci-sum <= 1e-12 in float
    mode for 100 random tensors in dims 3-6."""
    count = 0
    for t in range(100):
        stream = sample_stream(5000, t)
        n = int(stream.integers(3, 7))
        Ss, cs = [], []
        for _ in range(int(stream.integers(1, 4))):
            a = stream.integers(-4, 5, size=(n, n))
            Ss.append(np.array((a + a.T).tolist(), dtype=object))
            cs.append(Fraction(int(stream.integers(-4, 5)),
                               int(stream.integers(1, 5))))
        R = make_from_symmetric(Ss, cs, mode=RATIONAL)
        assert validate_symmetries(R).worst_residual == 0
        prep = check_polarization(R, samples=20, seed=t)
        assert prep.passed and prep.worst_residual == 0, f"tensor {t}"
        rrep = check_ricci_sum(R.to_float(), tol=1e-12, seed=t)
        assert rrep.passed, f"ricci-sum tensor {t}: {rrep.worst_residual}"
        count += 1
    _announce(5, True, f"{count} random tensors, dims 3-6")


def test_criterion_6_negative_controls():
    """Seeded random dim-4 tensors must generically fail all three checks."""
    fail_oss = fail_dual = fail_orth = 0
    seeds = 100
    for seed in range(seeds):
        R = random_curvature(4, 3, sample_stream(seed))
        o = check_osserman(R, samples=20, seed=seed)
        d = check_jacobi_dual(R, samples=10, seed=seed)
        j = check_jacobi_orthogonal(R, samples=20, seed=seed)
        fail_oss += (not o.passed) and float(o.worst_residual) > 1e-3
        fail_dual += (not d.passed) and float(d.worst_residual) > 1e-3
        fail_orth += (not j.passed) and float(j.worst_residual) > 1e-3
    ok = min(fail_oss, fail_dual, fail_orth) >= 99
    _announce(6, ok, f"failures out of {seeds}: osserman {fail_oss}, "
                     f"jacobi-dual {fail_dual}, jacobi-orthogonal {fail_orth}")
    assert ok


def test_criterion_7_radon_hurwitz_table():
    want = [0, 1, 0, 3, 0, 1, 0, 7, 0, 1, 0, 3, 0, 1, 0, 8]
    got = [radon_hurwitz_bound(n) for n in range(1, 17)]
    assert got == want
    built = 0
    for n in range(1, 17):
        for m in range(1, radon_hurwitz_bound(n) + 1):
            rep = validate_hurwitz(build_clifford_family(n, m))
            assert rep.passed and rep.worst_residual == 0, f"(n={n}, m={m})"
            built += 1
    _announce(7, True, f"table reproduced; {built} families validate exactly")


def test_criterion_8_osserman_sampling(clifford_corpus):
    for kappa in (-2, 0, 1, 3):
        for n in (4, 8):
            R = make_constant_curvature(n, kappa)
            rep = check_osserman(R, samples=1000, tol=1e-10)
            assert rep.passed, f"constant kappa={kappa}, n={n}"
    for (n, m), entries in clifford_corpus.items():
        for idx, (_, _, R) in enumerate(entries):
            rep = check_osserman(R, samples=1000, seed=idx, tol=1e-10)
            assert rep.passed, f"(n={n}, m={m}, tensor {idx})"

    # dim-16 full check (every applicable property, samples=1000) in <= 60 s
    fam = build_clifford_family(16, 8)
    R16 = make_clifford(16, 1, [(-1, J) for J in fam.structures])
    t0 = time.monotonic()
    reports = [
        validate_symmetries(R16),
        check_einstein(R16),
        check_ricci_sum(R16),
        check_polarization(R16, samples=1000),
        check_osserman(R16, samples=1000, tol=1e-10),
        check_jacobi_dual(R16, samples=1000),
        check_jacobi_orthogonal(R16, samples=1000),
        check_two_root_decomposition(R16, samples=1000),
        check_eigen_bianchi_identity(R16, samples=1000),
    ]
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in reports) and elapsed <= 60.0
    _announce(8, ok, f"corpus drift <= 1e-10 over 1000 directions; "
                     f"dim-16 full check {elapsed:.1f}s")
    assert all(r.passed for r in reports)
    assert elapsed <= 60.0, f"dim-16 full check took {elapsed:.1f}s"
