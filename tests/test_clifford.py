import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from osscheck import (
    CliffordFamily,
    build_clifford_family,
    make_clifford,
    radon_hurwitz_bound,
    sample_stream,
    validate_hurwitz,
)
from osscheck.clifford import _maximal_family
from osscheck.linalg import PreconditionError


class TestRadonHurwitzBound:
    def test_odd_is_zero(self):
        for n in (1, 3, 5, 7, 9, 15):
            assert radon_hurwitz_bound(n) == 0

    def test_key_dimensions(self):
        assert radon_hurwitz_bound(4) == 3
        assert radon_hurwitz_bound(8) == 7
        assert radon_hurwitz_bound(16) == 8

    def test_table_1_to_16(self):
        want = [0, 1, 0, 3, 0, 1, 0, 7, 0, 1, 0, 3, 0, 1, 0, 8]
        assert [radon_hurwitz_bound(n) for n in range(1, 17)] == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            radon_hurwitz_bound(0)


class TestBuild:
    def test_dim2_rotation(self):
        fam = build_clifford_family(2, 1)
        J = fam.structures[0]
        assert np.array_equal(np.abs(J), [[0, 1], [1, 0]])
        assert np.array_equal(J, -J.T)

    def test_dim4_quaternionic_exact(self):
        rep = validate_hurwitz(build_clifford_family(4, 3))
        assert rep.passed and rep.worst_residual == 0

    def test_dim8_all_21_anticommutators(self):
        fam = build_clifford_family(8, 7)
        Js = fam.structures
        count = 0
        for i in range(7):
            for j in range(i + 1, 7):
                assert np.abs(Js[i] @ Js[j] + Js[j] @ Js[i]).max() == 0
                count += 1
        assert count == 21

    def test_rank_exceeds_bound(self):
        with pytest.raises(ValueError, match="Radon-Hurwitz bound 1 for n=6"):
            build_clifford_family(6, 2)

    def test_deterministic(self):
        a = build_clifford_family(8, 5)
        b = build_clifford_family(8, 5)
        for x, y in zip(a.structures, b.structures):
            assert np.array_equal(x, y)

    def test_family_is_built_once_and_every_caller_gets_fresh_arrays(self):
        for d in (2, 4, 8, 16):
            fam = _maximal_family(d)
            assert _maximal_family(d) is fam
            assert not any(J.flags.writeable for J in fam)
        for n, m in ((2, 1), (8, 7), (16, 8), (16, 3), (12, 3)):
            d = 2 if m == 1 else 4 if m <= 3 else 8 if m <= 7 else 16
            first = build_clifford_family(n, m).structures
            for J, base in zip(first, _maximal_family(d)):
                assert J.flags.writeable and not np.shares_memory(J, base)
                assert J.dtype == np.int64
                assert np.array_equal(J, np.kron(np.eye(n // d, dtype=np.int64), base))
                J[...] = 7  # the caller's own copy
            again = build_clifford_family(n, m).structures
            assert all(np.abs(J @ J + np.eye(n, dtype=np.int64)).max() == 0 for J in again)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_every_buildable_rank_validates_exactly(self, n):
        for m in range(1, radon_hurwitz_bound(n) + 1):
            rep = validate_hurwitz(build_clifford_family(n, m))
            assert rep.passed and rep.worst_residual == 0

    def test_non_power_of_two_dimensions(self):
        for n, bound in ((6, 1), (12, 3), (10, 1)):
            for m in range(1, bound + 1):
                rep = validate_hurwitz(build_clifford_family(n, m))
                assert rep.passed and rep.worst_residual == 0


def _nan_family():
    """The float dim-4 structures of build_clifford_family(4, 2), with
    J1[0, 1] NaN."""
    J0, J1 = (J.astype(float) for J in build_clifford_family(4, 2).structures)
    J1[0, 1] = np.nan
    return J0, J1


class TestValidateHurwitz:
    def test_duplicated_generator_fails(self):
        fam = build_clifford_family(4, 3)
        J1 = fam.structures[0]
        bad = CliffordFamily(4, (J1, J1))
        rep = validate_hurwitz(bad)
        assert not rep.passed
        # J1 J1 + J1 J1 = -2 id, so the anticommutator residual is 2
        assert rep.worst_residual == 2

    def test_conjugated_family_float(self):
        from osscheck.linalg import random_orthogonal_matrices

        # conjugated by a random orthogonal matrix, the family has float
        # entries and its relations hold to roundoff instead of exactly
        q = random_orthogonal_matrices(8, (sample_stream(42),))[0]
        fam = CliffordFamily(8, tuple(q @ J @ q.T for J in
                                      build_clifford_family(8, 7).structures))
        rep = validate_hurwitz(fam)
        assert rep.mode == "float64"
        assert rep.passed
        assert float(rep.worst_residual) <= 1e-12

    @pytest.mark.parametrize("n, m", [(4, 3), (8, 7), (16, 8)])
    def test_residuals_equal_the_per_pair_products(self, n, m):
        from osscheck.linalg import random_orthogonal_matrices

        q = random_orthogonal_matrices(n, (sample_stream(n),))[0]
        structures = build_clifford_family(n, m).structures
        families = (structures, tuple(q @ J @ q.T for J in structures),
                    structures[:1] * 2 + structures[2:])
        for Js in families:
            eye = np.eye(n, dtype=Js[0].dtype)
            want = {}
            for i, J in enumerate(Js):
                want[f"skew[{i}]"] = np.abs(J + J.T).max()
                want[f"square[{i}]"] = np.abs(J @ J + eye).max()
            for i, j in itertools.combinations(range(m), 2):
                want[f"anticommute[{i},{j}]"] = np.abs(
                    Js[i] @ Js[j] + Js[j] @ Js[i]).max()
            got = validate_hurwitz(CliffordFamily(n, Js)).witness["residual_by_check"]
            assert list(got) == list(want)
            assert [v.tobytes() for v in got.values()] == [
                v.tobytes() for v in want.values()]

    def test_an_integer_family_report_serialises(self):
        rep = validate_hurwitz(build_clifford_family(4, 3))
        assert rep.to_dict()["worst_residual"] == "0"
        assert json.loads(rep.to_json())["worst_residual"] == "0"

    def test_a_nan_entry_fails(self):
        # the NaN of J1 is not the first per-check residual, so a builtin
        # max() over them would drop it
        rep = validate_hurwitz(CliffordFamily(4, _nan_family()))
        assert not rep.passed and np.isnan(rep.worst_residual)
        assert json.loads(rep.to_json())["worst_residual"] == "NaN"

    def test_make_clifford_refuses_a_nan_family(self):
        J0, J1 = _nan_family()
        with pytest.raises(PreconditionError, match="not a valid Clifford family"):
            make_clifford(4, 1, [(-1, J0), (-1, J1)], mode="float64")

    def test_make_clifford_takes_a_fraction_family(self):
        # an exact family of Fractions builds the tensor of its integer
        # twin; the provenance spells each entry as its Fraction
        J = build_clifford_family(4, 1).structures[0]
        R = make_clifford(4, 1, [(Fraction(-1), np.frompyfunc(Fraction, 1, 1)(J))])
        twin = make_clifford(4, 1, [(-1, J)])
        assert R.numerators.tobytes() == twin.numerators.tobytes()
        assert R.denominator == twin.denominator == 1
        family = json.loads(R.provenance.split("family=")[1][:-1])
        assert family == [[[str(v) for v in row] for row in J.tolist()]]
        assert twin.provenance.endswith(f"family={json.dumps([J.tolist()])})")

    def test_conjugation_by_rotation_preserves(self):
        from osscheck.linalg import random_orthogonal_matrices

        fam = build_clifford_family(4, 3)
        q = random_orthogonal_matrices(4, (sample_stream(7),))[0]
        conj = CliffordFamily(4, tuple(q @ J @ q.T for J in fam.structures))
        rep = validate_hurwitz(conj)
        assert rep.passed and float(rep.worst_residual) <= 1e-12


def test_jix_orthonormal_frame():
    # for any valid family and unit X, {J_i X} is orthonormal and
    # orthogonal to X (this underpins the Clifford eigenvalue structure)
    for n, m in ((4, 3), (8, 7), (16, 8)):
        fam = build_clifford_family(n, m)
        for i in range(5):
            x = sample_stream(n, i).standard_normal(n)
            x /= np.linalg.norm(x)
            vecs = [J @ x for J in fam.structures]
            for a, va in enumerate(vecs):
                assert abs(va.dot(x)) <= 1e-12
                assert abs(va.dot(va) - 1.0) <= 1e-12
                for vb in vecs[:a]:
                    assert abs(va.dot(vb)) <= 1e-12
