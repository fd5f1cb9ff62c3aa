import json
import math
from fractions import Fraction

import numpy as np
import pytest

from osscheck import load_tensor, make_clifford, make_constant_curvature
from osscheck.cli import main
from osscheck.tensorio import TensorFileError, dump_tensor, tensor_to_document
from osscheck import build_clifford_family


class TestTensorFile:
    def test_rational_round_trip_bit_exact(self, tmp_path):
        R = make_constant_curvature(4, Fraction(-7, 12), mode="rational")
        p = tmp_path / "t.json"
        dump_tensor(R, p)
        back = load_tensor(p)
        assert back.dim == R.dim and back.mode == R.mode
        assert all(a == b for a, b in
                   zip(back.components.reshape(-1), R.components.reshape(-1)))
        assert back.provenance == R.provenance

    def test_float_round_trip(self, tmp_path):
        R = make_constant_curvature(3, 0.3)
        p = tmp_path / "t.json"
        dump_tensor(R, p)
        assert np.array_equal(load_tensor(p).components, R.components)

    def test_document_shape(self):
        doc = tensor_to_document(make_constant_curvature(2, 1, mode="rational"))
        assert set(doc) == {"dim", "mode", "components", "provenance"}
        assert len(doc["components"]) == 16
        assert all(isinstance(c, str) for c in doc["components"])

    def test_malformed_json_reports_offset(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2, "mode": ???}')
        with pytest.raises(TensorFileError, match="byte offset"):
            load_tensor(p)

    def test_wrong_component_count(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": 2, "mode": "float64",
                                 "components": [0.0] * 5, "provenance": ""}))
        with pytest.raises(TensorFileError, match="16 components"):
            load_tensor(p)


class TestCliBuild:
    def test_build_constant(self, tmp_path, capsys):
        out = tmp_path / "r1.json"
        assert main(["build", "constant", "--dim", "4", "--kappa", "1",
                     "--out", str(out)]) == 0
        R = load_tensor(out)
        assert R.mode == "rational" and R.dim == 4
        assert "constant" in capsys.readouterr().out

    def test_build_clifford_quaternionic(self, tmp_path):
        out = tmp_path / "q.json"
        assert main(["build", "clifford", "--dim", "8", "--mu0", "1",
                     "--mu=-1,-1,-1", "--out", str(out)]) == 0
        R = load_tensor(out)
        assert R.mode == "rational"
        # re-validate through the CLI itself
        assert main(["check", "symmetries", "--in", str(out)]) == 0

    def test_build_clifford_rank_exceeds_bound(self, tmp_path, capsys):
        rc = main(["build", "clifford", "--dim", "6", "--mu", "1,1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "rank 2" in err and "bound 1" in err and "n=6" in err

    def test_build_rj_and_random_and_symmetric(self, tmp_path):
        for args in (["build", "rj", "--dim", "4"],
                     ["build", "random", "--dim", "4", "--seed", "3"],
                     ["build", "from-symmetric", "--dim", "3", "--k-terms", "2"]):
            out = tmp_path / (args[1] + ".json")
            assert main(args + ["--out", str(out)]) == 0
            assert main(["check", "symmetries", "--in", str(out)]) == 0


@pytest.fixture(scope="module")
def tensor_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("tensors")
    paths = {}
    R1 = make_constant_curvature(4, 1, mode="rational")
    paths["r1"] = d / "r1.json"
    dump_tensor(R1, paths["r1"])
    fam = build_clifford_family(8, 3)
    Q = make_clifford(8, 1, [(-1, J) for J in fam.structures])
    paths["quat"] = d / "quat.json"
    dump_tensor(Q, paths["quat"])
    main(["build", "random", "--dim", "4", "--seed", "0",
          "--out", str(d / "rand.json")])
    paths["rand"] = d / "rand.json"
    return paths


class TestCliCheck:
    def test_jacobi_orthogonal_on_r1(self, tensor_files):
        assert main(["check", "jacobi-orthogonal", "--in",
                     str(tensor_files["r1"]), "--samples", "20"]) == 0

    def test_osserman_fails_on_random(self, tensor_files, capsys):
        assert main(["check", "osserman", "--in", str(tensor_files["rand"]),
                     "--samples", "20"]) == 1
        assert "fail" in capsys.readouterr().out

    def test_report_file(self, tensor_files, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "einstein", "--in", str(tensor_files["quat"]),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["property"] == "einstein"
        assert doc["verdict"] == "pass"
        assert doc["provenance"].startswith("clifford(")
        assert "artifact_version" in doc

    def test_check_all_on_quaternionic(self, tensor_files, capsys):
        assert main(["check", "all", "--in", str(tensor_files["quat"]),
                     "--samples", "20"]) == 0
        out = capsys.readouterr().out
        for name in ("symmetries", "osserman", "jacobi-orthogonal",
                     "two-root-decomposition", "eigen-bianchi"):
            assert name in out

    def test_check_all_skips_inapplicable(self, tensor_files, capsys):
        # constant curvature is one-root: two-root decomposition is skipped
        assert main(["check", "all", "--in", str(tensor_files["r1"]),
                     "--samples", "10"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_k_root(self, tensor_files, capsys):
        assert main(["check", "k-root", "--in", str(tensor_files["quat"]),
                     "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "1 x4" in out and "4 x3" in out

    def test_missing_file_is_io_error(self):
        assert main(["check", "osserman", "--in", "/nonexistent.json"]) == 3

    def test_malformed_file_is_io_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", "osserman", "--in", str(p)]) == 3
        assert "byte offset" in capsys.readouterr().err

    def test_exit_code_stable_under_sampling_config(self, tensor_files):
        for samples, seed in ((10, 0), (40, 7)):
            assert main(["check", "jacobi-orthogonal",
                         "--in", str(tensor_files["quat"]),
                         "--samples", str(samples), "--seed", str(seed)]) == 0

    def test_report_reproducible(self, tensor_files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["check", "jacobi-dual", "--in", str(tensor_files["quat"]),
                "--samples", "15", "--seed", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestCliSpectrum:
    def test_constant(self, tensor_files, capsys):
        assert main(["spectrum", "--in", str(tensor_files["r1"])]) == 0
        assert "1 x3" in capsys.readouterr().out

    def test_quaternionic_with_direction(self, tensor_files, capsys):
        assert main(["spectrum", "--in", str(tensor_files["quat"]),
                     "--direction", "1,0,0,0,0,0,0,0"]) == 0
        out = capsys.readouterr().out
        assert "1 x4" in out and "4 x3" in out
        assert "char poly" in out

    def test_zero_direction(self, tensor_files):
        assert main(["spectrum", "--in", str(tensor_files["quat"]),
                     "--direction", "0,0,0,0,0,0,0,0"]) == 2


class TestLoadValidation:
    @pytest.mark.parametrize("dim", [0, 1, -2, 2.5, "4", True])
    def test_bad_dim(self, tmp_path, capsys, dim):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": dim, "mode": "float64",
                                 "components": [0.0], "provenance": ""}))
        assert main(["check", "osserman", "--in", str(p)]) == 3
        assert "field 'dim'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_component(self, tmp_path, capsys, bad):
        p = tmp_path / "bad.json"
        comps = ", ".join(["0.0"] * 5 + [bad] + ["0.0"] * 10)
        p.write_text('{"dim": 2, "mode": "float64", "components": [%s]}' % comps)
        assert main(["check", "osserman", "--in", str(p)]) == 3
        err = capsys.readouterr().err
        assert "field 'components'" in err and "index 5" in err

    @pytest.mark.parametrize("comps", [["x"] * 16, 5, {"a": 1.0}])
    def test_malformed_components(self, tmp_path, capsys, comps):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": 2, "mode": "float64",
                                 "components": comps}))
        assert main(["check", "osserman", "--in", str(p)]) == 3
        assert "field 'components'" in capsys.readouterr().err


class TestRationalSpellings:
    @staticmethod
    def _write(tmp_path, first):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"dim": 2, "mode": "rational",
                                 "components": ["0"] * 5 + [first] + ["1/3"] * 10}))
        return p

    @pytest.mark.parametrize("first, value", [
        ("0.5", Fraction(1, 2)), (7, Fraction(7)), ("-7/12", Fraction(-7, 12)),
        ("2/4", Fraction(1, 2)), ("0/5", Fraction(0)), ("+1/2", Fraction(1, 2)),
        (" 3", Fraction(3)), ("1e-3", Fraction(1, 1000)), (0.25, Fraction(1, 4))])
    def test_accepted(self, tmp_path, first, value):
        R = load_tensor(self._write(tmp_path, first))
        comps = R.components.reshape(-1)
        assert comps[5] == value and comps[6] == Fraction(1, 3) and comps[0] == 0
        assert R.denominator == math.lcm(value.denominator, 3)

    @pytest.mark.parametrize("first", ["1/0", "1/-2", "1 / 2", "x", "", True])
    def test_rejected_with_index(self, tmp_path, capsys, first):
        assert main(["check", "symmetries", "--in",
                     str(self._write(tmp_path, first))]) == 3
        err = capsys.readouterr().err
        assert "field 'components'" in err and "index 5" in err


class TestExactEndToEnd:
    def test_build_clifford_with_huge_common_denominator(self, tmp_path):
        # the lcm of the weight denominators exceeds int64
        out = tmp_path / "c16.json"
        assert main(["build", "clifford", "--dim", "16", "--mu0", "1/1000003",
                     "--mu=1/1000033,1/1000037,1/1000039,1,1,1,1,1",
                     "--out", str(out)]) == 0
        R = load_tensor(out)
        assert R.denominator == 1000003 * 1000033 * 1000037 * 1000039
        assert R.numerators.dtype == object
        for prop in ("symmetries", "jacobi-orthogonal"):
            assert main(["check", prop, "--in", str(out), "--samples", "3"]) == 0

    def test_build_constant_with_huge_kappa(self, tmp_path):
        out = tmp_path / "k.json"
        assert main(["build", "constant", "--dim", "4", "--kappa",
                     "100000000000000000000", "--out", str(out)]) == 0
        assert load_tensor(out).components[0, 1, 1, 0] == 10**20

    def test_rational_residual_spelling_survives_files(self, tmp_path):
        from osscheck import validate_symmetries

        fam = build_clifford_family(4, 3)
        R = make_clifford(4, 1, [(-1, J) for J in fam.structures])
        p = tmp_path / "r.json"
        dump_tensor(R, p)
        a = validate_symmetries(R).to_dict()
        b = validate_symmetries(load_tensor(p)).to_dict()
        assert a["worst_residual"] == b["worst_residual"] == "0"
        assert a == b

    def test_check_all_skips_eigen_bianchi_on_nan(self, monkeypatch, capsys):
        from osscheck import cli
        from osscheck.curvature import CurvatureTensor

        R = CurvatureTensor(2, "float64", np.full((2,) * 4, np.nan), "nan")
        monkeypatch.setattr(cli, "load_tensor", lambda path: R)
        assert main(["check", "all", "--in", "nan.json", "--samples", "5"]) == 1
        out = capsys.readouterr().out
        assert "osserman: fail" in out
        assert "eigen-bianchi: skipped" in out

    def test_check_all_order(self, tensor_files, capsys):
        assert main(["check", "all", "--in", str(tensor_files["quat"]),
                     "--samples", "5"]) == 0
        names = [line.split(":")[0].strip()
                 for line in capsys.readouterr().out.splitlines()]
        assert names == ["symmetries", "einstein", "ricci-sum", "polarization",
                         "osserman", "jacobi-dual", "jacobi-orthogonal",
                         "two-root-decomposition", "eigen-bianchi"]


@pytest.fixture(scope="module")
def from_symmetric4(tmp_path_factory):
    """Rational, generically neither Osserman nor Jacobi-orthogonal."""
    p = tmp_path_factory.mktemp("sym") / "sym4.json"
    assert main(["build", "from-symmetric", "--dim", "4", "--k-terms", "3",
                 "--out", str(p)]) == 0
    return str(p)


class TestModeConvertsTensor:
    def test_float_mode_keeps_the_exact_verdict(self, from_symmetric4):
        # float draws used to be truncated to integers by the exact check
        for mode in ([], ["--mode", "float64"], ["--mode", "rational"]):
            assert main(["check", "jacobi-orthogonal", "--in", from_symmetric4,
                         "--samples", "20"] + mode) == 1

    def test_float_mode_polarization_passes(self, from_symmetric4):
        for mode in ([], ["--mode", "float64"]):
            assert main(["check", "polarization", "--in", from_symmetric4,
                         "--samples", "20"] + mode) == 0

    def test_check_all_runs_every_check_in_float(self, from_symmetric4, tmp_path):
        out = tmp_path / "all.json"
        main(["check", "all", "--in", from_symmetric4, "--samples", "5",
              "--mode", "float64", "--out", str(out)])
        reports = json.loads(out.read_text())["reports"].values()
        assert {r["mode"] for r in reports if "mode" in r} == {"float64"}

    def test_rational_mode_needs_a_rational_file(self, tensor_files, capsys):
        assert main(["check", "einstein", "--in", str(tensor_files["rand"]),
                     "--mode", "rational"]) == 2
        assert "rational tensor file" in capsys.readouterr().err


class TestSampleCountsCli:
    @pytest.mark.parametrize("prop", ["osserman", "jacobi-orthogonal", "k-root",
                                      "all"])
    def test_zero_samples_exit_2(self, tensor_files, prop, capsys):
        assert main(["check", prop, "--in", str(tensor_files["quat"]),
                     "--samples", "0"]) == 2
        assert "samples must be at least" in capsys.readouterr().err

    def test_check_all_needs_two_samples(self, tensor_files, capsys):
        # one sample would skip osserman and still exit 0
        assert main(["check", "all", "--in", str(tensor_files["quat"]),
                     "--samples", "1"]) == 2
        assert "at least 2 for check all" in capsys.readouterr().err


class TestNonFiniteSpectrum:
    def test_overflowing_tensor_fails_instead_of_raising(self, tmp_path, capsys):
        # finite components whose Jacobi matrices overflow to inf and NaN
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"dim": 4, "mode": "float64",
                                 "components": [1e308] * 256}))
        for prop, code in (("osserman", 1), ("jacobi-dual", 1), ("k-root", 1),
                           ("two-root-decomposition", 2), ("eigen-bianchi", 2)):
            assert main(["check", prop, "--in", str(p), "--samples", "5"]) == code
            assert "did not converge" not in capsys.readouterr().err

    def test_overflow_prints_no_numpy_warning(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"dim": 4, "mode": "float64",
                                 "components": [1e308] * 256}))
        assert main(["check", "all", "--in", str(p), "--samples", "5"]) == 1
        assert "Warning" not in capsys.readouterr().err
