import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osscheck import analysis, load_tensor, make_clifford, make_constant_curvature
from osscheck.cli import main
from osscheck.curvature import CurvatureTensor, random_curvature
from osscheck.linalg import sample_stream
from osscheck.report import ARTIFACT_VERSION
from osscheck.tensorio import TensorFileError, _document_text, dump_tensor
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
        doc = json.loads(_document_text(make_constant_curvature(2, 1, mode="rational")))
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

    def test_build_random_is_float_only(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["build", "random", "--dim", "4", "--mode", "rational",
                     "--out", str(out)]) == 2
        assert "random tensors are float64 only" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("args, option", [
        (["constant", "--kappa", "1e100000000"], "--kappa"),
        (["constant", "--kappa", "1e5000", "--mode", "float64"], "--kappa"),
        (["constant", "--kappa", "1e400", "--mode", "float64"], "--kappa"),
        (["constant", "--kappa", "1/0"], "--kappa"),
        (["clifford", "--mu0", "x", "--mu", "1"], "--mu0"),
        (["clifford", "--mu", "1,1e100000000"], "--mu"),
    ])
    def test_bad_weight_names_the_option(self, tmp_path, capsys, args, option):
        # weights are read like tensor file components, under the same
        # digit limit: 10^(10^8) is rejected before it is built
        out = tmp_path / "x.json"
        assert main(["build", args[0], "--dim", "4", *args[1:],
                     "--out", str(out)]) == 2
        assert f"error: {option} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, component", [
        (["constant", "--kappa", "1e200", "--mode", "float64"], 1e200),
        (["constant", "--kappa", "1e4299"], 10**4299),
        (["clifford", "--mu0", "1/1000003", "--mu=1/3"],
         Fraction(1, 1000003) - 3 * Fraction(1, 3)),
    ])
    def test_weights_within_the_limit_build(self, tmp_path, args, component):
        out = tmp_path / "x.json"
        assert main(["build", args[0], "--dim", "4", *args[1:],
                     "--out", str(out)]) == 0
        # R(e_0, e_1, e_1, e_0), the weighted R1 and R^J terms
        assert load_tensor(out).components[0, 1, 1, 0] == component

    # sha256 of the files these builds wrote before the weighted sums were
    # read off one Gram product: the same tensors, bit for bit, in both modes
    @pytest.mark.parametrize("args, sha256", [
        (["clifford", "--dim", "16", "--mu0", "2", "--mu=1,-1,3,-2,1,1,-4,5"],
         "4eded4a0407ac921b19df275641b9013a7084aef03b0f9fd7a14518a4e69ea9f"),
        (["clifford", "--dim", "16", "--mu0", "1/3",
          "--mu=-2/7,5/9,1/2,-3/4,7/5,1/6,-8/3,2/9"],
         "7eea69b4cc1eaadbd50dce684001843879c85b0314f736985a2484ae57c00f51"),
        (["clifford", "--dim", "16", "--mu0", "1/1000003",
          "--mu=1/1000033,1/1000037,1/1000039,1,1,1,1,1"],
         "50d303159a2d913b4fc979a3e3643d3a4750f8355719405bc9b9a250e04587f0"),
        (["clifford", "--dim", "16", "--mu0", "1/3",
          "--mu=-2/7,5/9,1/2,-3/4,7/5,1/6,-8/3,2/9", "--mode", "float64"],
         "6c50f695b9c05eb11ffaf301af693c90d495c125d350d0ba37ad45ccc65c494f"),
        (["constant", "--dim", "8", "--kappa=-5/3"],
         "5de86687b0a6064da4119f0c3ea6142591a124dec3dfd805fb7926e1c3c8c352"),
        (["constant", "--dim", "8", "--kappa", "0.7", "--mode", "float64"],
         "21ed54f7ed817552ce560b2c11abaae2ec43901f54323bd0136fa13ac42a1432"),
        (["rj", "--dim", "16"],
         "601655058f9901e5367c1e10399691de2ce14ac893a9edd9cae4b4ee7380dc21"),
        (["rj", "--dim", "16", "--mode", "float64"],
         "5ab4f5f2265654ffb9b4a234a2dd742df559ff170b76105a94530ea7b6f97e8a"),
        (["from-symmetric", "--dim", "8", "--k-terms", "4", "--seed", "5"],
         "54b2c58064ca569b7a37dab680f8fb8b933b0b963845aa14625dfb62d485adf6"),
        (["from-symmetric", "--dim", "8", "--k-terms", "4", "--seed", "5",
          "--mode", "float64"],
         "7a2d844960acd1028e1eaaa2310e7427ebb98410e4e1bdc78e5925e55d034c42"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "sha256")
    def test_build_writes_the_pinned_bytes(self, tmp_path, args, sha256):
        out = tmp_path / "t.json"
        assert main(["build", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_build_rj_needs_an_even_dim(self, tmp_path, capsys):
        out = tmp_path / "rj.json"
        assert main(["build", "rj", "--dim", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "even --dim" in err and "found 3" in err and "rank" not in err
        assert not out.exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        from osscheck import cli

        def refuse(*args):
            raise MemoryError("Unable to allocate 745. TiB for an array")

        monkeypatch.setattr(cli, "make_constant_curvature", refuse)
        out = tmp_path / "r1.json"
        assert main(["build", "constant", "--dim", "100000",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: out of memory: "
                                "Unable to allocate 745. TiB for an array\n")
        assert "Traceback" not in captured.out and not out.exists()

    def test_non_finite_float_build_exits_2(self, tmp_path, capsys):
        # R(e_0, e_1, e_0, e_1) = 3 mu - mu0 overflows to inf: a tensor file
        # is strict JSON, so the writer refuses it and writes nothing
        argv = ["build", "clifford", "--dim", "4", "--mode", "float64",
                "--mu0", "1e308", "--mu=1e308", "--out"]
        out = tmp_path / "inf.json"
        assert main(argv + [str(out)]) == 2
        assert "non-finite float component at index 17" in capsys.readouterr().err
        assert not out.exists()
        kept = tmp_path / "kept.json"
        kept.write_bytes(b'{"earlier": "bytes"}\n')
        assert main(argv + [str(kept)]) == 2
        assert kept.read_bytes() == b'{"earlier": "bytes"}\n'

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

    def test_k_root_report_file(self, tensor_files, tmp_path):
        out = tmp_path / "k.json"
        assert main(["check", "k-root", "--in", str(tensor_files["quat"]),
                     "--samples", "20", "--seed", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc.pop("centers") == pytest.approx([1.0, 4.0], abs=1e-12)
        assert doc.pop("provenance").startswith("clifford(")
        assert doc == {"artifact_version": ARTIFACT_VERSION, "property": "k-root",
                       "k": 2, "multiplicities": [4, 3],
                       "per_sample_agreement": True, "samples": 20, "seed": 2}

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

    def test_direction_of_the_wrong_length(self, tensor_files, capsys):
        assert main(["spectrum", "--in", str(tensor_files["r1"]),
                     "--direction", "1,2"]) == 2
        assert "direction has 2 entries, expected 4" in capsys.readouterr().err

    def test_zero_direction(self, tensor_files):
        assert main(["spectrum", "--in", str(tensor_files["quat"]),
                     "--direction", "0,0,0,0,0,0,0,0"]) == 2

    @pytest.mark.parametrize("scale", ["1e-200", "1e300"])
    def test_direction_scale_does_not_matter(self, tensor_files, capsys, scale):
        # the norm of either would underflow or overflow; scaled by a power
        # of two first, both normalise to the unit vector of 1,1,0,0
        outs = []
        for direction in ("1,1,0,0", f"{scale},{scale},0,0"):
            assert main(["spectrum", "--in", str(tensor_files["rand"]),
                         "--direction", direction]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("first", ["1e400", "1/0", "1e1000000"])
    def test_bad_direction_names_the_option(self, tensor_files, capsys, first):
        # entries are read like --kappa: beyond float range, a zero
        # denominator and a spelling past the digit limit all exit 2
        assert main(["spectrum", "--in", str(tensor_files["r1"]),
                     "--direction", f"{first},1,0,0"]) == 2
        assert f"error: --direction {first!r}: " in capsys.readouterr().err


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

    @pytest.mark.parametrize("bad", [True, "1e3", "0.5", None, [1.0], 10**400])
    def test_float_component_must_be_a_json_number(self, tmp_path, capsys, bad):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dim": 2, "mode": "float64",
                                 "components": [1.0] * 5 + [bad] + [0] * 10}))
        assert main(["check", "einstein", "--in", str(p)]) == 3
        err = capsys.readouterr().err
        assert "field 'components'" in err and "index 5" in err

    @pytest.mark.parametrize("doc, problem", [
        ([2, "float64"], "tensor file must hold a JSON object"),
        ({"dim": 2, "mode": "float64"}, "missing field 'components'"),
        ({"dim": 2, "mode": "complex", "components": [0.0] * 16},
         "unknown mode 'complex'"),
    ])
    def test_document_problem_is_named(self, tmp_path, capsys, doc, problem):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["check", "osserman", "--in", str(p)]) == 3
        assert f"error: {problem}" in capsys.readouterr().err

    def test_undecodable_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"dim": 2, "provenance": "\xff"}')
        assert main(["check", "osserman", "--in", str(p)]) == 3
        err = capsys.readouterr().err
        assert "UTF-8" in err and "byte offset 26" in err

    def test_json_error_offset_counts_bytes(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"provenance": "\u00e9\u00e9", ???}', encoding="utf-8")
        with pytest.raises(TensorFileError, match="byte offset 23"):
            load_tensor(p)


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

    @pytest.mark.parametrize("first", ["1" * 5000, "1/" + "3" * 5000, "1e5000",
                                       "1e-5000", "-2.5E+4300", "1e100000000",
                                       " 1_0e4_299"])
    def test_digit_limit(self, tmp_path, capsys, first):
        # one limit, int's, for the numerator and denominator of every spelling
        assert main(["check", "symmetries", "--in",
                     str(self._write(tmp_path, first))]) == 3
        err = capsys.readouterr().err
        assert "index 5" in err and "limit (4300 digits)" in err

    @pytest.mark.parametrize("first, value", [
        ("1e4299", Fraction(10**4299)), ("1.5e4299", Fraction(15 * 10**4298)),
        ("1e-4299", Fraction(1, 10**4299))])
    def test_digit_limit_admits(self, tmp_path, first, value):
        assert load_tensor(self._write(tmp_path, first)).components[0, 1, 0, 1] == value

    def test_json_integer_beyond_digit_limit(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text('{"dim": 2, "mode": "rational", "components": [%s]}'
                     % ", ".join(["0"] * 15 + ["1" * 5000]))
        assert main(["check", "symmetries", "--in", str(p)]) == 3
        assert "limit (4300 digits)" in capsys.readouterr().err


class TestResidualBeyondFloatRange:
    @pytest.fixture
    def huge(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"dim": 2, "mode": "rational",
                                 "components": ["0"] + ["1e400"] + ["0"] * 14}))
        return str(p)

    @pytest.mark.parametrize("prop, residual", [("einstein", "1.000e+400"),
                                                ("symmetries", "3.000e+400")])
    def test_printed_exactly(self, huge, capsys, prop, residual):
        assert main(["check", prop, "--in", huge]) == 1
        assert f"worst residual {residual}" in capsys.readouterr().out

    def test_check_all(self, huge, capsys, tmp_path):
        # the float checks see the tensor rounded to inf
        out = tmp_path / "all.json"
        assert main(["check", "all", "--in", huge, "--samples", "3",
                     "--out", str(out)]) == 1
        reports = json.loads(out.read_text())["reports"]
        assert reports["einstein"]["worst_residual"] == str(10**400)
        assert reports["osserman"]["verdict"] == "fail"
        assert np.isinf(load_tensor(huge).to_float().components[0, 0, 0, 1])


def _exact(spelling):
    """The Fraction a report spells as "p" or "p/q", past int's digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(*map(int, spelling.split("/")))
    finally:
        sys.set_int_max_str_digits(limit)


class TestResidualBeyondTheDigitLimit:
    """Exact residuals whose numerators have more digits than int's limit
    are reported in full."""

    @pytest.fixture
    def digits(self, tmp_path):
        comps = [str(i) for i in range(1, 17)]
        comps[3] = "1e4299"
        p = tmp_path / "digits.json"
        p.write_text(json.dumps({"dim": 2, "mode": "rational", "components": comps}))
        return p

    def test_check_all(self, digits, capsys, tmp_path):
        out = tmp_path / "all.json"
        assert main(["check", "all", "--in", str(digits), "--samples", "4",
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 and "symmetries: fail" in lines[0]
        reports = json.loads(out.read_text())["reports"]
        assert list(reports) == list(analysis.CHECKERS)
        R = load_tensor(digits)
        # 4300 digits, then past the limit
        for name in ("symmetries", "polarization", "jacobi-orthogonal"):
            want = analysis.run_check(name, R, samples=4, seed=0, tol=None)
            assert want.worst_residual.numerator >= 10**4299, name
            assert _exact(reports[name]["worst_residual"]) == want.worst_residual
        assert want.worst_residual.numerator > 10**4300

    def test_report_file(self, digits, tmp_path):
        out = tmp_path / "jo.json"
        assert main(["check", "jacobi-orthogonal", "--in", str(digits),
                     "--samples", "4", "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        want = analysis.run_check("jacobi-orthogonal", load_tensor(digits),
                                  samples=4, seed=0, tol=None)
        assert _exact(rep["worst_residual"]) == want.worst_residual
        assert rep["witness"] == want.to_dict()["witness"]

    def test_failed_report_leaves_no_file(self, tensor_files, tmp_path, monkeypatch):
        from osscheck.report import CheckReport

        def fail(self, indent=2):
            raise ValueError("not serializable")

        monkeypatch.setattr(CheckReport, "to_json", fail)
        out = tmp_path / "r.json"
        assert main(["check", "symmetries", "--in", str(tensor_files["r1"]),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(st.fractions())
    def test_spelling_within_the_limit_is_str(self, v):
        from osscheck.report import _jsonable

        assert _jsonable(v) == str(v)

    def test_spelling_at_and_past_the_limit(self):
        from osscheck.report import _jsonable

        assert _jsonable(Fraction(-(10**4299), 7)) == str(Fraction(-(10**4299), 7))
        assert _jsonable(Fraction(10**4300 + 1, 3)) == "1" + "0" * 4299 + "1/3"
        assert _jsonable(Fraction(3, 10**5000)) == "3/1" + "0" * 5000


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


class TestStrictJson:
    """Every report writer emits strict JSON: a non-finite float is the
    string "NaN", "Infinity" or "-Infinity", which float() reads back."""

    NAN = CurvatureTensor(2, "float64", np.full((2,) * 4, np.nan), "nan")

    def test_spelling_of_non_finite_floats(self):
        from osscheck.report import _jsonable

        got = _jsonable([math.nan, math.inf, -math.inf, np.float64(-np.inf),
                         np.float32(np.nan), {"a": (np.array([np.inf]), 1.5)}])
        assert got == ["NaN", "Infinity", "-Infinity", "-Infinity", "NaN",
                       {"a": [["Infinity"], 1.5]}]
        assert [repr(float(v)) for v in got[:3]] == ["nan", "inf", "-inf"]

    def test_report_to_json(self):
        doc = json.loads(analysis.check_osserman(self.NAN, samples=3).to_json(),
                         parse_constant=_refuse)
        assert doc["verdict"] == "fail" and doc["worst_residual"] == "NaN"

    @pytest.mark.parametrize("prop", ["all", "k-root", "osserman"])
    def test_cli_report_files(self, prop, monkeypatch, tmp_path):
        from osscheck import cli

        monkeypatch.setattr(cli, "load_tensor", lambda path: self.NAN)
        out = tmp_path / "report.json"
        assert main(["check", prop, "--in", "nan.json", "--samples", "5",
                     "--out", str(out)]) == 1
        text = out.read_text()
        json.loads(text, parse_constant=_refuse)
        assert '"NaN"' in text


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

    def test_check_all_skips_eigen_bianchi_in_dim_3(self, tmp_path, capsys):
        p = tmp_path / "r3.json"
        dump_tensor(make_constant_curvature(3, 1, mode="rational"), p)
        out = tmp_path / "reports.json"
        assert main(["check", "all", "--in", str(p), "--samples", "5",
                     "--out", str(out)]) == 0
        assert "eigen-bianchi: skipped" in capsys.readouterr().out
        assert json.loads(out.read_text())["reports"]["eigen-bianchi"]["verdict"] == "skipped"

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

    def test_spectrum_names_a_non_finite_result(self, tmp_path, capsys):
        # at (1, 1, 1, 1)/2 the Jacobi matrix of 1e308 components overflows,
        # which gives a NaN spectrum; eigenvalues of 1e200 are finite, but
        # their characteristic polynomial is not
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"dim": 4, "mode": "float64",
                                    "components": [1e308] * 256}))
        large = tmp_path / "large.json"
        assert main(["build", "constant", "--dim", "4", "--kappa", "1e200",
                     "--mode", "float64", "--out", str(large)]) == 0
        capsys.readouterr()
        for argv, what in (([huge, "--direction", "1,1,1,1"], "reduced Jacobi spectrum"),
                           ([huge], "characteristic polynomial"),
                           ([large], "characteristic polynomial")):
            assert main(["spectrum", "--in", *map(str, argv)]) == 2
            captured = capsys.readouterr()
            assert f"the {what} is not finite" in captured.err
            assert "nan" not in captured.out and "inf" not in captured.out
            assert "Warning" not in captured.err


# The per-component codec that the value table replaced, kept as the
# oracle: it formats and parses every component on its own.

def _oracle_document(R):
    if R.mode == "rational":
        L = R.denominator
        nums = R.numerators.reshape(-1).tolist()
        comps = [str(v) for v in nums] if L == 1 else [str(Fraction(v, L)) for v in nums]
    else:
        comps = [float(v) for v in R.components.reshape(-1)]
    return {"dim": R.dim, "mode": R.mode, "components": comps,
            "provenance": R.provenance}


def _oracle_dump(R, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_oracle_document(R), fh)
        fh.write("\n")


_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _oracle_rational(index, v):
    try:
        m = _INT_RATIO.fullmatch(str(v))
        if m:
            return int(m[1]), int(m[2] or 1)
        f = Fraction(str(v))
    except (ValueError, ZeroDivisionError) as e:
        raise TensorFileError(
            f"field 'components': bad rational component at index {index}: {e}") from e
    return f.numerator, f.denominator


def _oracle_load(path):
    doc = json.loads(open(path, encoding="utf-8").read())
    comps, dim = doc["components"], doc["dim"]
    pq = np.fromiter(itertools.chain.from_iterable(
        map(_oracle_rational, itertools.count(), comps)), dtype=object, count=2 * len(comps))
    nums, dens = pq[0::2], pq[1::2]
    L = math.lcm(*set(dens))
    if L != 1:
        nums = np.fromiter((p * (L // q) for p, q in zip(nums, dens)),
                           dtype=object, count=len(comps))
    return CurvatureTensor._from_numerators(nums.reshape((dim,) * 4), L,
                                            str(doc.get("provenance", "")))


def _same_tensor(a, b):
    assert a.denominator == b.denominator
    assert a.numerators.dtype == b.numerators.dtype
    assert np.array_equal(a.numerators, b.numerators)
    assert a.provenance == b.provenance


def _load_error(load, path):
    with pytest.raises(TensorFileError) as e:
        load(path)
    return str(e.value)


def _clifford16(mu0, mus):
    fam = build_clifford_family(16, len(mus))
    return make_clifford(16, mu0, list(zip(mus, fam.structures)))


@pytest.fixture(scope="module")
def codec_tensors():
    return {
        "int": _clifford16(3, [1, -2, 3, 4, -5, 6, 7, 8]),
        "frac": _clifford16(Fraction(1, 3), [Fraction(p, q) for p, q in
                                             ((1, 2), (-2, 5), (3, 7), (4, 9),
                                              (5, 2), (6, 5), (-7, 3), (8, 7))]),
        # the lcm of the denominators exceeds int64
        "huge": _clifford16(Fraction(1, 1000003),
                            [Fraction(1, 1000033), Fraction(1, 1000037),
                             Fraction(1, 1000039), 1, 1, 1, 1, 1]),
        # 117 distinct spellings, as in the files the benchmark builds
        "frac117": _clifford16(Fraction(7, 4), [Fraction(p, q) for p, q in
                                                ((-1, 3), (7, 6), (-5, 2), (5, 9),
                                                 (1, 4), (-1, 1), (-8, 7), (7, 8))]),
        "float": random_curvature(6, 3, sample_stream(5)),
    }


class TestCodecParity:
    @pytest.mark.parametrize("name", ["int", "frac", "huge", "frac117", "float"])
    def test_dump_byte_identical(self, codec_tensors, tmp_path, name):
        R = codec_tensors[name]
        dump_tensor(R, tmp_path / "new.json")
        _oracle_dump(R, tmp_path / "old.json")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("name", ["int", "frac", "huge", "frac117"])
    def test_load_equal(self, codec_tensors, tmp_path, name):
        p = tmp_path / "t.json"
        dump_tensor(codec_tensors[name], p)
        _same_tensor(load_tensor(p), _oracle_load(p))
        _same_tensor(load_tensor(p), codec_tensors[name])

    @pytest.mark.parametrize("name", ["frac", "huge"])
    def test_writing_a_dim16_file_traces_under_2_5_mb(self, codec_tensors, tmp_path, name):
        # each distinct value is spelled and encoded once: encoding all n^4
        # spellings traced 4.05 MiB
        R = codec_tensors[name]
        dump_tensor(R, tmp_path / "warm.json")
        tracemalloc.start()
        try:
            dump_tensor(R, tmp_path / "t.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000

    @staticmethod
    def _write(tmp_path, comps):
        p = tmp_path / "r.json"
        p.write_text(json.dumps({"dim": 2, "mode": "rational", "components": comps}))
        return p

    @pytest.mark.parametrize("comps", [
        ["0"] * 3 + ["x"] + ["0"] * 5 + ["x"] + ["0"] * 6,   # first index named
        [1] * 5 + [True] + [1] * 10,
        [0] * 5 + [False] + [0] * 10,
        ["1"] * 5 + [1.0] * 6 + [True] * 5,
        [[1]] + ["0"] * 15,
        ["0"] * 15 + [{"p": 1}],
        ["1/2"] * 15 + ["1/0"]])
    def test_errors_equal(self, tmp_path, comps):
        p = self._write(tmp_path, comps)
        assert _load_error(load_tensor, p) == _load_error(_oracle_load, p)

    @pytest.mark.parametrize("comps", [
        [7] * 8 + ["7"] * 8,
        ["2/4"] * 5 + ["1/2"] * 5 + [0.5] * 6,
        ["1/3", "-2/6", "0", "+1/3", " 3", "1e-3", "0.25", 1.0] * 2,
        [1.0] * 8 + [1] * 8])
    def test_loads_equal(self, tmp_path, comps):
        p = self._write(tmp_path, comps)
        _same_tensor(load_tensor(p), _oracle_load(p))

    _numerators = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-10**40, 10**40))

    # sixteen numerators drawn freely, or from an alphabet of one to four,
    # so that values repeat as they do in real files
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(_numerators, min_size=16, max_size=16),
                     st.lists(_numerators, min_size=1, max_size=4).flatmap(
                         lambda alphabet: st.lists(st.sampled_from(alphabet),
                                                   min_size=16, max_size=16))),
           st.integers(1, 10**30))
    def test_round_trip(self, tmp_path_factory, nums, L):
        d = tmp_path_factory.mktemp("rt")
        R = CurvatureTensor._from_numerators(
            np.array(nums, dtype=object).reshape((2,) * 4), L, "rt")
        dump_tensor(R, d / "new.json")
        _oracle_dump(R, d / "old.json")
        assert (d / "new.json").read_bytes() == (d / "old.json").read_bytes()
        back = load_tensor(d / "new.json")
        _same_tensor(back, R)
        _same_tensor(back, _oracle_load(d / "new.json"))
