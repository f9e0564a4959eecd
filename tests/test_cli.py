"""CLI surface: formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf, workprec

from chebsqrt import cli, verify
from chebsqrt.cli import MAX_BENCH_EVALS, MAX_PREC, main
from chebsqrt.iterates import v_iterate
from chebsqrt.verify import CHECKS, MAX_RANGE_N
from test_exact import naive_ratfun_complex
from test_iterates import direct_v


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["--format", "json", "verify", *argv])
    return buf.getvalue()


def verify_rows(*argv):
    return [json.loads(line) for line in verify_stdout(*argv).splitlines()]


@pytest.fixture(scope="module")
def suite_stdout():
    """Raw stdout of verify --all at n-max 4 and 16, one suite run each."""
    return {n_max: verify_stdout("--all", "--n-max", n_max) for n_max in ("4", "16")}


@pytest.fixture(scope="module")
def suite_rows(suite_stdout):
    return {n_max: [json.loads(line) for line in out.splitlines()]
            for n_max, out in suite_stdout.items()}


class TestCoeffs:
    def test_csv_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "coeffs",
                               "--scheme", "v", "--k", "2", "--M", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,coefficient,reference,sign,region"
        assert lines[1] == "0,1,1,+,head"
        assert lines[2] == "1,-1/2,-1/2,-,head"
        assert lines[3] == "2,-1/8,-1/8,-,head"
        assert lines[4] == "3,-1/32,-1/16,-,tail"
        assert lines[5] == "4,-1/128,-5/128,-,tail"

    def test_newton_polynomial_case(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "coeffs",
                               "--scheme", "newton", "--p", "2", "--k", "1", "--M", "2")
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [["0", "1"], ["1", "-1/2"], ["2", "0"]]

    def test_constant_iterate(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "coeffs",
                               "--scheme", "v", "--k", "0", "--M", "2")
        assert code == 0
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [["0", "1"], ["1", "0"], ["2", "0"]]

    def test_human_form(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--scheme", "v", "--k", "2", "--M", "3")
        assert code == 0
        assert out.splitlines() == [
            "series coefficients: scheme v, k = 2",
            "  m=0    1                        ref 1                        + head",
            "  m=1    -1/2                     ref -1/2                     - head",
            "  m=2    -1/8                     ref -1/8                     - head",
            "  m=3    -1/32                    ref -1/16                    - tail",
        ]

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "coeffs",
                               "--scheme", "halley", "--k", "1", "--M", "3")
        doc = json.loads(out)
        assert doc["scheme"] == "halley(p=2)"
        assert [r["region"] for r in doc["rows"]] == ["head", "head", "head", "tail"]


class TestDecompose:
    def test_json_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "decompose", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["scale"].startswith("0.1666666666")
        assert doc["terms"] == [{"weight": "0.75", "pole_param": "0.25"}]
        assert doc["radius_of_convergence"] == "4.0"
        assert doc["tail_sum_identity"] == "1/24"

    def test_polynomial_case_markers(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "decompose", "--n", "1")
        doc = json.loads(out)
        assert doc["terms"] == []
        assert doc["radius_of_convergence"] == "inf"
        assert doc["tail_sum_identity"] == "0"

    def test_csv_has_summary_columns(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "decompose", "--n", "3")
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,weight,pole_param,scale,radius,tail_sum"
        assert lines[1].startswith("3,1,1.0,0.5,0.125,2.0,1/16")

    def test_csv_row_without_terms(self, capsys):
        # v_1 = 1 - z/2 has no partial fractions: one row with empty term columns
        code, out, _ = run_cli(capsys, "--format", "csv", "decompose", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["n,k,weight,pole_param,scale,radius,tail_sum",
                                    "1,,,,0.25,inf,0"]

    def test_rejects_constant(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--n", "0")
        assert code == 2
        assert "error" in err

    def test_cap_rejects_before_any_work(self, capsys, monkeypatch):
        # decompose and tail_sum_identity grow without bound in n; the cap must come first
        from chebsqrt import cli

        def no_work(*args, **kwargs):
            raise AssertionError("decompose work started before the cap check")

        monkeypatch.setattr(cli, "decompose", no_work)
        monkeypatch.setattr(cli, "tail_sum_identity", no_work)
        code, _, err = run_cli(capsys, "decompose", "--n", "4097")
        assert code == 2
        assert "exceeds the cap" in err


class TestEval:
    def test_exact_rational_point(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "eval",
                               "--scheme", "v", "--k", "3", "--at", "1")
        doc = json.loads(out)
        assert code == 0
        assert doc["exact"] == "1/4"

    def test_complex_point(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "eval",
                               "--scheme", "v", "--k", "2",
                               "--at-re", "0.5", "--at-im", "0.25")
        doc = json.loads(out)
        assert code == 0
        # (4 - 3z)/(4 - z) at z = 1/2 + i/4 has real part 8.9375/12.3125
        assert float(doc["re"]) == pytest.approx(8.9375 / 12.3125, rel=1e-12)
        assert float(doc["im"]) == pytest.approx(-2.0 / 12.3125, rel=1e-12)

    def test_complex_point_is_exact_value_rounded_once(self, capsys):
        prec = 256
        code, out, _ = run_cli(capsys, "--format", "json", "--prec", str(prec), "eval",
                               "--scheme", "v", "--k", "256",
                               "--at-re", "0.9", "--at-im", "0.1")
        assert code == 0
        doc = json.loads(out)
        want = naive_ratfun_complex(*direct_v(256), F("0.9"), F("0.1"))
        with workprec(prec + 64):
            for key, exact in zip(("re", "im"), want):
                ref = mpmath.mpmathify(exact)
                assert abs(mpf(doc[key]) - ref) <= mpf(2) ** (8 - prec) * abs(ref), key

    def test_missing_point_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--scheme", "v", "--k", "2")
        assert code == 2

    def test_exact_value_past_the_digit_limit_prints_in_full(self, capsys):
        # numerator and denominator of about 4300 digits each, past Python's
        # default int -> str limit where it has one; the limit is restored after
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run_cli(capsys, "eval", "--scheme", "v", "--k", "4095", "--at", "101/103")
        assert code == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        want = cli._full_str(v_iterate(4095)(F(101, 103)))
        assert max(map(len, want.split("/"))) > 4300 and f": {want} = " in out

    @pytest.mark.parametrize("at, bits", [(("--at", "101/103"), 7),
                                          (("--at-re", "101/103", "--at-im", "1/3"), 9)])
    def test_cap_admits_its_maximum(self, capsys, monkeypatch, at, bits):
        # v_4 has degree 2; 101/103 + i/3 = (303 + 103i)/309, whose largest part has 9 bits
        work = 2 * bits
        monkeypatch.setattr(cli, "MAX_EVAL_WORK", work)
        assert run_cli(capsys, "eval", "--scheme", "v", "--k", "4", *at)[0] == 0
        monkeypatch.setattr(cli, "MAX_EVAL_WORK", work - 1)
        code, _, err = run_cli(capsys, "eval", "--scheme", "v", "--k", "4", *at)
        assert code == 2 and "eval work cap" in err


class TestVerify:
    def test_single_check_line(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify",
                               "--check", "head", "--n", "2")
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["name"] == "head" and doc["status"] == "pass"

    def test_disk_bound_single(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify",
                               "--check", "disk-bound", "--scheme", "halley", "--k", "2")
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["status"] == "pass"
        assert doc["worst_case"]["z"]

    def test_all_small(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify",
                               "--all", "--n-max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert all(d["status"] in ("pass", "skip") for d in docs)
        assert any(d["name"] == "resummation" for d in docs)

    @pytest.mark.parametrize("n_max", ["4", "16"])
    @pytest.mark.parametrize("name", list(CHECKS))
    def test_check_prints_the_suite_rows(self, suite_rows, name, n_max):
        rows = verify_rows("--check", name, "--n-max", n_max)
        assert rows and rows == [r for r in suite_rows[n_max] if r["name"] == name]

    @pytest.mark.parametrize("argv, params", [
        (("tail-signs", "--n", "3", "--M", "20"), [{"n": 3, "M": 20}]),
        (("ratio-identity", "--n", "5"), [{"n": 5}]),
        (("value-at-one", "--n", "7"), [{"n_max": 7}]),
        (("mu-bound", "--n", "50"), [{"n_max": 50}]),
        (("disk-bound", "--scheme", "newton", "--grid-radial", "2", "--grid-angular", "4"),
         [{"scheme": "newton(p=2)", "k": k, "radius": 1.0, "grid": "2x4"} for k in (2, 3, 4)]),
        (("disk-bound", "--k", "3", "--grid-radial", "2", "--grid-angular", "4"),
         [{"scheme": s, "k": 3, "radius": 1.0, "grid": "2x4"}
          for s in ("v", "newton(p=2)", "halley(p=2)")]),
        # an explicit 0 selects n = 0 alone, not the suite's n = 0..100
        (("value-at-one", "--n", "0"), [{"n_max": 0}]),
        (("uniform-compact", "--compact-radius", "0.5"), [{"n_max": 16, "radius": 0.5}]),
        (("sqrt-consistency", "--grid-radial", "2", "--grid-angular", "4"),
         [{"radius": 1.0, "grid": "2x4"}]),
    ])
    def test_selectors_narrow_the_rows(self, argv, params):
        rows = verify_rows("--check", *argv)
        assert [r["params"] for r in rows] == params
        assert all(r["status"] == "pass" for r in rows)

    def test_selectors_are_the_check_rows_keyword_parameters(self):
        # the table and the parser agree: every keyword a CHECKS row takes is a
        # verify selector, every selector is taken by some row, and the parser
        # holds no default for one (the three --grid-* flags make the one grid)
        (sub,) = [a for a in cli.build_parser()._actions if a.choices and "verify" in a.choices]
        (group,) = [g for g in sub.choices["verify"]._action_groups if g.title == "selectors"]
        assert all(a.default is argparse.SUPPRESS for a in group._group_actions)
        selectors = {"grid" if a.dest.startswith("grid_") else a.dest
                     for a in group._group_actions}
        keywords = set()
        for row in CHECKS.values():
            n_max, prec, *rest = inspect.signature(row).parameters.values()
            assert (n_max.name, prec.name) == ("n_max", "prec")
            assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is not p.empty
                       for p in rest)
            keywords.update(p.name for p in rest)
        assert keywords == selectors

    def test_verify_takes_no_root_order(self):
        # disk-bound, the one check with a scheme, admits p = 2 alone; and --p
        # is no abbreviation of --prec
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "head", "--n", "2", "--p", "2"])
        assert exc.value.code == 2

    def test_failed_rows_exit_one(self, capsys, monkeypatch):
        # a Taylor coefficient planted wrong at m = 3 fails the head rows
        # n = 3 and n = 4 and passes n = 1 and n = 2
        real = verify._taylor_scaled

        def flipped(f, M):
            xs, Ds = real(f, M)
            return [-x if m == 3 else x for m, x in enumerate(xs)], Ds

        monkeypatch.setattr(verify, "_taylor_scaled", flipped)
        code, out, _ = run_cli(capsys, "verify", "--check", "head", "--n-max", "4")
        assert code == 1
        assert [line.split()[0] for line in out.splitlines()] == ["PASS", "PASS", "FAIL", "FAIL"]

    def test_requires_selection(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "nope")
        assert code == 2


class TestExploreGuo:
    def test_proved_case_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "explore-guo",
                               "--p", "2", "--scheme", "newton", "--k", "3", "--M", "64")
        assert code == 0
        doc = json.loads(out)
        assert doc["head_agreement_length"] >= 8
        assert doc["first_sign_violation"] is None

    def test_open_case_reports(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "explore-guo",
                               "--p", "3", "--scheme", "halley", "--k", "1", "--M", "32")
        assert code == 0
        doc = json.loads(out)
        assert doc["head_agreement_length"] >= 3

    def test_human_form_of_a_polynomial_iterate(self, capsys):
        code, out, _ = run_cli(capsys, "explore-guo", "--p", "2", "--scheme", "newton",
                               "--k", "1", "--M", "4")
        assert code == 0
        assert out.splitlines() == [
            "sign-pattern report: p=2 newton k=1 M=4",
            "  head agreement length: 2",
            "  coefficients scanned:  1",
            "  signs: {'negative': 1, 'zero': 0, 'positive': 0}",
            "  first sign violation:  None",
            "  note: polynomial iterate of degree 1: zero coefficients beyond the degree "
            "are structural and excluded from the sign scan",
        ]

    def test_sign_violation_at_p2_exits_one(self, capsys, monkeypatch):
        # c_5 of the Newton k = 3 iterate turned positive would contradict the proved case
        real = verify._taylor_scaled

        def flipped(f, M):
            xs, Ds = real(f, M)
            return [-x if m == 5 else x for m, x in enumerate(xs)], Ds

        monkeypatch.setattr(verify, "_taylor_scaled", flipped)
        code, out, _ = run_cli(capsys, "explore-guo", "--p", "2", "--scheme", "newton",
                               "--k", "3", "--M", "16")
        assert code == 1
        assert out.splitlines() == [
            "sign-pattern report: p=2 newton k=3 M=16",
            "  head agreement length: 5",
            "  coefficients scanned:  16",
            "  signs: {'negative': 15, 'zero': 0, 'positive': 1}",
            "  first sign violation:  5",
        ]

    @pytest.mark.parametrize("argv, digest", [
        pytest.param(("--p", "3", "--scheme", "newton", "--k", "3", "--M", "200"),
                     "46e9cd47b94cfb041dfb65fb21c2be08de257d12cbe92cdbc3751a098630a8fe",
                     id="p3-newton-k3-M200"),
        pytest.param(("--p", "4", "--scheme", "halley", "--k", "2", "--M", "300"),
                     "e17ee094aa1344272600a86852a69bbf88260d087085304c09ef25edf82e1ee8",
                     id="p4-halley-k2-M300"),
    ])
    def test_json_golden_output(self, capsys, argv, digest):
        # the bytes of the Fraction scan, kept by the integer one
        code, out, _ = run_cli(capsys, "--format", "json", "explore-guo", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_root_order(self, capsys):
        code, _, err = run_cli(capsys, "explore-guo", "--p", "1",
                               "--scheme", "newton", "--k", "1", "--M", "8")
        assert code == 2


class TestBench:
    def test_degenerate_but_valid(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "bench",
                               "--n", "2", "--points", "1", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert [r["strategy"] for r in doc["rows"]] == [
            "exact-horner", "bigfloat-horner", "partial-fraction",
        ]

    def test_cap_admits_its_maximum(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "bench", "--n", "2",
                               "--points", str(MAX_BENCH_EVALS // 4), "--reps", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] * doc["reps"] == MAX_BENCH_EVALS

    def test_rejects_headless_iterate(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--n", "1", "--points", "5")
        assert code == 2

    def test_strategies_agree_and_seed_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "bench",
                               "--n", "16", "--points", "40", "--seed", "123")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 123
        tol = float(doc["tolerance"])
        for row in doc["rows"]:
            assert float(row["max_deviation"]) <= tol

    def test_horner_precision_covers_coefficient_bits(self, capsys):
        # v_128's coefficients reach 160 bits, far beyond the 32 guard bits
        code, out, _ = run_cli(capsys, "--format", "json", "--seed", "42", "bench",
                               "--n", "128", "--points", "20")
        assert code == 0
        doc = json.loads(out)
        tol = float(doc["tolerance"])
        assert all(float(row["max_deviation"]) <= tol for row in doc["rows"])

    def test_csv_form(self, capsys):
        # one row per strategy; every column but seconds matches the JSON form
        argv = ("bench", "--n", "4", "--points", "3", "--seed", "1")
        code, out, _ = run_cli(capsys, "--format", "csv", *argv)
        assert code == 0
        header, *rows = out.splitlines()
        assert header == "strategy,points,reps,seconds,max_deviation"
        _, doc, _ = run_cli(capsys, "--format", "json", *argv)
        want = [[r["strategy"], "3", "1", r["max_deviation"]] for r in json.loads(doc)["rows"]]
        assert [row[:3] + row[4:] for row in (r.split(",") for r in rows)] == want
        assert all(float(row.split(",")[3]) >= 0 for row in rows)

    def test_deterministic_modulo_timing(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "bench",
                             "--n", "8", "--points", "10", "--seed", "5")
        _, out2, _ = run_cli(capsys, "--format", "json", "bench",
                             "--n", "8", "--points", "10", "--seed", "5")
        d1, d2 = json.loads(out1), json.loads(out2)
        for row in d1["rows"] + d2["rows"]:
            row.pop("seconds")
        assert d1 == d2


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        args = ("--format", "json", "decompose", "--n", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_verify_all_golden_output(self, capsys, suite_stdout, suite_rows):
        # the determinism acceptance: these bytes and this float row must not drift
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--all", "--n-max", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5eee9e154669ccd083ad574f6e629c682acd0bc5b54e8b1c9d82b7aabf275ea7")
        assert hashlib.sha256(suite_stdout["16"].encode()).hexdigest() == (
            "98ffc11c5c4a7a2875d86c6c05c098ff8f8f57a0292d1f7f38c7b980d52971d3")
        (row,) = [r for r in suite_rows["16"] if r["name"] == "resummation"]
        assert row["worst_case"]["n"] == 10
        assert row["worst_case"]["z"] == "(-0.25 + 0.375j)"
        assert row["worst_case"]["error"] == "8.6218051612963361e-78"

    @pytest.mark.parametrize("argv, digest", [
        pytest.param(("--format", "json", "decompose", "--n", "5"),
                     "7e493b3014a65bb532c68e07bf5e36f0b9d65de250ec4076d296b31085ee0940",
                     id="json-n5"),
        pytest.param(("--format", "csv", "decompose", "--n", "16"),
                     "b00e06fe13106ada7e482343b468c3146628c5013ec7d806dc3099dc82669f16",
                     id="csv-n16"),
        pytest.param(("--prec", "512", "--format", "csv", "decompose", "--n", "33"),
                     "d510b7026a0a371542cfb33bbedac8aff843bd84399f5a7c60c690e5e7321b18",
                     id="csv-n33-prec512"),
        pytest.param(("--prec", "64", "--format", "json", "decompose", "--n", "255"),
                     "a4f1679716dc84a3c3fa7b6132abeec48a70a71096999da6393b9e783b41a830",
                     id="json-n255-prec64"),
    ])
    def test_decompose_golden_output(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_precision_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PREC_BITS", "128")
        code, out, _ = run_cli(capsys, "--format", "json", "bench",
                               "--n", "4", "--points", "2", "--seed", "1")
        assert json.loads(out)["precision_bits"] == 128

    def test_malformed_precision_env_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PREC_BITS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "head", "--n", "2"])
        assert exc.value.code == 2
        assert "--prec" in capsys.readouterr().err

    def test_malformed_precision_env_is_unread_under_prec(self, capsys, monkeypatch):
        monkeypatch.setenv("PREC_BITS", "abc")
        assert run_cli(capsys, "--prec", "128", "verify", "--check", "head", "--n", "2")[0] == 0
        assert run_cli(capsys, "verify", "--check", "head", "--n", "2", "--prec", "128")[0] == 0

    def test_precision_floor(self, capsys):
        code, _, err = run_cli(capsys, "--prec", "32", "decompose", "--n", "2")
        assert code == 2

    def test_precision_cap(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, "--prec", str(MAX_PREC), "decompose", "--n", "2")
        assert code == 0
        monkeypatch.setenv("PREC_BITS", str(MAX_PREC + 1))
        code, _, err = run_cli(capsys, "decompose", "--n", "2")
        assert code == 2 and err.startswith("error:")

    def test_global_flags_in_either_position(self, capsys):
        _, out1, _ = run_cli(capsys, "--format", "json", "decompose", "--n", "2")
        _, out2, _ = run_cli(capsys, "decompose", "--n", "2", "--format", "json")
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("--format", "json", "decompose", "--n", "2", "--p", "128"),
        ("--pre", "128", "--form", "json", "decompose", "--n", "2"),
    ])
    def test_no_command_takes_abbreviations(self, argv):
        # a prefix is no flag, before the subcommand or after it
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chebsqrt.cli", "--format", "json",
             "decompose", "--n", "2"],
            capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 2

    def test_package_runs_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chebsqrt", "--format", "json",
             "verify", "--check", "head", "--n", "2"],
            capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["name"] == "head"

    def test_package_main_exits_with_mains_code(self, capsys, monkeypatch):
        # the module body in this interpreter: sys.exit(main()) on sys.argv
        monkeypatch.setattr(sys, "argv", ["chebsqrt", "--format", "json", "decompose", "--n", "2"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("chebsqrt", run_name="__main__")
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2


@pytest.mark.parametrize("argv", [
    ("eval", "--scheme", "v", "--k", "2", "--at", "1/0"),
    ("eval", "--scheme", "v", "--k", "2", "--at", "abc"),
    ("eval", "--scheme", "v", "--k", "2", "--at-re", "abc", "--at-im", "0"),
    ("coeffs", "--scheme", "v", "--k", "-1", "--M", "3"),
    ("coeffs", "--scheme", "newton", "--k", "-1", "--M", "3"),
    ("bench", "--n", "2", "--points", "0"),
    ("bench", "--n", "2", "--points", "-5"),
    ("bench", "--n", "2", "--points", "5", "--reps", "0"),
    # past the bench cap: refused before the first point is drawn
    ("bench", "--n", "8", "--points", "1000000000"),
    ("bench", "--n", "8", "--points", str(MAX_BENCH_EVALS + 1)),
    ("bench", "--n", "8", "--points", str(MAX_BENCH_EVALS // 2 + 1), "--reps", "2"),
    # past the degree cap: refused before any step would run for minutes
    ("coeffs", "--scheme", "halley", "--k", "9", "--M", "4"),
    ("explore-guo", "--p", "3", "--scheme", "newton", "--k", "9", "--M", "8"),
    ("verify", "--check", "disk-bound", "--scheme", "halley", "--k", "9",
     "--grid-radial", "1", "--grid-angular", "1"),
    # refused before the bound's 3^k is computed
    ("verify", "--check", "disk-bound", "--scheme", "halley", "--k", "1000000000"),
    # past the coefficient cap: refused before any Taylor work
    ("verify", "--check", "tail-signs", "--n", "2", "--M", "20000"),
    ("verify", "--check", "tail-signs", "--n", "64", "--M", "200000"),
    # n_max < 1 would crash or pass with no samples
    ("verify", "--all", "--n-max", "0"),
    ("verify", "--check", "uniform-compact", "--n-max", "0"),
    ("verify", "--check", "monotone-improvement", "--n-max", "0"),
    ("verify", "--check", "head", "--n-max", "0"),
    ("verify", "--check", "mu-bound", "--n", "-5"),
    # past the mu-bound and grid caps: refused before any float work
    ("verify", "--check", "mu-bound", "--n", "100001"),
    ("verify", "--check", "sqrt-consistency", "--grid-radial", "1000000000",
     "--grid-angular", "1000000000"),
    ("verify", "--check", "disk-bound", "--scheme", "v", "--k", "2",
     "--grid-radial", "33", "--grid-angular", "32"),
    # past the v degree cap (v_4096): refused before the first of thousands of builds
    ("verify", "--check", "value-at-one", "--n", "4097"),
    ("verify", "--check", "uniform-compact", "--n-max", "5000"),
    ("verify", "--check", "resummation", "--n-max", "5000"),
    ("verify", "--check", "coeff-formula", "--n-max", "5000"),
    ("verify", "--check", "radius-pole", "--n-max", "5000"),
    ("verify", "--check", "tail-sum", "--n-max", "5000"),
    ("verify", "--check", "head", "--n-max", "5000"),
    ("verify", "--check", "tail-signs", "--n-max", "5000"),
    ("verify", "--check", "ratio-identity", "--n", "5000"),
    ("verify", "--all", "--n-max", "5000"),
    # the first n_max past each range check's runtime cap, and so the suite's
    *[("verify", "--check", name, "--n-max", str(cap + 1)) for name, cap in MAX_RANGE_N.items()],
    ("verify", "--all", "--n-max", str(min(MAX_RANGE_N.values()) + 1)),
    # a check that selects no rows would be a hollow pass
    ("verify", "--check", "disk-bound", "--scheme", "v", "--n-max", "1"),
    # past the precision cap
    ("--prec", str(MAX_PREC + 1), "verify", "--check", "mu-bound", "--n", "100000"),
    # the first --n past each per-n row's runtime cap
    *[("verify", "--check", name, "--n", str(MAX_RANGE_N[name] + 1))
      for name in ("head", "tail-signs", "ratio-identity")],
    ("verify", "--check", "head", "--n", "4096"),
    ("verify", "--check", "head", "--n-max", "512"),
    ("verify", "--check", "tail-signs", "--n-max", "1024"),
    # commands without a CSV form refuse it instead of printing another format
    ("--format", "csv", "eval", "--scheme", "v", "--k", "2", "--at", "1/2"),
    ("--format", "csv", "explore-guo", "--p", "3", "--scheme", "newton", "--k", "2", "--M", "8"),
    ("verify", "--all", "--n-max", "2", "--format", "csv"),
    # an explicit 0 is a value the check refuses, not an unset selector for the suite's rows
    ("verify", "--check", "head", "--n", "0"),
    ("verify", "--check", "disk-bound", "--scheme", "v", "--k", "0"),
    ("verify", "--check", "tail-signs", "--n", "3", "--M", "0"),
    ("verify", "--check", "mu-bound", "--n", "0"),
    ("verify", "--check", "guo-p2", "--M", "0"),
    ("verify", "--check", "head-lengths", "--M", "0"),
    # a selector the check's CHECKS row does not take, and any selector with --all
    ("verify", "--check", "tail-sum", "--n", "5"),
    ("verify", "--check", "head", "--k", "3"),
    ("verify", "--check", "composition", "--scheme", "halley"),
    ("verify", "--check", "resummation", "--M", "8"),
    ("verify", "--check", "disk-bound", "--n", "3"),
    ("verify", "--all", "--n", "3"),
    ("verify", "--check", "head", "--compact-radius", "0.5"),
    # refused as a flag head does not take, before the grid cap is reached
    ("verify", "--check", "head", "--grid-radial", "100", "--grid-angular", "100"),
    ("verify", "--check", "tail-sum", "--grid-radius", "0.5"),
    ("verify", "--all", "--compact-radius", "0.5"),
    ("verify", "--all", "--grid-angular", "4"),
    # the linear-fraction scheme has no root order
    ("coeffs", "--scheme", "v", "--p", "3", "--k", "2", "--M", "3"),
    ("eval", "--scheme", "v", "--p", "3", "--k", "2", "--at", "1/2"),
    # past the tail-sum cutoff cap: n_max 16 at 4096 bits needs cutoff 41347
    ("--prec", "4096", "verify", "--check", "tail-sum"),
    # past the degree cap, refused before bench draws its points
    ("bench", "--n", "4097", "--points", "3"),
])
def test_bad_input_is_usage_error(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("work started before the input was refused")

    monkeypatch.setattr(verify, "v_iterate", no_work)
    monkeypatch.setattr(cli, "_random_disk_rationals", no_work)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    # the suite's tail-sum cutoff, the cap of every disk-bound row, tail-signs' M against
    # its largest n, eval's point, coeffs' M and the tail-sum row's cutoff are all
    # refused before the first row or build
    ("--prec", "4096", "verify", "--all"),
    ("--prec", "1024", "verify", "--all"),
    ("verify", "--check", "disk-bound", "--k", "12"),
    ("verify", "--check", "disk-bound", "--k", "8"),
    ("verify", "--check", "tail-signs", "--M", "10"),
    ("eval", "--scheme", "newton", "--k", "12", "--at", "abc"),
    ("eval", "--scheme", "halley", "--k", "7", "--at-re", "0.5", "--at-im", "x"),
    ("coeffs", "--scheme", "newton", "--k", "12", "--M", "-1"),
    ("--prec", "1024", "verify", "--check", "tail-sum"),
    # a rational point and a complex one at once
    ("eval", "--scheme", "v", "--k", "3", "--at", "1/2", "--at-re", "0.1", "--at-im", "0.9"),
    # under the degree cap, but past the disk-bound cap on degree x grid samples
    ("verify", "--check", "disk-bound", "--scheme", "newton", "--k", "12",
     "--grid-radial", "32", "--grid-angular", "32"),
    # under the degree and coefficient caps, but past the Taylor work cap on degree x M
    ("coeffs", "--scheme", "v", "--k", "4096", "--M", "4096"),
    # under the degree cap, but past the eval work cap on degree x point bits
    ("eval", "--scheme", "v", "--k", "4095", "--at-re", "1e-300", "--at-im", "1/3"),
    ("eval", "--scheme", "v", "--k", "64", "--at", "1e-200000"),
])
def test_every_refusal_comes_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the request was refused")

    for owner, name in ((verify, "v_iterate"), (verify, "iterate"),
                        (verify, "_taylor_scaled"), (verify, "decompose"),
                        (verify, "_grid_errors"), (cli, "iterate")):
        monkeypatch.setattr(owner, name, no_work)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--check", "head", "--grid-radial", "100", "--grid-angular", "100"),
     "--grid-radial"),
    (("verify", "--check", "head", "--n", "2", "--compact-radius", "0.5"), "--compact-radius"),
    (("verify", "--all", "--grid-angular", "4"), "--grid-angular"),
    (("coeffs", "--scheme", "v", "--p", "3", "--k", "2", "--M", "3"), "--p"),
    (("eval", "--scheme", "v", "--p", "3", "--k", "2", "--at", "1/2"), "--p"),
])
def test_refusal_names_the_flag_before_any_work(capsys, monkeypatch, argv, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flag was refused")

    for owner, name in ((verify, "v_iterate"), (cli, "iterate"), (cli, "DiskGrid")):
        monkeypatch.setattr(owner, name, no_work)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and flag in err.split()
