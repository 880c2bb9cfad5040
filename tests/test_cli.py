"""Command-line interface: exit codes, reports, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logladder import cli, sums
from logladder import criteria as cr


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- output ------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["analyze", "--json", "1/n^2"],
    ["sum", "--json", "1/n^2", "1000"],
])
def test_closed_stdout_exits_one_names_stage(argv):
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logladder.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error in output: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sum", "1/n^2", "100", "--checkpoints", "10", "100"],
    ["verify", "1/n^2", "--checkpoints", "100", "1000", "10000"],
])
def test_unwritable_csv_is_output_error(capsys, tmp_path, argv):
    path = tmp_path / "no" / "such" / "x.csv"
    code, out, err = run(capsys, argv + ["--csv", str(path)])
    assert code == 1
    assert err.startswith("error in output: ")
    assert str(path) in err and "Traceback" not in err
    assert not path.exists()


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "not the digits"

    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "not the digits"

    __str__ = __repr__


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -2**64, 10**30, -10**400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.225e-308, 1e16, 1e-7, 1e22, 0.1]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9", "\U0001d11e"]),
    # subclasses are written as json writes them: by their base type
    st.text().map(_Str),
    st.integers().map(_Int),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_json_values, st.integers(0, 3), st.integers(0, 3))
def test_json_writer_writes_a_shared_value_at_each_depth(value, first, again):
    # one object met twice, at any two depths, reads as two copies
    def nest(depth):
        out = value
        for _ in range(depth):
            out = {"row": [out]}
        return out

    obj = {"a": nest(first), "b": [nest(again)], "c": value}
    assert cli._json(obj) == json.dumps(obj, indent=2, allow_nan=False)


def test_report_whose_final_row_is_its_last_trace_row(capsys):
    term = cr.ExprTerm("1/(n*ln(n)^2)")
    report = cr.analyze(term)
    assert report.final is report.trace[-1]
    doc = cli._report_json(None, report)
    assert doc["final"] is doc["trace"][-1]
    assert cli._json(doc) == json.dumps(doc, indent=2, allow_nan=False)
    code, out, _ = run(capsys, ["analyze", "1/(n*ln(n)^2)", "--json"])
    assert code == 0
    assert out == json.dumps(doc, indent=2, allow_nan=False) + "\n"
    assert json.loads(out)["final"] == json.loads(out)["trace"][-1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_floats_as_json_does(bad):
    obj = {"a": [1, {"b": bad}]}
    with pytest.raises(ValueError) as ours:
        cli._json(obj)
    with pytest.raises(ValueError) as theirs:
        json.dumps(obj, indent=2, allow_nan=False)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, b"x", object()])
def test_json_writer_refuses_other_types(bad):
    with pytest.raises(TypeError):
        cli._json({"a": [bad]})


# -- parser ------------------------------------------------------------------------


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_reused_parser_keeps_no_options(capsys, monkeypatch):
    seen = []
    real = cli._analyze

    def spy(args):
        seen.append(args.expect)
        return real(args)

    monkeypatch.setattr(cli, "_analyze", spy)
    assert run(capsys, ["analyze", "--expect", "diverges", "1/n^2"])[0] == 3
    assert run(capsys, ["analyze", "1/n^2"])[0] == 0
    assert seen == ["diverges", None]


def test_reused_parser_still_rejects_csv_without_checkpoints(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code, _, _ = run(capsys, ["sum", "1/n^2", "100", "--checkpoints", "10",
                              "100"])
    assert code == 0
    code, _, err = run(capsys, ["sum", "1/n^2", "100", "--csv", str(path)])
    assert code == 1
    assert "--csv writes checkpoint rows and needs --checkpoints" in err
    assert not path.exists()


# -- analyze -----------------------------------------------------------------------


def test_analyze_decisive_exit_zero(capsys):
    code, out, _ = run(capsys, ["analyze", "1/n^2"])
    assert code == 0
    assert "converges [raabe]" in out


def test_analyze_pinned_scale_hierarchy(capsys):
    code, out, _ = run(capsys, [
        "analyze", "(lnln(n))^p/(n*ln(n))", "--param", "p=-2", "--w", "ln",
    ])
    assert code == 0
    assert "converges [hierarchy]" in out


def test_analyze_expect_mismatch_exit_three(capsys):
    code, out, _ = run(capsys, ["analyze", "1/n", "--expect", "converges"])
    assert code == 3
    assert "diverges" in out


def test_analyze_expect_match_exit_zero(capsys):
    code, _, _ = run(capsys, ["analyze", "1/n", "--expect", "diverges"])
    assert code == 0


def test_analyze_inconclusive_exit_two(capsys):
    code, out, _ = run(capsys, [
        "analyze", "1/(n*ln(n)*lnln(n)*lnlnln(n)*lnlnlnln(n))",
        "--kmax", "3",
    ])
    assert code == 2
    assert "inconclusive" in out


def test_analyze_input_error_exit_one_names_stage(capsys):
    code, _, err = run(capsys, ["analyze", "1/n^q"])
    assert code == 1
    assert "error in" in err and "q" in err

    code, _, err = run(capsys, ["analyze", "1/((n)"])
    assert code == 1
    assert "error in" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "1/(n-n)"], ["analyze", "(1/0)*n"], ["analyze", "n+1/0"],
    ["analyze", "1/(n^2-n^2)"], ["analyze", "n^(1/0)"],
])
def test_undefined_term_is_a_construction_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error in sequence construction: ")


@pytest.mark.parametrize("text", ["n-n", "1/(n-n)"])
def test_sum_names_the_construction_stage(capsys, text):
    code, out, err = run(capsys, ["sum", text, "10"])
    assert (code, out) == (1, "")
    assert err.startswith("error in sequence construction: ")


@pytest.mark.parametrize("argv", [
    ["analyze", "ln(-n)"], ["verify", "ln(-n)"], ["sum", "ln(-n)", "10"],
    ["analyze", "lnln(1-n)", "--json"],
])
def test_a_domain_start_not_found_is_a_construction_error(capsys, argv):
    # found while the term is built, before any ladder rung or sum runs
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("error in sequence construction: "
                   "could not locate the domain start\n")


@pytest.mark.parametrize("command", [
    ["analyze", "a/n^2"],
    ["analyze", "a/n^2", "--json"],
    ["verify", "a/n^2", "--json"],
    ["sum", "a/n^2", "10"],
])
@pytest.mark.parametrize("value", [
    "1e5000", "1e4300", "1e-5000", "1e999999999", "2.5E+999999999999",
    "1" * 5000, "1/" + "3" * 5000,
])
def test_param_past_the_int_string_limit_is_input_error(capsys, command,
                                                         value):
    # refused before Fraction() builds 10**exponent, so this is quick
    start = time.perf_counter()
    code, out, err = run(capsys, command + ["--param", f"a={value}"])
    assert (code, out) == (1, "")
    assert err.startswith("error in input parsing: --param a: number too long")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("value, shown", [
    ("1e4299", "1" + "0" * 4299),
    ("25e-3", "1/40"),
    ("1_000e1", "10000"),
])
def test_param_within_the_int_string_limit_is_read(capsys, value, shown):
    code, out, _ = run(capsys, ["analyze", "a/n^2", "--param",
                                f"a={value}", "--json"])
    assert code == 0
    assert json.loads(out)["params"] == {"a": shown}


def test_analyze_bad_param_value(capsys):
    code, _, err = run(capsys, ["analyze", "1/n^q", "--param", "q=abc"])
    assert code == 1
    assert "error in input parsing" in err


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, [
        "analyze", "(ln(n))^t/n", "--param", "t=1/2", "--json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["sequence"] == "(ln(n))^t/n"
    assert doc["params"] == {"t": "1/2"}
    assert doc["scale"] == "auto"
    assert isinstance(doc["trace"], list) and doc["trace"]
    row = doc["trace"][0]
    for key in ("test", "w", "level", "statistic_value", "uncertainty",
                "decision", "rate"):
        assert key in row
    assert doc["final"]["decision"] == "diverges"
    assert doc["final"]["rate"]["template"] == "log-ratio-partial"
    assert isinstance(doc["warnings"], list)


def test_analyze_json_deterministic(capsys):
    argv = ["analyze", "1/(n*ln(n)*lnln(n))", "--json"]
    a = run(capsys, argv)
    b = run(capsys, argv)
    assert a == b
    assert a[0] == 0


def test_analyze_grid_override(capsys):
    code, out, _ = run(capsys, [
        "analyze", "1/n^2", "--grid", "geometric:101:10:12",
    ])
    assert code == 0
    assert "converges" in out


def test_analyze_bad_grid(capsys):
    code, _, err = run(capsys, ["analyze", "1/n^2", "--grid", "fancy:1"])
    assert code == 1
    assert "grid" in err


@pytest.mark.parametrize("grid", ["geometric:-5:10:12", "tower:1:-3:1:12"])
def test_grid_below_index_one_is_input_error(capsys, grid):
    # Raabe sampled at negative indices used to read this divergent
    # series as convergent and exit 0.
    code, out, err = run(capsys, ["analyze", "2^n/(n^2+1)", "--grid", grid])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: --grid: ")


@pytest.mark.parametrize("text", ["1/(n^2+2^(1/2)*n)", "1/n^2"])
def test_grid_that_cannot_be_built_is_input_error(capsys, text):
    # exp^7(2) is past the tower cap. The grid is built before the run,
    # so the exact 1/n^2, which never samples it, fails the same way.
    code, out, err = run(capsys, ["analyze", text, "--grid",
                                  "tower:9:2:1:12"])
    assert code == 1
    assert out == ""
    assert err.strip() == ("error in input parsing: --grid: tower level 7 "
                           "exceeds the configured maximum 6")


def test_grid_segments_join_in_order(capsys):
    from logladder import limits as lm

    text = "geometric:101:10:6;tower:1:15:1:6"
    assert cli._parse_grid(text, 0) == (
        lm.make_grid(lm.Geometric(101, 10, 6))
        + lm.make_grid(lm.TowerGeometric(1, 15, 1, 6))
    )
    code, out, _ = run(capsys, ["analyze", "1/(n^2+2^(1/2)*n)", "--grid",
                                text])
    assert code == 0
    assert "verdict: converges [raabe]" in out


def test_grid_size_is_bounded(capsys):
    code, out, err = run(capsys, ["analyze", "1/n^2", "--grid",
                                  "geometric:101:10:6000;tower:1:2:1:6000"])
    assert code == 1
    assert out == ""
    assert err.strip() == ("error in input parsing: --grid: 12000 points "
                           "exceed 10000")


# -- sum ---------------------------------------------------------------------------


def test_sum_partial(capsys):
    code, out, _ = run(capsys, ["sum", "1/n^2", "10"])
    assert code == 0
    assert "1.54976773116654" in out


def test_sum_tail_json(capsys):
    code, out, _ = run(capsys, [
        "sum", "1/n^2", "1000000", "--tail-from", "10000", "--json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "tail"
    assert doc["truncation_correction"] is not None
    assert doc["estimate"] == pytest.approx(1.00005e-4, rel=1e-3)


@pytest.mark.parametrize("text, tail_from, first", [
    ("1/(n*ln(n)*lnln(n))", 3, 16),
    ("1/(n*ln(n)*lnln(n))", 2, 16),
    ("1/(n*ln(n))", 1, 3),
])
def test_sum_tail_below_the_first_index_is_refused(capsys, text, tail_from,
                                                   first):
    code, out, err = run(capsys, [
        "sum", text, "100", "--tail-from", str(tail_from),
    ])
    assert code == 1
    assert out == ""
    assert err == (f"error in oracle summation: tail start {tail_from} is "
                   f"below the first index {first}\n")


def test_sum_checkpoints_csv(capsys, tmp_path):
    out_csv = tmp_path / "s.csv"
    code, out, _ = run(capsys, [
        "sum", "1/(n*ln(n))", "100000",
        "--checkpoints", "10000", "100000", "--csv", str(out_csv),
    ])
    assert code == 0
    assert out_csv.read_text().startswith("N,partial_sum")


def test_sum_budget_exit_one(capsys):
    code, _, err = run(capsys, ["sum", "1/n", "1000000000"])
    assert code == 1
    assert "error in oracle summation" in err


def test_sum_unbound_parameter_is_input_error(capsys):
    code, out, err = run(capsys, ["sum", "(ln(n))^t/n", "1000"])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")
    assert "unbound parameter(s): t" in err


def test_sum_checkpoints_past_upto_rejected(capsys):
    code, out, err = run(capsys, [
        "sum", "1/n^2", "10", "--checkpoints", "1000", "2000",
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")
    assert "2000" in err


@pytest.mark.parametrize("extra, option", [
    (["--checkpoints", "10", "100", "--tail-from", "50"], "--tail-from"),
    (["--checkpoints", "10", "100", "--precision", "128"], "--precision"),
    (["--csv", "unused.csv"], "--csv"),
])
def test_sum_rejects_options_it_would_ignore(capsys, tmp_path,
                                             monkeypatch, extra, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["sum", "1/n^2", "1000"] + extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")
    assert option in err
    assert not any(tmp_path.iterdir())


def test_sum_precise_empty_range_is_an_error(capsys):
    code, out, err = run(capsys, ["sum", "1/n^2", "0", "--precision", "128"])
    assert code == 1
    assert out == ""
    assert err.strip() == (
        "error in oracle summation: empty summation range [1, 0]"
    )


def test_precise_sum_is_held_to_the_budget(capsys):
    # at about 20 000 precise terms a second this would run an hour
    start = time.perf_counter()
    code, out, err = run(capsys, ["sum", "1/n^2", "100000000",
                                  "--precision", "128"])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err.strip() == (
        "error in oracle summation: 100000000 term evaluations at 128 bits "
        "(2000 float terms each) exceed the budget of 100000000"
    )


def test_precise_log_term_is_charged_by_the_bits(capsys):
    # each log costs more with the bits: at 16384 bits this would run
    # about 20 minutes, while 2000 terms at 128 bits stay accepted
    start = time.perf_counter()
    code, out, err = run(capsys, ["sum", "1/(n*ln(n)^2)", "50000",
                                  "--precision", "16384"])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err.strip() == (
        "error in oracle summation: 49998 term evaluations at 16384 bits "
        "(770000 float terms each) exceed the budget of 100000000"
    )
    code, _, _ = run(capsys, ["sum", "1/(n*ln(n)^2)", "2000",
                              "--precision", "128"])
    assert code == 0


def test_sum_has_no_method_option(capsys):
    code, out, err = run(capsys, [
        "sum", "1/n^2", "10", "--method", "pairwise",
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")


@pytest.mark.parametrize("argv, message", [
    (["analyze"], "required: expression"),
    (["analyze", "1/n^2", "--kmax", "abc"], "invalid int value: 'abc'"),
    (["sum", "1/n^2", "10", "--w", "ln"], "unrecognized arguments: --w ln"),
    (["sum", "1/n^2", "10", "--kmax", "2"], "unrecognized arguments"),
    (["sum", "1/n^2", "10", "--grid", "geometric:200:3:12"],
     "unrecognized arguments"),
    (["analyze", "1/n^2", "--budget", "5"], "unrecognized arguments"),
])
def test_usage_error_exits_one_names_stage(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")
    assert message in err


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # --help
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    (["analyze", "1/n^2"], 0),
    (["sum", "1/n^2", "100", "--json"], 0),
    (["verify", "1/n^2", "--checkpoints", "100", "1000", "10000"], 0),
    (["examples", "--only", "inverse-square"], 0),
    ([], 1),
    (["-h"], 0),
    (["frobnicate"], 1),
    (["--json", "analyze", "1/n^2"], 1),
    (["analyze", "--help"], 0),
    (["sum", "-h"], 0),
    (["analyze"], 1),
    (["analyze", "-1/n^2"], 1),
    (["analyze", "--", "-1/n^2"], 1),
    (["analyze", "1/n^2", "--frobnicate"], 1),
    (["analyze", "1/n^2", "--kmax", "abc"], 1),
])
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv,
                                               code):
    direct = _outcome(capsys, argv)
    top, _ = cli._build_parser()
    # with no command parsers to pick from, main hands every argv to the
    # top-level parser
    monkeypatch.setattr(cli, "_build_parser", lambda: (top, {}))
    assert _outcome(capsys, argv) == direct
    assert direct[0] == code


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--kmax" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("option, message", [
    (["--kmax", "9"], "exceeds the tower budget"),
    (["--precision", "10"], "significand_bits must be at least 64"),
])
def test_bad_policy_is_validation_error(capsys, command, option, message):
    code, out, err = run(capsys, [command, "1/n^2", *option])
    assert code == 1
    assert out == ""
    assert err.startswith("error in policy validation: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bits", ["-5", "10", "60"])
def test_sum_bad_precision_is_validation_error(capsys, bits):
    code, out, err = run(capsys, ["sum", "1/n^2", "1000",
                                  "--precision", bits, "--json"])
    assert code == 1
    assert out == ""
    assert err.startswith("error in policy validation: ")
    assert "significand_bits must be at least 64" in err


@pytest.mark.parametrize("bits, reported", [("0", 53), ("64", 64)])
def test_sum_accepts_default_or_64_bits(capsys, bits, reported):
    code, out, _ = run(capsys, ["sum", "1/n^2", "1000",
                                "--precision", bits, "--json"])
    assert code == 0
    assert json.loads(out)["precision_bits"] == reported


def test_leading_minus_expression_names_double_dash(capsys):
    code, out, err = run(capsys, ["analyze", "-1/n^2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")
    assert "analyze -- -1/n^2" in err


def test_sum_float_overflow_exit_one(capsys):
    # Every term is finite, but their float64 total is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["sum", "10^308", "3", "--json"])
    assert code == 1
    assert out == ""
    assert "error in oracle summation" in err
    assert "overflows float64" in err


@pytest.mark.parametrize("argv", [
    ["sum", "9" * 400, "10"], ["sum", f"n^(-{'9' * 400})", "10"],
    ["verify", f"n^(-{'9' * 400})"],
])
def test_constant_past_float64_is_an_oracle_error(capsys, argv):
    # the ladder reads the exact constant; the float64 oracle cannot
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err.endswith("error in oracle summation: "
                        "a constant overflows float64\n")


def _nested_sum(depth):
    """1/(n^2+1/(n^2+...)) with `depth` parenthesized levels."""
    text = "1"
    for _ in range(depth):
        text = f"1/(n^2+{text})"
    return text


@pytest.mark.parametrize("text", [
    "(" * 600 + "n" + ")" * 600,
    _nested_sum(300),
    "+".join(["n"] * 3000),
])
@pytest.mark.parametrize("command", ["analyze", "sum"])
def test_deep_nesting_is_input_error(capsys, text, command):
    argv = [command, text] + (["100"] if command == "sum" else [])
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: ")
    assert "nested deeper than 100 levels" in err
    assert "Traceback" not in err


def test_nesting_at_the_limit_analyzes(capsys):
    # 49 levels make a tree exactly 100 deep; one more is refused
    code, out, _ = run(capsys, ["analyze", _nested_sum(49)])
    assert code == 0
    assert "converges [raabe]" in out
    code, _, err = run(capsys, ["analyze", _nested_sum(50)])
    assert code == 1
    assert "nested deeper than 100 levels" in err


# -- verify ------------------------------------------------------------------------


@pytest.mark.parametrize("text, refused", [
    # Shifted terms pinned to lnln sample at tower points whose
    # absorption warnings name values past 2^4096.
    ("(n+2)^(-3/2)", ("diverges", "inconclusive")),
    # Samples there are rounding noise, so inconclusive is honest.
    ("(n+2)^(-1)*(ln(n+2))^(-2)", ("diverges",)),
])
def test_shifted_term_at_lnln_is_quick(capsys, text, refused):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["analyze", text, "--w", "lnln", "--json"])
    assert time.perf_counter() - start < 2
    assert json.loads(out)["final"]["decision"] not in refused


@pytest.mark.parametrize("text, grid, decision", [
    # sampled: the Raabe sampler skips tower points whose term is out of
    # range before it forms n + 1 at the raised precision
    ("2^(-n)", "tower:2:3:1:10", "inconclusive"),
    # and points whose n + 1 would need more than 2^20 bits
    ("2^(-n)", "tower:3:1:1:10", "inconclusive"),
    # exact: the leader n^2 gives the split, so the grid is never sampled
    ("1/(n^2+ln(n))", "tower:2:3:1:10", "converges"),
])
def test_tower_grid_override_is_quick(capsys, text, grid, decision):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["analyze", text, "--grid", grid, "--json"])
    assert time.perf_counter() - start < 2
    assert json.loads(out)["final"]["decision"] == decision


_LONG = "1" * 5000


@pytest.mark.parametrize("text, code, decision", [
    # tiny absorbed terms print through their log, not in decimal
    ("1/n^2+exp(-n^5)", 0, "converges"),
    ("1/(n^2+2^(-n^4))", 0, "converges"),
    # constant powers past the coefficient bound stay unfolded
    ("1/n^(10^4301)", 0, "converges"),
    ("1/n^(2^(2^16))", 0, "converges"),
    ("1/n^(2^(2^24))", 0, "converges"),
    ("1/n^(2^4096)", 0, "converges"),
    ("n^(10^(10^9))", 0, "diverges"),
    ("n^(-(10^(10^7)))", 0, "converges"),
    # a literal past Python's integer string limit is an input error
    pytest.param(f"n^(-{_LONG})", 1, None, id="long-integer"),
    pytest.param(f"n^(-1.{_LONG})", 1, None, id="long-decimal"),
])
def test_huge_constants_end_quickly(capsys, text, code, decision):
    start = time.perf_counter()
    got, out, err = run(capsys, ["analyze", text, "--json"])
    assert time.perf_counter() - start < 10
    assert got == code
    assert "Traceback" not in err
    if decision is None:
        assert err.startswith("error in input parsing: number too long")
        assert "(at position 4)" in err
    else:
        assert json.loads(out)["final"]["decision"] == decision


def test_verify_slow_log_pass(capsys):
    code, out, _ = run(capsys, ["verify", "1/(n*ln(n))"])
    assert code == 0
    assert "verification: pass" in out


@pytest.mark.parametrize("text", [
    "1/((2*n+1)*ln(2*n+1))", "(1+1/ln(n))/(n*ln(n))", "3/((n+1)*ln(2*n))",
])
def test_verify_slow_log_with_vanishing_correction(capsys, text):
    # S(N) - C lnln N tends to its limit like 1/ln N, so the last slope
    # is still 4-7 % off C at N = 10^7; the fitted C is not
    code, out, _ = run(capsys, ["verify", text])
    assert code == 0
    assert "verification: pass" in out


def test_verify_precise_pass(capsys):
    code, out, _ = run(capsys, ["verify", "1/n^2"])
    assert code == 0
    assert "verification: pass" in out


def test_verify_unverifiable_at_scale(capsys):
    code, out, _ = run(capsys, ["verify", "1/(n*ln(n)*lnln(n))"])
    assert code == 0
    assert "unverifiable-at-scale" in out


def test_verify_fail_exit_three(capsys):
    code, out, _ = run(capsys, [
        "verify", "1/n^2", "--tolerance", "1e-12",
    ])
    assert code == 3
    assert "verification: fail" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "1e999", "-1"])
def test_verify_refuses_a_tolerance_not_finite_or_negative(
        capsys, monkeypatch, tolerance, json_flag):
    def no_run(args):
        raise AssertionError("the ladder ran")

    monkeypatch.setattr(cli, "_analyze", no_run)
    code, out, err = run(capsys, ["verify", "1/n^2",
                                  f"--tolerance={tolerance}", *json_flag])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: --tolerance ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, left", [
    (["--budget", "100000"], "10000, 100000"),
    (["--checkpoints", "100", "100", "100"], "100"),
    (["--checkpoints", "1000", "10000", "100000", "--budget", "999"],
     "none"),
])
def test_verify_names_the_checkpoints_under_the_budget(capsys, argv, left):
    code, out, err = run(capsys, ["verify", "1/n^2", *argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error in input parsing: verify needs 3 distinct "
                          "checkpoints at or below --budget ")
    assert err.endswith(f"; left: {left}\n")


@pytest.mark.parametrize("scale", [
    "expr:n-n", "expr:0*n", "expr:ln(n)-ln(n)", "expr:n/(n-n)",
])
def test_scale_dividing_by_zero_names_its_assumption(capsys, scale):
    code, out, err = run(capsys, ["analyze", "1/n^2", "--w", scale])
    assert code == 1
    assert out == ""
    assert err.startswith("error in ladder analysis: a: ")


def test_verify_json_tag(capsys):
    code, out, _ = run(capsys, [
        "verify", "1/(n*ln(n)*lnln(n))", "--json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["tag"] == "unverifiable-at-scale"
    assert doc["verification"]["status"] == "insufficient-signal"


@pytest.mark.parametrize("text, checkpoints, n_terms, csv", [
    ("1/(n*ln(n))", ("10", "100", "1000", "10000"), 9998,
     "10,0.928560016718239400468348776485\n"
     "100,1.60159428454689012344402954113\n"
     "1000,2.00604822752799516472066443384\n"
     "10000,2.29366335995698644723006509594\n"),
    # the check returns before summing, so the file takes the one pass
    ("1/(n*ln(n)*lnln(n))", ("100", "200", "300"), 285,
     "100,0.415793292409949277743663742513\n"
     "200,0.5032030926783622182263400191\n"
     "300,0.546363081283001331134308031778\n"),
])
def test_verify_csv_sums_once(capsys, tmp_path, monkeypatch, text,
                              checkpoints, n_terms, csv):
    passes = []
    kernel = sums._run

    def counted(*args, **kwargs):
        out = kernel(*args, **kwargs)
        passes.append(out[2])
        return out

    monkeypatch.setattr(sums, "_run", counted)
    path = tmp_path / "cp.csv"
    run(capsys, ["verify", text, "--checkpoints", *checkpoints,
                 "--csv", str(path)])
    assert passes == [n_terms]
    assert path.read_text() == "N,partial_sum\n" + csv


@pytest.mark.parametrize("text, csv", [("1/n^2", False),
                                       ("1/(n*ln(n))", True)])
def test_verify_builds_one_term(capsys, tmp_path, monkeypatch, text, csv):
    built = []
    init = cr.ExprTerm.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cr.ExprTerm, "__init__", counted)
    argv = ["verify", text]
    if csv:
        argv += ["--csv", str(tmp_path / "cp.csv")]
    assert run(capsys, argv)[0] == 0
    assert built == [text]


# -- examples ----------------------------------------------------------------------


def test_examples_runs_clean(capsys):
    code, out, _ = run(capsys, ["examples"])
    assert code == 0
    assert "triple-log-harmonic" in out
    assert "MISMATCH" not in out


def test_examples_subset(capsys):
    code, out, _ = run(capsys, ["examples", "--only", "inverse-square"])
    assert code == 0
    assert "inverse-square" in out
    assert "harmonic-log" not in out


def test_examples_unknown_entry(capsys):
    code, _, err = run(capsys, ["examples", "--only", "no-such"])
    assert code == 1


def test_examples_json(capsys):
    code, out, _ = run(capsys, ["examples", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mismatches"] == []
    ids = {e["id"] for e in doc["entries"]}
    assert "double-log-pinned-deep" in ids
