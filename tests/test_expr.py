"""Expression parsing, binding, evaluation, and log-linear forms."""

import gc
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from known_verdicts import FAMILIES, bertrand, bertrand_tuples
from logladder import criteria as cr
from logladder import expr as ex
from logladder import numeric as nm
from logladder.errors import (
    ParseError,
    PositivityViolation,
    UnboundParameterError,
)


def _f(text, n, params=None):
    return nm.to_float(ex.eval_expr(ex.bind(ex.parse(text), params or {}), n))


def test_parse_eval_basics():
    assert _f("1/n^2", nm.from_value(10)) == pytest.approx(0.01)
    assert _f("(ln(n))^2/n", nm.from_value(mp.e)) == pytest.approx(
        float(1 / mp.e), rel=1e-12
    )
    assert _f("exp(-n/2)", nm.from_value(2)) == pytest.approx(
        float(mp.exp(-1)), rel=1e-12
    )


def test_iterated_log_shorthands():
    n = nm.from_value(10**6)
    assert _f("lnln(n)", n) == pytest.approx(float(mp.log(mp.log(10**6))),
                                             rel=1e-12)
    assert _f("ln(ln(n))", n) == pytest.approx(_f("lnln(n)", n), rel=1e-15)
    assert _f("lnlnln(n)", n) == pytest.approx(
        float(mp.log(mp.log(mp.log(10**6)))), rel=1e-12
    )


def test_rational_constants_stay_exact():
    # the exponent must survive as an exact fraction, not a float
    form = ex.to_log_power(ex.parse("n^(-3/2)"))
    assert form is not None
    assert form.exps == (Fraction(-3, 2),)  # trailing zeros stripped


@pytest.mark.parametrize("text, message", [
    # str.isdigit takes superscripts and other scripts' digits as well
    ("2\u00b2", "unexpected character '\u00b2' (at position 1)"),
    ("\u0663/n^2", "unexpected character '\u0663' (at position 0)"),
    ("n^2.\u0663", "digits required after decimal point (at position 4)"),
], ids=["superscript", "arabic-indic", "after-point"])
def test_only_ascii_digits_are_digits(text, message):
    with pytest.raises(ParseError) as info:
        ex.parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    # str.isalnum takes them too: these once read as unbound names
    ("n\u00b2", "unexpected character '\u00b2' (at position 1)"),
    ("n\u00c5", "unexpected character '\u00c5' (at position 1)"),
    ("\u00e9/n^2", "unexpected character '\u00e9' (at position 0)"),
], ids=["superscript", "latin-letter", "leading-letter"])
def test_names_are_ascii(text, message):
    with pytest.raises(ParseError) as info:
        ex.parse(text)
    assert str(info.value) == message


# The exact message of each malformed input, the parser's and the
# lexer's, in the order a left-to-right reading meets them.
PARSE_ERRORS = [
    ("", "unexpected token None (at position 0)"),
    ("   ", "unexpected token None (at position 3)"),
    ("1.", "digits required after decimal point (at position 2)"),
    ("3.x", "digits required after decimal point (at position 2)"),
    ("2 3", "trailing input '3' (at position 2)"),
    ("2 3 \u00b2", "trailing input '3' (at position 2)"),
    ("n)", "trailing input ')' (at position 1)"),
    ("(n))", "trailing input ')' (at position 3)"),
    ("n^2^3", "trailing input '^' (at position 3)"),
    ("ln(n)(n)", "trailing input '(' (at position 5)"),
    ("((((n", "expected ')', found None (at position 5)"),
    ("1/((n)", "expected ')', found None (at position 6)"),
    ("log_2(n", "expected ')', found None (at position 7)"),
    ("ln", "function 'ln' needs an argument (at position 0)"),
    ("exp", "function 'exp' needs an argument (at position 0)"),
    ("ln()", "unexpected token ')' (at position 3)"),
    ("n +", "unexpected token None (at position 3)"),
    ("n^", "unexpected token None (at position 2)"),
    ("2^^3", "unexpected token '^' (at position 2)"),
    ("-", "unexpected token None (at position 1)"),
    ("foo(n)", "unknown function 'foo' (at position 0)"),
    ("log_10(n)", "unknown function 'log_10' (at position 0)"),
    ("n*-n", "unexpected '-' (at position 2)"),
    ("--n", "unexpected '-' (at position 1)"),
    ("9" * 5000, "number too long (5000 characters) (at position 0)"),
    ("1." + "0" * 5000, "number too long (5002 characters) (at position 0)"),
    ("n^2.\u0663", "digits required after decimal point (at position 4)"),
    ("1.5.3", "unexpected character '.' (at position 3)"),
    ("n @ 2", "unexpected character '@' (at position 2)"),
    ("ln(n,2)", "unexpected character ',' (at position 4)"),
    ("n^n^2", "power needs an n-free exponent or an n-free base"),
]


def test_parse_errors():
    wrong = []
    for text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as info:
            ex.parse(text)
        if str(info.value) != message:
            wrong.append((text[:20], str(info.value)))
    assert wrong == []


def _assert_no_cycle(work):
    # reference counting alone frees everything work leaves behind
    work()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            work()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parse_and_bind_leave_no_cycle():
    _assert_no_cycle(lambda: ex.bind(ex.parse("a/(n*ln(n)*lnln(n)^2)"),
                                     {"a": 2}))


def test_log_split_and_evaluation_leave_no_cycle():
    e = ex.parse("1/((n+1)*ln(n+1)^2)")
    _assert_no_cycle(lambda: ex.linearize(ex.log_transform(e)).vanishing)
    _assert_no_cycle(lambda: ex.eval_expr(e, nm.from_value(10)))
    _assert_no_cycle(lambda: cr.analyze(
        "1/((n+1)*ln(n+1)^2)", cr.AnalysisPolicy(backend="numeric")))


@pytest.mark.parametrize("opener, fits, position", [
    ("ln(", 99, 300), ("(", 99, 100), ("lnlnlnln(", 24, None),
])
def test_depth_limit_of_nested_calls(opener, fits, position):
    # an iterated log counts once per log: 24 lnlnlnln make 97 levels
    ex.parse(opener * fits + "n" + ")" * fits)
    with pytest.raises(ParseError) as info:
        ex.parse(opener * (fits + 1) + "n" + ")" * (fits + 1))
    where = "" if position is None else f" (at position {position})"
    assert str(info.value) == ex._TOO_DEEP + where
    deepest = ex.parse("lnlnlnln(" * 24 + "n" + ")" * 24)
    assert deepest == ex.IterLn(96, ex.Var())


def test_depth_limit_of_a_left_chain():
    # one parser frame, one tree level per '+'
    ex.parse("+".join(["n"] * 100))
    with pytest.raises(ParseError) as info:
        ex.parse("+".join(["n"] * 101))
    assert str(info.value) == ex._TOO_DEEP


@pytest.mark.parametrize("text", [
    "n^n", "n^n)", "2*(n+1)^(ln(n))", "exp(n)^n", "((n^n)^2)",
])
def test_power_rule_is_checked_where_the_power_is_read(text):
    # the power fault is found before any later syntax fault
    with pytest.raises(ParseError) as info:
        ex.parse(text)
    assert str(info.value) == (
        "power needs an n-free exponent or an n-free base"
    )
    for fine in ("2^n", "n^2", "(ln(2))^n", "n^(ln(2))"):
        ex.parse(fine)


def test_format_parse_roundtrip():
    for text in ("1/n^2", "(ln(n))^t/n", "1/(n*ln(n)*lnln(n))",
                 "exp(-n/2)", "n^(-1/2)"):
        e = ex.parse(text)
        again = ex.parse(ex.format_expr(e))
        n = nm.from_value(50)
        params = {"t": Fraction(1, 2)}
        got = ex.eval_expr(ex.bind(e, params), n)
        want = ex.eval_expr(ex.bind(again, params), n)
        assert nm.to_float(got) == pytest.approx(nm.to_float(want), rel=1e-14)


def test_free_params_and_bind():
    e = ex.parse("(ln(n))^t/n^s")
    assert ex.free_params(e) == {"t", "s"}
    bound = ex.bind(e, {"t": Fraction(1, 2), "s": 2})
    assert ex.free_params(bound) == set()
    assert nm.to_float(
        ex.eval_expr(bound, nm.from_value(100))
    ) == pytest.approx(float(mp.sqrt(mp.log(100)) / 100**2), rel=1e-12)


def test_walks_read_trees_deeper_than_the_recursion_limit():
    # built directly: parse refuses trees this deep
    deep = ex.Param("t")
    for _ in range(5000):
        deep = ex.Add(ex.iterln(1, ex.Var()), deep)
    assert ex.free_params(deep) == {"t"}
    assert ex.contains_var(deep)
    logs = [x for x in ex._walk(deep) if isinstance(x, ex.IterLn)]
    assert len(logs) == 5000 and logs[0] == ex.IterLn(1, ex.Var())
    with pytest.raises(UnboundParameterError, match="t"):
        ex.domain_start(deep)  # one walk finds the logs and the name
    # pre-order, left to right; bind keeps a subtree without the name
    e = ex.parse("ln(n)^t*exp(s)")
    order = [type(x).__name__ for x in ex._walk(e)]
    assert order == ["Mul", "Pow", "IterLn", "Var", "Param", "Exp", "Param"]
    bound = ex.bind(e, {"s": 1})
    assert bound.left is e.left and bound.right == ex.Exp(ex.Const(1))


def test_domain_start_clears_iterated_logs():
    e = ex.parse("1/(n*ln(n)*lnln(n))")
    n0 = ex.domain_start(e)
    # lnln must be positive from the start index on
    v = nm.to_float(ex.eval_expr(e, n0))
    assert v > 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [-3, -2, -1, 0, 1, 2, 3, 10**7, -10**15])
def test_domain_start_table_matches_the_search(k, b):
    # the table start of a named log of n + b is the one the search finds;
    # b = 10^7 clamps to 1 for k <= 3, and b = -10^15 puts the start past
    # the table's integer range
    # (an int below 1e15, else an ExtScalar with the search's bits)
    arg = ex.parse(f"n+({b})")
    want = ex._first_n_reaching(arg, ex._ln_threshold(k))
    got = ex.domain_start(ex.IterLn(k, arg))
    assert type(got) is type(want)
    if isinstance(want, int):
        assert got == want
    else:
        assert (got.sign, got.level, got.mag) == (
            want.sign, want.level, want.mag)
    if b == 10**7 and k <= 3:
        assert got == 1


@pytest.mark.parametrize("bits", [64, 256, 4096])
def test_log_starts_match_the_search(bits):
    with nm.local_precision(bits):
        for k, start in ex._LOG_STARTS.items():
            found = ex._first_n_reaching(ex.Var(), ex._ln_threshold(k))
            assert found == start, k


def test_domain_start_table_keeps_the_far_start_unconverted():
    # the start of lnlnlnln(n) lies near 2.33e1656520: the search returns
    # the threshold itself, and the start stays an ExtScalar
    with nm.local_precision(301):
        began = time.process_time()
        start = ex.domain_start(ex.parse("lnlnlnln(n)"))
        assert time.process_time() - began < 0.5
        assert start == ex._ln_threshold(4)
    assert start.level == 0 and start.mag > mp.mpf("2.3e1656520")


def test_domain_start_searches_other_arguments(monkeypatch):
    searched = []
    real = ex._first_n_reaching
    monkeypatch.setattr(ex, "_first_n_reaching",
                        lambda arg, t: searched.append(arg) or real(arg, t))
    assert ex.domain_start(ex.parse("1/(ln(n-3)*lnln(n+2))")) == 14
    assert searched == []
    for text in ("2*n+1", "n+1/2"):
        arg = ex.parse(text)
        assert ex.domain_start(ex.IterLn(1, arg)) == real(
            arg, ex._ln_threshold(1))
        assert searched[-1] == arg


def test_check_positive_rejects_sign_change():
    e = ex.parse("ln(n)-2")  # negative below e^2
    with pytest.raises(PositivityViolation):
        ex.check_positive(e, nm.from_value(2))


def test_check_positive_accepts_positive_terms():
    e = ex.parse("1/n^2")
    ex.check_positive(e, nm.from_value(1))


def test_check_positive_sign_needs_a_plain_point():
    # an exact 0 at a tower point is a difference absorbed to nothing,
    # not a sign; at a plain point a 0 is still a violation
    ex.check_positive(ex.parse("ln(n+1)-ln(n)"), nm.from_value(1))
    with pytest.raises(PositivityViolation):
        ex.check_positive(ex.parse("n-n"), nm.from_value(1))


@pytest.mark.parametrize("text", [
    "1/(n-n)", "(1/0)*n", "n+1/0", "1/(n^2-n^2)", "n^(1/0)",
])
def test_check_positive_rejects_a_term_undefined_everywhere(text):
    e = ex.parse(text)
    assert not ex.proves_positive(e)
    with pytest.raises(PositivityViolation, match="undefined at every"):
        ex.check_positive(e, nm.from_value(1))


def test_check_positive_skips_terms_out_of_range_everywhere():
    # a RangeError at every point is no evidence of a sign
    ex.check_positive(ex.parse("exp(exp(exp(n)))^(-1)"), nm.from_value(10))


def test_check_positive_is_not_a_proof_before_the_domain_start():
    # lnln(n) is an exact monomial, but negative at n = 2
    assert ex.to_log_power(ex.parse("lnln(n)")) is not None
    with pytest.raises(PositivityViolation):
        ex.check_positive(ex.parse("lnln(n)"), nm.from_value(2))


_PROOF_EXPONENTS = [Fraction(v) for v in ("-2", "-3/2", "-1", "-1/2", "0", "1")]


def _log_factor(k, inner_power, form):
    """The k-fold log of n spelled as ln_k(n) (form 0) or as ln of
    ln_{k-1}(n)^a (form 1, ln(n^a) when k = 1), which is a * ln_k(n)."""
    if form == 0 or k == 0:
        return "(" + "ln(" * k + "n" + ")" * k + ")"
    inner = "(" + "ln(" * (k - 1) + "n" + ")" * (k - 1) + f")^({inner_power})"
    return f"(ln({inner}))"


@given(
    st.sampled_from([Fraction(v) for v in ("1", "1/3", "2", "7/2")]),
    st.lists(st.tuples(st.sampled_from(_PROOF_EXPONENTS),
                       st.sampled_from([Fraction(1), Fraction(4), Fraction(9)]),
                       st.sampled_from([0, 1])),
             min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_exact_monomials_pass_the_sampled_check(coef, factors):
    # the exact monomials ExprTerm does not sample (depth <= 3) are
    # positive at every point check_positive would have sampled
    text = "*".join([f"({coef})"] + [
        f"{_log_factor(k, a, form)}^({p})"
        for k, (p, a, form) in enumerate(factors)
    ])
    e = ex.parse(text)
    assert ex.to_log_power(e) is not None
    ex.check_positive(e, ex.domain_start(e))


_POSITIVE_ATOMS = st.one_of(
    st.integers(-3, 3).map(lambda c: f"(n+({c}))"),
    st.tuples(st.integers(1, 3), st.sampled_from([1, 2]),
              st.integers(-3, 3)).map(
        lambda t: "(" + "ln(" * t[0] + f"{t[1]}*n+({t[2]})" + ")" * t[0] + ")"
    ),
    st.sampled_from(["(3/2)", "2^(1/2)", "3^(-2/3)"]),
)


def _positive_terms(children):
    power = st.sampled_from(["-2", "-3/2", "1", "1/2", "-(2^(1/2))",
                             "ln(2)", "0"])
    return st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]}+{t[1]})"),
        st.tuples(children, children).map(lambda t: f"{t[0]}*{t[1]}"),
        st.tuples(children, children).map(lambda t: f"{t[0]}/({t[1]})"),
        st.tuples(children, power).map(lambda t: f"({t[0]})^({t[1]})"),
    )


@given(st.recursive(_POSITIVE_ATOMS, _positive_terms, max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_proved_positive_terms_pass_the_sampled_check(text):
    # a term proves_positive accepts is positive at every point
    # check_positive samples from its domain start
    e = ex.parse(text)
    if ex.proves_positive(e):
        ex.check_positive(e, ex.domain_start(e))


def test_proves_positive_reads_shifts_sums_and_real_powers():
    for text in ("(n+2)^(-1)*(ln((n+2)))^(-1)*(ln(ln((n+2))))^(-1/2)",
                 "1/(n^2+1)", "1/(n*ln(n+1))", "n^(-2^(1/2))",
                 "(n^2+2^(1/2)*n)^(-1)", "1/(n*lnln(n+7))", "ln(n-3)",
                 "log_5(n)"):
        assert ex.proves_positive(ex.parse(text)), text
    for text in ("exp(-n)", "(n-5)^(-2)", "ln(1)*n", "n+(-1)", "2^n"):
        assert not ex.proves_positive(ex.parse(text)), text


@pytest.mark.parametrize("text, n0", [
    ("ln(n)-2", 2), ("n-n", 1), ("(1-3)*n^(-2)", 1), ("ln(1/2)*n", 1),
])
def test_unproved_terms_are_still_rejected(text, n0):
    e = ex.parse(text)
    assert not ex.proves_positive(e)
    with pytest.raises(PositivityViolation):
        ex.check_positive(e, nm.from_value(n0))


def test_to_log_power_reads_exponents():
    form = ex.to_log_power(ex.parse("(ln(n))^(1/2)/n"))
    assert form is not None
    assert (form.coef, form.exps) == (1, (Fraction(-1), Fraction(1, 2)))


def test_to_log_power_keeps_an_inexact_leader():
    # n + 2 is n times 1 + o(1): the leader is kept, marked inexact
    form = ex.to_log_power(ex.parse("(n+2)^(-1)"))
    assert form == (1, (-1,), False)
    assert ex.to_log_power(ex.parse("(2*n+1)^(-1)")) == (
        Fraction(1, 2), (-1,), False)
    for text in ("n-2*n^2", "(n+1)-n", "exp(n)", "n^2+exp(n)"):
        assert ex.to_log_power(ex.parse(text)) is None, text


def _exact_number(v) -> bool:
    return type(v) in (int, Fraction)


def test_leaders_of_int_literals_stay_exact():
    # integer literals stay ints, and division makes a Fraction, never
    # a float: over the Bertrand tuples, their shifts and the corpus
    texts = [bertrand(ps) for ps in bertrand_tuples((1, 2, 3, 4))]
    texts += [bertrand(ps, c) for c in (1, 2, 3) for ps in bertrand_tuples()]
    texts += [k.expression for k in FAMILIES]
    assert len(texts) == 1554 + 774 + len(FAMILIES)
    read = 0
    for text in texts:
        tree = ex.parse(text)
        for lead in (ex._lead(tree), ex.to_log_power(tree)):
            if lead is not None:
                read += 1
                assert all(map(_exact_number, (lead.coef, *lead.exps))), text
    assert read > 1554 * 2
    lead = ex.to_log_power(ex.parse("n^2/4"))
    assert lead.coef == Fraction(1, 4) and _exact_number(lead.coef)
    assert ex.parse("0.5") == ex.Const(Fraction(1, 2))
    assert type(ex.parse("0.5").value) is Fraction
    assert type(ex.parse("2").value) is int
    for text in ("2/4", "2^(-1)"):
        assert ex._const_fold(ex.parse(text)) == Fraction(1, 2)
        assert type(ex._const_fold(ex.parse(text))) is Fraction


def test_linearize_log_transform_exact_combo():
    # ln of n^a (ln n)^b is a*ln(n) + b*lnln(n) exactly
    combo = ex.linearize(ex.log_transform(ex.parse("(ln(n))^3/n^2")))
    assert combo.is_exact
    assert combo.coeffs == {1: Fraction(-2), 2: Fraction(3)}
    assert combo.const == 0


def test_combo_leading_and_scaled():
    combo = ex.linearize(ex.log_transform(ex.parse("(ln(n))^3/n^2")))
    depth, coeff = combo.leading()
    assert (depth, coeff) == (1, Fraction(-2))
    doubled = combo.scaled(Fraction(2))
    assert doubled.coeffs[1] == Fraction(-4)


def test_combo_merged_cancels():
    a = ex.linearize(ex.log_transform(ex.parse("1/n")))
    b = ex.linearize(ex.log_transform(ex.parse("n")))
    merged = a.merged(b, 1)
    assert merged.leading() is None  # full cancellation
    assert merged.const == 0


def test_constant_factor_lands_in_const_logs():
    combo = ex.linearize(ex.log_transform(ex.parse("2/(n*ln(n))")))
    assert combo.is_exact
    got = nm.to_float(combo.const_value())
    assert got == pytest.approx(float(mp.log(2)), rel=1e-12)


def test_eval_matches_combo_eval():
    # the linear form evaluates to ln(a_n)
    e = ex.parse("(ln(n))^2/n^3")
    combo = ex.linearize(ex.log_transform(e))
    n = nm.from_value(10**5)
    direct = nm.ext_ln(ex.eval_expr(e, n))
    linear = nm.from_value(combo.const)
    for depth, c in combo.coeffs.items():
        linear = nm.ext_add(
            linear,
            nm.ext_mul(nm.from_value(c), nm.iter_ln(depth, n)),
        )
    linear = nm.ext_add(linear, combo.const_value())
    assert nm.to_float(direct) == pytest.approx(
        nm.to_float(linear), rel=1e-12
    )


# -- the dominant-term pass ---------------------------------------------------


def _term_combo(text):
    return ex.linearize(ex.log_transform(ex.parse(text)))


@pytest.mark.parametrize("text", [
    "ln((n+1)-n)",  # the leaders cancel
    "ln(n-2*n^2)",  # negative leader
    "ln(2^(1/2)*n+1)",  # irrational leader coefficient
    "ln(ln(2)*n+1)",  # irrational leader coefficient
    "exp(n)",  # exp of a growing argument
    "ln(n^2+exp(n))",  # a sum holding exp of a growing argument
    "(2*n)^1000000000000",  # a coefficient 2^(10^12) is not computed
])
def test_pass_leaves_residuals(text):
    combo = ex.linearize(ex.parse(text))
    assert not combo.is_exact
    assert not combo.vanishing


def test_pass_reads_vanishing_exp():
    combo = _term_combo("exp(1/n)")
    assert combo.is_exact
    assert combo.coeffs == {}
    assert [ex.format_expr(v) for v in combo.vanishing] == ["1/n"]


def test_pass_reads_shifted_log():
    combo = ex.linearize(ex.parse("ln(2*n+1)"))
    assert combo.is_exact
    assert combo.coeffs == {1: Fraction(1)}
    assert combo.const_logs == [(Fraction(1), 1, Fraction(2))]
    assert len(combo.vanishing) == 1


def test_pass_reads_summed_leader():
    combo = _term_combo("1/(n^2+ln(n))")
    assert combo.is_exact
    assert combo.coeffs == {1: Fraction(-2)}
    assert len(combo.vanishing) == 1


@pytest.mark.parametrize("text", [
    "(n+3)^(-1)*(ln(n+3))^(-1)*(lnln(n+3))^(1/2)",
    "1/(n^2+ln(n))", "exp(1/n)/n^2", "1/((2*n+1)*ln(2*n+1)^2)",
])
def test_combo_value_adds_the_vanishing_part_back(text):
    combo = _term_combo(text)
    n = nm.from_value(10**6)
    direct = nm.to_float(nm.ext_ln(ex.eval_expr(ex.parse(text), n)))
    split = nm.to_float(combo.value(n))
    assert split == pytest.approx(direct, rel=1e-12)


_MONOMIALS = st.tuples(
    st.sampled_from([Fraction(v) for v in ("1", "2", "1/3", "5", "3/2")]),
    st.sampled_from([-1, 1]),
    st.sampled_from([Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1")]),
    st.sampled_from([Fraction(v) for v in ("-1", "-1/2", "0", "1/2", "2")]),
)


_TOWER_POINT = nm.ExtScalar.tower(2, 40).lowered()


@given(st.lists(_MONOMIALS, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_sum_over_its_leader_tends_to_one(monomials):
    # at the tower point n = exp(exp(40)), in plain form so that
    # negative monomials evaluate, every lower monomial is at most
    # 15 * (ln n)^(-1/2) < 3e-8 of the leader
    expr = None
    for q, sign, p0, p1 in monomials:
        m = ex.parse(f"{q}*n^({p0})*(ln(n))^({p1})")
        if expr is None:
            expr = m if sign > 0 else ex.Mul(ex.Const(-1), m)
        else:
            expr = (ex.Add if sign > 0 else ex.Sub)(expr, m)
    lead = ex._lead(expr)
    assume(lead is not None)
    ratio = ex.Div(expr, ex._monomial_expr(lead))
    value = nm.to_float(ex.eval_expr(ratio, _TOWER_POINT))
    assert value == pytest.approx(1, abs=1e-6)


# -- node semantics ------------------------------------------------------------


def test_nodes_compare_by_type_and_fields():
    a, b = ex.Var(), ex.Const(2)
    assert ex.Add(a, b) == ex.Add(ex.Var(), ex.Const(2))
    assert ex.Add(a, b) != ex.Mul(a, b)
    assert ex.Sub(a, b) != ex.Div(a, b)
    assert ex.Const(2) != ex.Param("2")


def test_equal_trees_hash_equal_and_work_as_dict_keys():
    first, second = ex.parse("n^(-2)*(ln(n))^3"), ex.parse("n^(-2)*(ln(n))^3")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    table = {first: "seen"}
    assert table[second] == "seen"
    assert ex.parse("n^(-2)*(ln(n))^2") not in table


def test_bind_keeps_unchanged_subtrees_by_identity():
    tree = ex.parse("(ln(n))^2/n^a + exp(-n)")
    bound = ex.bind(tree, {"a": 3})
    assert bound.left.left is tree.left.left  # (ln(n))^2 has no parameter
    assert bound.right is tree.right
    assert bound.left.right == ex.Pow(ex.Var(), ex.Const(Fraction(3)))
    assert ex.bind(tree, {}) is tree
    assert ex.bind(tree, {"b": 1}) is tree


def test_subtree_fields_cover_every_node_class():
    nodes = {cls for cls in vars(ex).values()
             if isinstance(cls, type) and issubclass(cls, ex.Expr)
             and cls is not ex.Expr}
    assert set(ex._SUBTREE_FIELDS) == nodes
    pair = ("left", "right")
    assert {cls.__name__: names
            for cls, names in ex._SUBTREE_FIELDS.items()} == {
        "Const": (), "Param": (), "Var": (), "Add": pair, "Sub": pair,
        "Mul": pair, "Div": pair, "Pow": ("base", "exponent"),
        "Exp": ("arg",), "IterLn": ("arg",),
    }


def test_replace_and_fields_work_on_nodes():
    # a node is rebuilt from its fields, which __slots__ lists in
    # constructor order
    node = ex.IterLn(2, ex.Var())
    assert type(node)(3, *node._values()[1:]) == ex.IterLn(3, ex.Var())
    assert list(node.__slots__) == ["count", "arg"]
    assert repr(ex.Add(ex.Var(), ex.Const(2))) == (
        "Add(left=Var(), right=Const(value=2))")
