"""Property-based invariants of the decision ladder."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from known_verdicts import (
    EXPONENTS, MutatedTerm, bertrand, classical_verdict,
)
from logladder import criteria as cr
from logladder import numeric as nm
from logladder import scale as sc

_SETTINGS = dict(max_examples=40, deadline=None)


@given(st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=3))
@settings(**_SETTINGS)
def test_bertrand_matches_classical_rule(ps):
    rep = cr.analyze(bertrand(ps))
    assert rep.final.decision == classical_verdict(ps)


@given(st.sampled_from([Fraction(v) for v in
                        ("-3", "-2", "-3/2", "-1", "-1/2", "0", "1/2")]))
@settings(**_SETTINGS)
def test_backend_agreement_on_statistics(t):
    sym = cr.scaled_log_test("(ln(n))^t/n", sc.IterLog(1),
                             params={"t": t})
    num = cr.scaled_log_test(
        "(ln(n))^t/n", sc.IterLog(1),
        cr.AnalysisPolicy(backend="numeric"), params={"t": t},
    )
    assert sym.decision == num.decision
    if num.statistic.status == "converged":
        assert nm.to_float(num.statistic.value) == pytest.approx(
            float(t), abs=1e-6
        )


@given(
    st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=3),
    st.sampled_from([Fraction(1, 1000), Fraction(1000)]),
)
@settings(**_SETTINGS)
def test_scaling_invariance(ps, c):
    base = bertrand(ps)
    r1 = cr.analyze(base)
    r2 = cr.analyze(f"({c})*{base}")
    assert r1.final.decision == r2.final.decision
    assert [v.decision for v in r1.trace] == [v.decision for v in r2.trace]


@given(
    st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=2),
    st.dictionaries(
        st.integers(min_value=1, max_value=100),
        st.sampled_from([Fraction(1, 1000), Fraction(1), Fraction(5),
                         Fraction(1000)]),
        min_size=1, max_size=8,
    ),
)
@settings(**_SETTINGS)
def test_tail_invariance_under_prefix_mutation(ps, overrides):
    base = cr.ExprTerm(bertrand(ps))
    mut = MutatedTerm(base, overrides)
    r1 = cr.analyze(base)
    r2 = cr.analyze(mut)
    assert r1.final.decision == r2.final.decision


@given(st.sampled_from([Fraction(v) for v in ("5/4", "3/2", "2", "3")]))
@settings(**_SETTINGS)
def test_rate_prediction_consistency(s):
    expr = f"n^(-{s})"
    v = cr.raabe_test(expr)
    assert v.decision == "converges"
    assert v.rate.exact_order == -s
    # precise-tail: -(w(n)/dw(n)) a_n / (1 + order) with w(n) = n
    n = 10**4
    got = nm.to_float(v.rate.predicted_sum(cr.ExprTerm(expr), n))
    assert got == pytest.approx(n ** (1 - float(s)) / (float(s) - 1),
                                rel=1e-12)


@given(st.sampled_from([Fraction(v) for v in ("-2", "-3/2", "-1/2", "1")]))
@settings(**_SETTINGS)
def test_hierarchy_consistency_at_deciding_level(p):
    full = cr.hierarchy_test("(lnln(n))^p/(n*ln(n))", sc.IterLog(1),
                             params={"p": p})
    deciding = full[-1]
    assert deciding.level == 1
    rerun = cr.hierarchy_test("(lnln(n))^p/(n*ln(n))", sc.IterLog(1),
                              policy=cr.AnalysisPolicy(k_max=1),
                              params={"p": p})
    assert rerun[-1].decision == deciding.decision
    assert rerun[-1].exact_value == deciding.exact_value
