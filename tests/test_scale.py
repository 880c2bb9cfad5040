"""Scale functions: values, increments, log-increment forms, parsing."""

from fractions import Fraction

import pytest
from mpmath import mp

from logladder import numeric as nm
from logladder import scale as sc
from logladder.errors import AssumptionViolation, LogLadderError


def test_identity_basics():
    w = sc.IterLog(0)
    assert w.name == "n"
    n = nm.from_value(7)
    assert nm.to_float(w.value(n)) == 7.0
    assert nm.to_float(w.delta(n)) == 1.0
    assert w.log_delta_combo().coeffs == {}


def test_iterlog_names_and_values():
    assert sc.IterLog(1).name == "ln"
    assert sc.IterLog(2).name == "lnln"
    assert sc.IterLog(3).name == "lnlnln"
    n = nm.from_value(10**6)
    assert nm.to_float(sc.IterLog(2).value(n)) == pytest.approx(
        float(mp.log(mp.log(10**6))), rel=1e-12
    )


def test_iterlog_depth_validation():
    with pytest.raises((ValueError, LogLadderError)):
        sc.IterLog(-1)
    # depth 0 is n itself, with an increment of exactly 1
    w = sc.IterLog(0)
    assert w.name == "n" and sc.parse_scale("n") == w
    d = w.delta(nm.from_value(10**6))
    assert (d.sign, d.level, d.mag) == (1, 0, 1)


def test_delta_matches_finite_difference():
    for w in (sc.IterLog(0), sc.IterLog(1), sc.IterLog(2),
              sc.PowerOfN(Fraction(1, 2))):
        n = nm.from_value(10**4)
        n1 = nm.from_value(10**4 + 1)
        direct = nm.ext_sub(w.value(n1), w.value(n))
        got = w.delta(n)
        assert nm.to_float(got) == pytest.approx(
            nm.to_float(direct), rel=1e-9
        ), w.name


def test_iterlog_delta_stable_at_large_n():
    # naive subtraction would cancel catastrophically here
    w = sc.IterLog(2)
    n = nm.from_value(10**12)
    d = nm.to_float(w.delta(n))
    # d/dn lnln(n) = 1/(n ln n)
    want = float(1 / (mp.mpf(10**12) * mp.log(10**12)))
    assert d == pytest.approx(want, rel=1e-3)


def test_log_delta_combo_iterlog():
    # increment of ln_k(n) is roughly 1/(n ln n ... ln_{k-1} n)
    combo = sc.IterLog(2).log_delta_combo()
    assert combo.coeffs == {1: Fraction(-1), 2: Fraction(-1)}


def test_log_delta_includes_correction():
    w = sc.IterLog(1)
    n = nm.from_value(10**6)
    with mp.workprec(300):
        exact = nm.from_value(mp.log(mp.log1p(mp.mpf(1) / 10**6)))
    combo_part = nm.ext_neg(nm.iter_ln(1, n))  # combo says -ln(n)
    corr = w.delta_correction(n)
    assert nm.to_float(exact) == pytest.approx(
        nm.to_float(nm.ext_add(combo_part, corr)), rel=1e-10
    )
    assert nm.to_float(w.log_delta(n)) == pytest.approx(
        nm.to_float(exact), rel=1e-10
    )


def test_ln_chain_builds_iterated_logs():
    from logladder import expr as ex
    w = sc.IterLog(1)
    chain2 = w.ln_chain(2)  # ln(ln(w)) with w = ln(n)
    n = nm.from_value(10**8)
    got = nm.to_float(ex.eval_expr(chain2, n))
    want = float(mp.log(mp.log(mp.log(10**8))))
    assert got == pytest.approx(want, rel=1e-12)


def test_iterlog_ln_chain_is_the_generic_chain(monkeypatch):
    from logladder import expr as ex
    want = {(d, k): sc.ScaleFn.ln_chain(sc.IterLog(d), k)
            for d in range(5) for k in range(6)}

    def refuse(e):
        raise AssertionError("log_transform rebuilt the chain")

    monkeypatch.setattr(ex, "log_transform", refuse)
    for (d, k), chain in want.items():
        assert sc.IterLog(d).ln_chain(k) == chain
    with pytest.raises(ValueError):
        sc.IterLog(1).ln_chain(-1)


def test_power_scale():
    w = sc.PowerOfN(Fraction(1, 2))
    n = nm.from_value(10**4)
    assert nm.to_float(w.value(n)) == pytest.approx(100.0, rel=1e-12)
    with pytest.raises((ValueError, LogLadderError)):
        sc.PowerOfN(Fraction(-1))


def test_custom_scale_and_assumptions():
    w = sc.parse_scale("expr:n^2")
    n = nm.from_value(10)
    assert nm.to_float(w.value(n)) == pytest.approx(100.0)
    w.check_assumptions()  # raises when an assumption fails


def test_custom_decreasing_rejected():
    from logladder import criteria as cr

    w = sc.parse_scale("expr:1/n")
    with pytest.raises(AssumptionViolation) as failed:
        w.check_assumptions()
    assert failed.value.which == "a"
    assert str(failed.value).startswith("a:")
    # a pinned scale that fails its assumptions must stop the run
    with pytest.raises(AssumptionViolation):
        cr.analyze("1/n^2", cr.AnalysisPolicy(scale=w))


def test_parse_scale_forms():
    assert sc.parse_scale("n").name == "n"
    assert sc.parse_scale("ln").name == "ln"
    assert sc.parse_scale("lnlnln").name == "lnlnln"
    assert isinstance(sc.parse_scale("pow:1/2"), sc.PowerOfN)
    with pytest.raises((LogLadderError, ValueError)):
        sc.parse_scale("bogus")
