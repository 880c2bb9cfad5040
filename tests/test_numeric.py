"""Extended-scalar arithmetic and precision plumbing."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from logladder import numeric as nm
from logladder.errors import DivisionByZero, ParseError, RangeError


def test_from_value_roundtrip():
    for v in (0, 1, -3, Fraction(2, 7), 1.25, "3.5"):
        x = nm.from_value(v)
        assert nm.to_float(x) == pytest.approx(float(Fraction(v)), rel=1e-15)


@pytest.mark.parametrize("text", ["", "abc", "exp^2(3)"])
def test_from_value_rejects_non_decimal_strings(text):
    with pytest.raises(ParseError, match="not a scalar"):
        nm.from_value(text)


def _from_value_at_working_precision(x):
    with nm._Working():
        return nm._plain(nm._to_mpf(x))


@pytest.mark.parametrize("scope", [
    lambda: nm.local_precision(nm.get_precision()),
    lambda: mp.workprec(10),
    lambda: nm.local_precision(4096),
], ids=["default", "mp-10-bits", "4096-bits"])
@pytest.mark.parametrize("x", [
    0, 1, -1, 16, 2**53 - 1, -(2**53 - 1), 2**53, -2**53, 10**30, -10**30,
    True,
])
def test_from_value_of_an_int_is_exact_at_every_precision(scope, x):
    with scope():
        got = nm.from_value(x)
        want = _from_value_at_working_precision(x)
    assert (got.sign, got.level, got.mag._mpf_) == (
        want.sign, want.level, want.mag._mpf_)


_WIDTHS = (64, 256, 1024)


def _around_width(draw):
    """An int whose bit length is near one of the working widths
    (bits + the guard bits), on either side, or a small one."""
    size = draw(st.sampled_from(_WIDTHS)) + nm._GUARD + draw(
        st.integers(-3, 3))
    return draw(st.one_of(
        st.integers(0, 2**40),
        st.integers(2**(size - 1), 2**size - 1),
    ))


@st.composite
def _fractions(draw):
    p = _around_width(draw) * draw(st.sampled_from([1, -1]))
    q = max(1, _around_width(draw))
    return Fraction(p, q)


@settings(max_examples=400, deadline=None)
@given(_fractions(), st.sampled_from(_WIDTHS))
def test_from_value_of_a_fraction_is_one_rounded_division(x, bits):
    # the same sign, level and mpf as mpf(p) / mpf(q) at the working
    # precision, whether p and q fit in it or not
    with nm.local_precision(bits):
        got = nm.from_value(x)
        want = _from_value_at_working_precision(x)
    assert (got.sign, got.level, got.mag._mpf_) == (
        want.sign, want.level, want.mag._mpf_)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(-1, 2), Fraction(1, 3),
                               Fraction(-2**300, 3**200)])
def test_from_value_of_a_fraction_at_each_width(x):
    for bits in _WIDTHS:
        with nm.local_precision(bits):
            got = nm.from_value(x)
            want = _from_value_at_working_precision(x)
        assert (got.sign, got.level, got.mag._mpf_) == (
            want.sign, want.level, want.mag._mpf_)


def test_zero_one_constants():
    assert nm.to_float(nm.ZERO) == 0.0
    assert nm.to_float(nm.ONE) == 1.0
    assert nm.ZERO == nm.from_value(0)


def test_plain_arithmetic():
    a = nm.from_value(3)
    b = nm.from_value(2)
    assert nm.to_float(nm.ext_add(a, b)) == 5.0
    assert nm.to_float(nm.ext_sub(a, b)) == 1.0
    assert nm.to_float(nm.ext_mul(a, b)) == 6.0
    assert nm.to_float(nm.ext_div(a, b)) == 1.5
    assert nm.to_float(nm.ext_pow(a, b)) == 9.0
    assert nm.to_float(nm.ext_neg(a)) == -3.0
    assert nm.to_float(abs(nm.from_value(-4))) == 4.0


def test_comparisons():
    xs = [nm.from_value(v) for v in (-2, 0, 1, 7)]
    assert xs == sorted(xs)
    assert nm.from_value(2) > nm.from_value(1)
    assert not nm.from_value(1) > nm.from_value(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        nm.ext_div(nm.ONE, nm.ZERO)


def test_ln_domain():
    with pytest.raises((DivisionByZero, RangeError, Exception)):
        nm.ext_ln(nm.ZERO)


def test_iter_ln_known_values():
    # ln(e) = 1 and lnln(e^e) = 1
    e1 = nm.ext_exp(nm.ONE)
    assert nm.to_float(nm.iter_ln(1, e1)) == pytest.approx(1.0, abs=1e-60)
    e2 = nm.ext_exp(e1)
    assert nm.to_float(nm.iter_ln(2, e2)) == pytest.approx(1.0, abs=1e-50)
    # k = 0 is the identity
    x = nm.from_value(17)
    assert nm.iter_ln(0, x) == x


def test_iter_ln_matches_mpmath():
    x = nm.from_value(10**6)
    got = nm.to_float(nm.iter_ln(2, x))
    want = float(mp.log(mp.log(10**6)))
    assert got == pytest.approx(want, rel=1e-12)


def test_tower_to_float_overflows_to_inf():
    t = nm.ext_exp(nm.from_value(10**9))  # e^(10^9), far past float range
    assert math.isinf(nm.to_float(t))
    assert nm.to_float(t) > 0


def test_tower_ordering():
    big = nm.ext_exp(nm.from_value(10**9))
    bigger = nm.ext_exp(big)
    assert big < bigger
    assert nm.from_value(1e300) < big


def test_tower_log_returns_plain():
    t = nm.ext_exp(nm.from_value(10**9))
    back = nm.ext_ln(t)
    assert nm.to_float(back) == pytest.approx(1e9, rel=1e-12)


def test_ext_pow_rational_exponent():
    x = nm.from_value(8)
    assert nm.to_float(nm.ext_pow(x, nm.from_value(Fraction(1, 3)))) == (
        pytest.approx(2.0, rel=1e-15)
    )


def test_local_precision_context():
    before = nm.get_precision().significand_bits
    with nm.local_precision(96):
        assert nm.get_precision().significand_bits == 96
    assert nm.get_precision().significand_bits == before


def test_absorption_log_collects_messages():
    big = nm.ext_exp(nm.ext_exp(nm.from_value(10**9)))
    with nm.absorption_log() as log:
        nm.ext_add(big, nm.ONE)
    # adding 1 to a double tower is absorbed; the log must say so, with
    # 8 significant digits at any precision
    assert log == ["term 1.0 absorbed into exp^5(1.1089774)"]


def test_nested_absorption_logs_keep_their_own_sinks():
    big = nm.ext_exp(nm.ext_exp(nm.from_value(10**9)))
    with nm.absorption_log() as outer:
        with nm.absorption_log() as inner:
            nm.ext_add(big, nm.ONE)
        # the two logs now hold equal contents; the inner exit must
        # unregister the inner one, not the outer
        nm.ext_add(big, nm.ONE)
    assert len(inner) == 1 and len(outer) == 2


def test_fmt_digits():
    s = nm.fmt(nm.from_value(Fraction(1, 3)), digits=6)
    assert s.startswith("0.333333")
