"""Summation oracle: direct sums, tail corrections, and rate fits."""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from logladder import criteria as cr
from logladder import expr as ex
from logladder import numeric as nm
from logladder import sums
from logladder.errors import (
    BudgetExceededError,
    PositivityViolation,
    RangeError,
)

# Exact rational reference for the first frozen example.
_FIRST_TEN = sum(Fraction(1, i * i) for i in range(1, 11))


def test_partial_sum_first_ten():
    r = sums.partial_sum("1/n^2", 10)
    assert r.n_terms == 10
    assert nm.to_float(r.value) == pytest.approx(float(_FIRST_TEN),
                                                 rel=1e-14)
    assert str(float(_FIRST_TEN)).startswith("1.549767731")


def test_zero_padded_single_term():
    r = sums.partial_sum(lambda n: 1.0 if n == 5 else 0.0, 100)
    assert nm.to_float(r.value) == 1.0


def test_partial_sum_monotone_in_n():
    prev = 0.0
    for N in (10, 100, 1000, 10000):
        v = nm.to_float(sums.partial_sum("1/n^2", N).value)
        assert v > prev
        prev = v


def test_roundoff_invariant():
    r = sums.partial_sum("1/n^2", 10**5)
    bound = r.n_terms * 2.0 ** (1 - r.precision_bits) * nm.to_float(r.value)
    assert nm.to_float(r.estimated_roundoff) <= bound * (1 + 1e-12)


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        sums.partial_sum("1/n", 10**9)
    with pytest.raises(BudgetExceededError):
        sums.partial_sum("1/n", 10**6, budget=10**5)


def test_negative_terms_rejected():
    with pytest.raises(PositivityViolation):
        sums.partial_sum(lambda n: 1.0 if n < 50 else -1.0, 1000)


def test_start_index_respects_domain():
    # lnln needs n >= 3; the first index must clear it automatically
    r = sums.partial_sum("1/(n*ln(n)*lnln(n))", 100)
    assert nm.to_float(r.value) > 0


def test_high_precision_path_matches_float():
    a = sums.partial_sum("1/n^2", 2000)
    b = sums.partial_sum("1/n^2", 2000, precision=128)
    assert b.precision_bits == 128
    assert nm.to_float(a.value) == pytest.approx(
        nm.to_float(b.value), rel=1e-12
    )


def test_single_term_window():
    r = sums.tail_sum("1/n^2", 9, 10)
    assert nm.to_float(r.value) == pytest.approx(1 / 81 + 1 / 100,
                                                 rel=1e-14)


def test_tail_window_starts_at_or_past_the_first_index():
    # lnln needs n >= 16: a window from 3 would sum terms outside the
    # sequence's domain, so it is refused as checkpoint_sums refuses one
    text = "1/(n*ln(n)*lnln(n))"
    for n in (2, 3, 15):
        with pytest.raises(ValueError, match=f"tail start {n} is below "
                                             "the first index 16"):
            sums.tail_sum(text, n, 100)
    r = sums.tail_sum(text, 16, 100)
    assert r.n_terms == 85
    assert r.value == sums.partial_sum(text, 100).value


def test_tail_estimate_inverse_square():
    r = sums.tail_sum("1/n^2", 10**4, 10**8)
    want = float(mp.zeta(2, 10**4))  # independent reference for the tail
    assert nm.to_float(r.estimate) == pytest.approx(want, rel=1e-4)
    # the window alone misses the reference by the truncated remainder
    assert nm.to_float(r.value) < want


def test_tail_estimate_needs_correction():
    r = sums.tail_sum("n^(-3/2)", 10**4, 10**8)
    want = float(mp.zeta(mp.mpf(3) / 2, 10**4))
    est = nm.to_float(r.estimate)
    raw = nm.to_float(r.value)
    assert est == pytest.approx(want, rel=2e-3)
    assert abs(raw - want) / want > 5e-3  # correction is load-bearing
    assert r.truncation_correction is not None


def test_checkpoint_sums_and_csv(tmp_path):
    rows = sums.checkpoint_sums("1/n^2", [10, 100, 1000])
    vals = [nm.to_float(s) for _, s in rows]
    assert vals == sorted(vals)
    assert vals[0] == pytest.approx(float(_FIRST_TEN), rel=1e-14)
    out = tmp_path / "cp.csv"
    sums.write_checkpoints_csv(out, rows)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,partial_sum"
    assert len(lines) == 4


def test_checkpoint_requires_reachable_indices():
    with pytest.raises(ValueError):
        sums.checkpoint_sums("1/(n*ln(n))", [1, 100])  # 1 precedes ln > 0


def test_log_increment_consistency():
    # S(10^6) - S(10^5) for 1/(n ln n) tracks lnln growth
    rows = sums.checkpoint_sums("1/(n*ln(n))", [10**5, 10**6])
    diff = nm.to_float(rows[1][1]) - nm.to_float(rows[0][1])
    want = float(mp.log(mp.log(10**6)) - mp.log(mp.log(10**5)))
    assert diff == pytest.approx(want, rel=1e-3)


# -- slope checks ------------------------------------------------------------------

_CPS = [10**4, 10**5, 10**6, 10**7]


def test_slope_check_slow_log():
    rep = cr.analyze("1/(n*ln(n))")
    chk = sums.slope_check("1/(n*ln(n))", rep.final.rate, _CPS,
                           tolerance=0.02)
    assert chk.passed
    assert chk.target == 1.0
    assert chk.observed[-1] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("text", [
    "1/((2*n+1)*ln(2*n+1))", "3/((n+1)*ln(2*n))",
])
def test_slope_check_slow_log_fits_the_constant(text):
    rate = cr.analyze(text).final.rate
    target = nm.to_float(rate.constant)
    chk = sums.slope_check(text, rate, _CPS)
    assert chk.passed
    assert chk.fitted_constant == pytest.approx(target, rel=0.005)
    off = rate._replace(constant=nm.from_value(1.1 * target))
    assert sums.slope_check(text, off, _CPS).status == "fail"


def test_slope_check_precise_tail():
    rep = cr.analyze("1/n^2")
    chk = sums.slope_check("1/n^2", rep.final.rate, _CPS, tolerance=0.001)
    assert chk.passed
    assert chk.observed[-1] == pytest.approx(1.0, abs=0.001)


def test_slope_check_log_ratio_partial():
    rep = cr.analyze("(ln(n))^t/n", params={"t": "0.5"})
    chk = sums.slope_check("(ln(n))^t/n", rep.final.rate, _CPS,
                           tolerance=0.02, params={"t": "0.5"})
    assert chk.passed
    assert chk.target == pytest.approx(1.5)


def test_slope_check_log_ratio_tail():
    rep = cr.analyze("(ln(n))^t/n", params={"t": -2})
    chk = sums.slope_check("(ln(n))^t/n", rep.final.rate, _CPS,
                           tolerance=0.05, params={"t": -2})
    assert chk.passed
    assert chk.target == pytest.approx(-1.0)
    assert chk.observed[-1] == pytest.approx(-1.0, abs=0.05)


def test_slope_check_insufficient_signal():
    rep = cr.analyze("(lnln(n))^p/(n*ln(n))", params={"p": -2})
    chk = sums.slope_check("(lnln(n))^p/(n*ln(n))", rep.final.rate, _CPS,
                           params={"p": -2})
    assert chk.status == "insufficient-signal"
    assert "e-folds" in chk.note


def test_slope_check_detects_wrong_prediction():
    # rate fitted for 1/n^2 applied to sums of 1/n^3 must fail
    rep = cr.analyze("1/n^2")
    chk = sums.slope_check("1/n^3", rep.final.rate, _CPS, tolerance=0.001)
    assert chk.status == "fail"


def test_slope_check_needs_slow_log_constant():
    # a slow-log prediction without its constant has nothing to fit
    # against, so nothing is summed
    rep = cr.analyze("1/(n*ln(n))")
    open_rate = cr.RatePrediction(template="slow-log",
                                  scale=rep.final.rate.scale)
    chk = sums.slope_check("1/(n*ln(n))", open_rate, _CPS)
    assert chk.status == "insufficient-signal"
    assert chk.note == "prediction carries no constant"
    assert chk.rows == ()


def test_slope_check_needs_three_checkpoints():
    rep = cr.analyze("1/n^2")
    with pytest.raises(ValueError):
        sums.slope_check("1/n^2", rep.final.rate, [10**4, 10**5])


def test_slope_check_determinism():
    rep = cr.analyze("1/(n*ln(n))")
    a = sums.slope_check("1/(n*ln(n))", rep.final.rate, _CPS)
    b = sums.slope_check("1/(n*ln(n))", rep.final.rate, _CPS)
    assert a == b


# -- compiled kernel --------------------------------------------------------------


def _reference_compile(e):
    """Naive evaluator: every node, constants included, over whole arrays."""
    if isinstance(e, ex.Const):
        c = float(e.value)
        return lambda x: np.full_like(x, c)
    if isinstance(e, ex.Var):
        return lambda x: x
    if isinstance(e, ex.Add):
        a, b = _reference_compile(e.left), _reference_compile(e.right)
        return lambda x: a(x) + b(x)
    if isinstance(e, ex.Sub):
        a, b = _reference_compile(e.left), _reference_compile(e.right)
        return lambda x: a(x) - b(x)
    if isinstance(e, ex.Mul):
        a, b = _reference_compile(e.left), _reference_compile(e.right)
        return lambda x: a(x) * b(x)
    if isinstance(e, ex.Div):
        a, b = _reference_compile(e.left), _reference_compile(e.right)
        return lambda x: a(x) / b(x)
    if isinstance(e, ex.Pow):
        a, b = _reference_compile(e.base), _reference_compile(e.exponent)
        return lambda x: np.power(a(x), b(x))
    if isinstance(e, ex.Exp):
        a = _reference_compile(e.arg)
        return lambda x: np.exp(a(x))
    if isinstance(e, ex.IterLn):
        a = _reference_compile(e.arg)

        def f(x):
            y = a(x)
            for _ in range(e.count):
                y = np.log(y)
            return y

        return f
    raise TypeError(e)


@pytest.mark.parametrize("text", [
    "n^2", "n^(1/2)", "n^(-1)", "1/(n^2+1)",
    "(1/3+1/7)*n^(-2)", "2^(-1/2)*n^(-3/2)",
    "1/(n*ln(n+1))", "exp(-n/1000)",
])
@pytest.mark.parametrize("lo", [1, 10**8 - sums.CHUNK + 1])
def test_compiled_terms_bit_identical_to_reference(text, lo):
    term = cr.ExprTerm(text)
    idx = np.arange(lo, lo + sums.CHUNK, dtype=np.float64)
    with np.errstate(all="ignore"):
        want = _reference_compile(term.expression)(idx.copy())
    got = sums._chunk_evaluator(term)(idx.copy())
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def _run_with_workers(monkeypatch, workers, *args, **kw):
    monkeypatch.setattr(sums.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sums, "_MAX_WORKERS", workers)
    return sums._run(*args, **kw)


def test_run_independent_of_worker_count(monkeypatch):
    monkeypatch.setattr(sums, "CHUNK", 1000)
    term = cr.ExprTerm("1/(n*ln(n+1))")
    # Cuts mid-chunk, on the ends of the chunks they shape, past the end.
    cuts = [500, 1500, 2499, 2500, 3500, 7777, 10500, 20000]
    runs = [
        _run_with_workers(monkeypatch, w, term, 1, 10500, 10**6, cuts=cuts)
        for w in (1, 4, sums._MAX_WORKERS)
    ]
    total, at_cuts, n_terms = runs[0]
    assert n_terms == 10500
    assert [n for n, _ in at_cuts] == cuts[:-1]
    assert at_cuts[-1][1] == total
    for other in runs[1:]:
        assert other == runs[0]


def _bad_from(n0, bad):
    """Vectorized terms 1/n^2 that turn to bad from index n0 on."""
    def fn(x):
        out = np.where(np.asarray(x) < n0, 1.0 / np.square(x), bad)
        return out if out.ndim else float(out)

    return fn


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("source, first_bad, error", [
    ("exp(n)", 710, RangeError),
    (lambda n: 1.0 / n**2 if n < 3456 else -1.0, 3456, PositivityViolation),
    (_bad_from(3456, -1.0), 3456, PositivityViolation),
    (_bad_from(3456, np.nan), 3456, RangeError),
])
def test_run_error_names_first_bad_index(monkeypatch, workers, source,
                                         first_bad, error):
    # Every chunk from the first bad one on fails; with several in flight
    # the error must still come from the earliest.
    monkeypatch.setattr(sums, "CHUNK", 100)
    term = cr._as_term(source, None)
    with pytest.raises(error, match=f"term at n={first_bad} "):
        _run_with_workers(monkeypatch, workers, term, 1, 9000, 10**6)


def test_chunk_total_overflow_is_range_error():
    with pytest.raises(RangeError, match="overflows float64"):
        sums.partial_sum("10^308", 3)
