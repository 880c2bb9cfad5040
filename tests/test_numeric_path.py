"""The numeric sampling path: exact values, precision handling, reuse.

Evaluation enters the working precision once per expression or combo,
the domain search stops at integer resolution, and a Raabe statistic
evaluates each term once. None of that may change a value: the
references in numeric_path.json were recorded before those changes and
hold sign, tower level and the mpf mantissa and exponent of each result
(or the name of the error it raises). Regenerate them only for an
intended change of values, and say why in the change log:

    PYTHONPATH=src python tests/test_numeric_path.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from logladder import criteria as cr
from logladder import errors
from logladder import expr as ex
from logladder import numeric as nm
from logladder import scale as sc

REFERENCE = Path(__file__).with_name("numeric_path.json")

# Every node type: Const, Param, Var, Add, Sub, Mul, Div, Pow (integer,
# fractional, negative base, n-free base), Exp and IterLn.
_EXPRESSIONS = (
    "n + 3",
    "n - 1/3",
    "2*n*ln(n)",
    "n/(n+1)",
    "n^(3/2)",
    "(n+1)^(-2)",
    "(1-n)^3",
    "2^n",
    "exp(-n)",
    "exp(n)/n^2",
    "lnln(n+2)",
    "lnlnlnln(n)",
    "log_3(n)",
    "n^t*(ln(n))^s",
    "1/(n^2+1/(n^2+1))",
    "(n+2)^(-1)*(ln(n+2))^(-1)*(lnln(n+2))^(-1/2)",
    "n - n",
    "ln(n - n)",
    "1/(n - n)",
)
_PARAMS = {"t": Fraction(-1, 2), "s": Fraction(3)}
_PLAIN = (2, 7, 10**6, 10**40)
_TOWERS = ((1, 50), (2, 3), (3, 2), (3, 3), (5, 2))


def _index(point):
    if isinstance(point, int):
        return nm.from_value(point)
    return nm.ExtScalar.tower(*point)


def _precisions(point):
    """The default working precision, and the one a Raabe sample at this
    index uses (towers take the quotient samplers' bits + 64)."""
    bits = nm.get_precision().significand_bits
    if isinstance(point, int):
        n = nm.from_value(point)
        return bits, bits + cr._index_bits(n) + 64
    return bits, bits + 64


def _record(e, point, prec):
    with nm.local_precision(prec):
        try:
            v = ex.eval_expr(ex.bind(ex.parse(e), _PARAMS), _index(point))
        except errors.LogLadderError as err:
            return type(err).__name__
    man, exp = v.mag.man_exp
    return [v.sign, v.level, hex(man), exp]


def _cases():
    for e in _EXPRESSIONS:
        for point in _PLAIN + _TOWERS:
            for prec in _precisions(point):
                yield f"{e} @ {point} @ {prec}", e, point, prec


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_eval_expr_matches_recorded_values(reference):
    got = {key: _record(e, p, prec) for key, e, p, prec in _cases()}
    assert got.keys() == reference.keys()
    assert got == reference


@pytest.mark.parametrize("text, point, error", [
    ("ln(n - n)", 5, errors.DomainError),
    ("1/(n - n)", 5, errors.DivisionByZero),
    ("1 - n", (5, 2), errors.RangeError),
    ("n - n", (5, 2), errors.CancellationError),
])
@pytest.mark.parametrize("ambient", [53, 80])
def test_errors_raise_and_restore_precision(text, point, error, ambient):
    with mp.workprec(ambient):
        with pytest.raises(error):
            ex.eval_expr(ex.parse(text), _index(point))
        assert mp.prec == ambient
        combo = ex.LogCombo({}, Fraction(0), [], [ex.parse(text)])
        with pytest.raises(error):
            combo.value(_index(point))
        assert mp.prec == ambient


def test_evaluation_leaves_ambient_precision():
    with mp.workprec(80):
        ex.eval_expr(ex.parse("(n+1)^(-2)*ln(n)"), nm.from_value(9))
        with nm.local_precision(512):
            assert mp.prec == 80
            nm.ext_ln(nm.from_value(3))
            assert mp.prec == 80


def test_callable_sees_ambient_precision():
    seen = set()

    def fn(n):
        seen.add(mp.prec)
        return mp.mpf(n) ** -2

    with mp.workprec(70):
        report = cr.analyze(cr.CallableTerm(fn, n_start=2))
    assert report.final.decision == "converges"
    assert seen == {70}


def _brute_start(e):
    """Smallest integer n >= 1 clearing every iterated-log threshold."""
    thresholds = [
        (x.arg, nm.ext_mul(ex._iter_exp_one(x.count),
                           nm.from_value(Fraction(1000001, 1000000))))
        for x in ex._walk(e)
        if isinstance(x, ex.IterLn) and ex.contains_var(x.arg)
    ]
    n = 1
    while True:
        point = nm.from_value(n)
        if all(_above(arg, point, t) for arg, t in thresholds):
            return n
        n += 1


def _above(arg, point, threshold):
    try:
        return ex.eval_expr(arg, point) > threshold
    except (errors.DomainError, errors.DivisionByZero):
        return False


@pytest.mark.parametrize("text", [
    "ln(n+1)", "lnln(n+1)", "lnln(n+2)", "lnln(n+3)", "lnln(n+7)",
    "lnln(2*n+1)", "lnlnln(n^2+3)", "ln(ln(n+5) - 2)",
    "ln(2*lnln(n+2))", "1/(n*ln(n)*lnln(n))",
])
def test_domain_start_is_smallest_integer(text):
    e = ex.parse(text)
    assert ex.domain_start(e) == _brute_start(e)


def test_raabe_evaluates_each_term_once():
    calls = []

    def fn(n):
        calls.append((n, nm.get_precision().significand_bits))
        return (n + 1.0) ** -2

    term = cr.CallableTerm(fn, n_start=2)
    calls.clear()
    v = cr.raabe_test(term)
    assert v.decision == "converges"
    assert len(calls) == len(set(calls))
    # every grid point shares a(n+1) with its n+1 companion
    assert len(calls) == 3 * 10


def test_one_sided_rung_reuses_scaled_log_samples(monkeypatch):
    # the numeric backend samples every rung; with one escalation level
    # the ladder ends in the envelope reading at w = ln
    text = "(n+3)^(-1)*(ln(n+3))^(-1)*(lnln(n+3))^(-1)"
    policy = cr.AnalysisPolicy(backend="numeric", k_max=1)
    sampled = []
    real = cr._sample_grid
    monkeypatch.setattr(
        cr, "_sample_grid", lambda s, g: sampled.append(1) or real(s, g)
    )
    report = cr.analyze(text, policy)
    rows = [v.test_id for v in report.trace]
    assert rows[-1] == "one-sided"
    # every measure is sampled once: one-sided reads the scaled-log
    # samples at the same scale, and one slow-divergence row reads the
    # ln g measure
    assert rows.count("slow-divergence") == 1
    assert len(sampled) == len(rows) - 1
    # and the envelope verdict is the one the public test gives
    alone = cr.one_sided_test(text, sc.IterLog(1), policy)
    assert alone == report.trace[-1]


def test_analyze_does_not_load_numpy():
    code = (
        "import sys, io, contextlib\n"
        "import logladder.cli as cli\n"
        "assert 'logladder.sums' in sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['analyze', '(n+1)^(-2)'])\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


if __name__ == "__main__":
    ref = {key: _record(e, p, prec) for key, e, p, prec in _cases()}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} values to {REFERENCE}")
