"""Calibration of the sampled route against the exact one.

Every Bertrand tuple n^p0 (ln n)^p1 (lnln n)^p2 has an exact statistic on
every rung, so the numeric backend, which samples the same rungs, can be
checked against ground truth: a decisive verdict must be on the right
side, and a fitted limit must lie within its reported uncertainty of
the exact value. Shifted tuples (n+c) keep the classical verdict, and
by default they take the exact route: ln(n+c) is ln n plus a part that
tends to 0.
"""

import math

import pytest

from known_verdicts import bertrand, bertrand_tuples, classical_verdict
from logladder import criteria as cr
from logladder import numeric as nm

NUMERIC = cr.AnalysisPolicy(backend="numeric")


def _numeric_reports(shift):
    return {ps: cr.analyze(bertrand(ps, shift), NUMERIC)
            for ps in bertrand_tuples()}


@pytest.fixture(scope="module")
def unshifted():
    return _numeric_reports(0)


def test_numeric_backend_never_decides_the_wrong_side(unshifted):
    wrong, inconclusive, runs = [], 0, 0
    for shift in (0, 1, 2, 3):
        reports = unshifted if shift == 0 else _numeric_reports(shift)
        for ps, report in reports.items():
            runs += 1
            decision = report.final.decision
            if decision == "inconclusive":
                inconclusive += 1
            elif decision != classical_verdict(ps):
                wrong.append((bertrand(ps, shift), decision,
                              report.final.test_id))
    print(f"numeric backend: {runs} runs, {len(wrong)} wrong, "
          f"{inconclusive} inconclusive")
    assert runs == 1032
    assert wrong == []


def _float_callable(ps):
    def f(n):
        v, x = 1.0, float(n)
        for p in ps:
            v *= x ** float(p)
            x = math.log(x)
        return v
    return cr.CallableTerm(f, n_start=16)


def test_float_callables_never_decide_the_wrong_side():
    # Callables sample at w = ln on plain grids, where every point below
    # n = 3.8e6 has a quotient denominator lnln n < e. With the drift
    # terms floored there, (-1,-1,-1), (-1,-1,-1/2), (-1,-1/2,-2) and
    # (-1,-1/2,-3/2) read "converges".
    wrong = []
    for ps in bertrand_tuples():
        decision = cr.analyze(_float_callable(ps)).final.decision
        if decision not in ("inconclusive", classical_verdict(ps)):
            wrong.append((ps, decision))
    assert wrong == []


def _key(v):
    return v.test_id, v.scale.name if v.scale is not None else None, v.level


def test_fitted_limits_cover_the_exact_statistic(unshifted):
    covered, missed = 0, []
    for ps, report in unshifted.items():
        exact = {_key(v): v.exact_value
                 for v in cr.analyze(bertrand(ps, 0)).trace
                 if v.exact_value is not None}
        for v in report.trace:
            est = v.statistic
            if (v.test_id not in ("raabe", "scaled-log", "hierarchy")
                    or est.status != "converged" or _key(v) not in exact):
                continue
            err = abs(nm.to_float(est.value) - float(exact[_key(v)]))
            if err <= nm.to_float(est.uncertainty):
                covered += 1
            else:
                missed.append((bertrand(ps, 0), _key(v), err))
    print(f"coverage: {covered} of {covered + len(missed)} converged rows")
    assert covered > 0
    assert missed == []


def test_shifted_tuples_take_the_exact_route():
    wrong = []
    for ps in bertrand_tuples():
        for shift in (1, 2, 3):
            report = cr.analyze(bertrand(ps, shift))
            if (report.backend != "symbolic"
                    or report.final.decision != classical_verdict(ps)):
                wrong.append((bertrand(ps, shift), report.backend,
                              report.final.decision))
    assert len(bertrand_tuples()) * 3 == 774
    assert wrong == []
