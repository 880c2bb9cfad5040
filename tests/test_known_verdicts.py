"""The known-verdict corpus through the ladder.

A decisive verdict must be on the right side; "inconclusive" is an
honest answer. Every family of known_verdicts goes through analyze as
an expression and as its float-callable twin. The wrong decisive
verdicts must be exactly the known-wrong ones named below, so that a
fix shows here as a name to delete and a new wrong side fails.
"""

from collections import Counter

import pytest

from known_verdicts import FAMILIES
from logladder import criteria as cr
from logladder.errors import LogLadderError

# Two-sided scaled-log fits that read just below -1 (-1.036 +/- 0.035 at
# n and -1.040 +/- 0.033 at ln): the factor exp((ln_j n)^(1/2)) drifts
# more slowly than any drift term the fit models.
KNOWN_WRONG_EXPRESSIONS = {
    "exp((lnln(n))^(1/2))/(n*ln(n))",
    "exp((lnlnln(n))^(1/2))/(n*ln(n)*lnln(n))",
}

# Two-sided scaled-log fits of float samples, all below n = 2^62: the
# pre-asymptotic terms turn only past ln n = 10^4 or 10^6, and the
# exp-log terms fit a drift they never leave.
KNOWN_WRONG_TWINS = KNOWN_WRONG_EXPRESSIONS | {
    "exp(-(ln(n))^(1/4))/(n)",
    "exp((lnlnln(n))^(1/4))/(n*ln(n)*lnln(n))",
    "exp(-(ln(n))^(1/2))*n^(-1+1/100)",
    "exp((ln(n))^(1/2))*n^(-1-1/100)",
    "exp(-(ln(n))^(1/2))*n^(-1+1/1000)",
    "exp((ln(n))^(1/2))*n^(-1-1/1000)",
    # The upper envelope of the scaled-log samples at ln fits as
    # -1.10486 +/- 0.0824 and certifies a limsup below -1, but the
    # series diverges like its base 1/(n ln n lnln n).
    "(2+(-1)^n)/(n*ln(n)*lnln(n))",
}

# The verdict of each turns only past n = exp(10^6).
PRE_ASYMPTOTIC = (
    "exp(-(ln(n))^(1/2))*n^(-1+1/1000)",
    "exp((ln(n))^(1/2))*n^(-1-1/1000)",
)


def _sweep(source):
    """{expression: (outcome, report)} with outcome right, wrong,
    inconclusive or input-error; report is None on an input error."""
    out = {}
    for k in FAMILIES:
        try:
            report = cr.analyze(source(k))
        except LogLadderError:
            out[k.expression] = ("input-error", None)
            continue
        decision = report.final.decision
        if decision == "inconclusive":
            outcome = decision
        else:
            outcome = "right" if decision == k.verdict else "wrong"
        out[k.expression] = (outcome, report)
    return out


@pytest.fixture(scope="module")
def expressions():
    return _sweep(lambda k: k.expression)


@pytest.fixture(scope="module")
def twins():
    return _sweep(lambda k: cr.CallableTerm(k.twin, n_start=16,
                                            text=k.expression))


def _wrong(sweep, label):
    counts = Counter(outcome for outcome, _ in sweep.values())
    print(f"{label}: {len(sweep)} terms, {counts['right']} right, "
          f"{counts['inconclusive']} inconclusive, "
          f"{counts['input-error']} input errors, {counts['wrong']} wrong")
    return {text for text, (outcome, _) in sweep.items()
            if outcome == "wrong"}


def test_expression_terms_are_wrong_only_where_known(expressions):
    assert _wrong(expressions, "expressions") == KNOWN_WRONG_EXPRESSIONS
    for text in PRE_ASYMPTOTIC:
        assert expressions[text][0] == "inconclusive", text


def test_callable_twins_are_wrong_only_where_known(twins):
    assert _wrong(twins, "callable twins") == KNOWN_WRONG_TWINS


def test_one_sided_verdicts_come_from_certified_envelopes(expressions,
                                                         twins):
    # a one-sided row decides only from a fitted limit or divergence or
    # from an envelope whose limit is certified
    for sweep in (expressions, twins):
        for text, (_, report) in sweep.items():
            for v in report.trace if report else ():
                if v.test_id == "one-sided" and v.decisive:
                    assert v.statistic.status in ("converged",
                                                  "diverged"), text
