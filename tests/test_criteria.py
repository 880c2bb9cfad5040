"""Decision ladder: statistics, verdicts, escalation, and rates."""

import math
from fractions import Fraction

import pytest

from known_verdicts import FAMILIES, MutatedTerm, bertrand, bertrand_tuples
from logladder import cli
from logladder import criteria as cr
from logladder import expr as ex
from logladder import limits as lm
from logladder import numeric as nm
from logladder import scale as sc
from logladder.errors import (
    LogLadderError,
    PositivityViolation,
    RangeError,
    UnboundParameterError,
)
from test_golden import _argv_cases

NUM = cr.AnalysisPolicy(backend="numeric")


# -- term sources ----------------------------------------------------------------


def test_expr_term_requires_bound_params():
    with pytest.raises(UnboundParameterError):
        cr.ExprTerm("1/n^q")


def test_expr_term_rejects_negative_terms():
    with pytest.raises(PositivityViolation):
        cr.ExprTerm("ln(n)-10")


def test_expr_term_samples_a_negative_exact_term():
    # the exact leader of (1-3)*n^(-2) has coefficient -2, so the term
    # is not proved positive and the sampled check rejects it
    lead = ex._lead(ex.parse("(1-3)*n^(-2)"))
    assert lead.exact and lead.coef == -2
    with pytest.raises(PositivityViolation):
        cr.ExprTerm("(1-3)*n^(-2)")


def _build_bertrand_terms(monkeypatch, depths, shifts):
    """Build every Bertrand tuple of the given lengths in n + each shift
    and return (terms built, eval_expr calls made while building)."""
    calls = []
    real = ex.eval_expr

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ex, "eval_expr", counted)
    built = 0
    for ps in bertrand_tuples(depths):
        for shift in shifts:
            cr.ExprTerm(bertrand(ps, shift))
            built += 1
    return built, len(calls)


def test_expr_term_proves_bertrand_tuples_positive(monkeypatch):
    # every Bertrand tuple (m <= 4) is an exact monomial: building its
    # term evaluates nothing
    assert _build_bertrand_terms(monkeypatch, (1, 2, 3, 4), (0,)) == (
        1554, 0)


def test_expr_term_proves_shifted_bertrand_tuples_positive(monkeypatch):
    # a shifted tuple (m <= 3) is no exact monomial, but every factor is
    # a positive power of n + c or of an iterated log of it: building its
    # term evaluates nothing either
    assert _build_bertrand_terms(monkeypatch, (1, 2, 3), (1, 2, 3)) == (
        774, 0)


def _corpus_terms(shifted=False):
    """The terms of the Bertrand tuples (m <= 4), with shifted also
    those of the 774 shifted tuples (m <= 3, n + c for c = 1, 2, 3), the
    known-verdict corpus and the golden argv, skipping any that cannot
    be built."""
    cases = [(bertrand(ps), {}) for ps in bertrand_tuples((1, 2, 3, 4))]
    if shifted:
        cases += [(bertrand(ps, c), {}) for c in (1, 2, 3)
                  for ps in bertrand_tuples()]
    cases += [(k.expression, {}) for k in FAMILIES]
    for _, argv in _argv_cases():
        if argv[0] in ("analyze", "verify"):
            params = [v for k, v in zip(argv, argv[1:]) if k == "--param"]
            params += [a[8:] for a in argv if a.startswith("--param=")]
            cases.append((argv[1], dict(p.split("=") for p in params)))
    for text, params in cases:
        try:
            yield cr.ExprTerm(text, params)
        except LogLadderError:  # unbound names, n^n, a sign change
            continue


def _unit_leader_terms():
    """Every term with a leader of coefficient 1, exact or not, among
    the Bertrand tuples (m <= 4), the known-verdict corpus and the
    golden argv."""
    for term in _corpus_terms():
        if term._lead is not None and term._lead.coef == 1:
            yield term


def _count_linearize(monkeypatch) -> list:
    calls = []
    real = ex.linearize
    monkeypatch.setattr(ex, "linearize", lambda e: calls.append(e) or real(e))
    return calls


def _exact_fields(combo):
    return (combo.coeffs, combo.const, combo.const_logs, combo.residuals)


def test_log_combo_from_the_leader_matches_linearize(monkeypatch):
    # the leader's split has the full split's exact fields; a sampler
    # reads the full split itself
    calls = _count_linearize(monkeypatch)
    terms = list(_unit_leader_terms())
    assert len(terms) > 1554
    for term in terms:
        combo = term.log_combo()
        assert not calls, term.text  # built from the leader alone
        full = ex.linearize(ex.log_transform(term.expression))
        assert _exact_fields(combo) == _exact_fields(full), term.text
        assert not combo.vanishing
        assert term.sampled_log_combo() == full
        calls.clear()


def test_split_read_from_the_leader_is_the_full_split(monkeypatch):
    # every leader gives the split without the tree: the full split's
    # exact fields for coefficient 1, the same constant for another;
    # the sampled split is the full one, built only for an inexact leader
    calls = _count_linearize(monkeypatch)
    inexact = 0
    for term in _corpus_terms(shifted=True):
        lead = term._lead
        if lead is None:
            continue
        combo = term.log_combo()
        assert not calls, term.text
        sampled = term.sampled_log_combo()
        assert bool(calls) != lead.exact, term.text
        full = ex.linearize(ex.log_transform(term.expression))
        if lead.coef == 1:
            assert _exact_fields(combo) == _exact_fields(full), term.text
        else:
            _assert_same_split(combo, full)
        assert sampled == (combo if lead.exact else full), term.text
        assert term.sampled_log_combo() is sampled  # built once
        inexact += not lead.exact
        calls.clear()
    assert inexact >= 774


def test_shifted_split_prints_and_compares_without_the_full_split(
        monkeypatch):
    term = cr.ExprTerm("(n+2)^(-1)*(ln(n+2))^(-1/2)")
    twin = cr.ExprTerm("(n+2)^(-1)*(ln(n+2))^(-1/2)")

    def refuse(e):
        raise AssertionError("the full split was built")

    monkeypatch.setattr(ex, "linearize", refuse)
    monkeypatch.setattr(ex, "log_transform", refuse)
    combo = term.log_combo()
    assert "vanishing=[]" in repr(combo)
    assert combo == twin.log_combo()


class _FullSplitTerm(cr.ExprTerm):
    """An ExprTerm whose split is always the full one,
    linearize(log_transform(e)) with its vanishing parts."""

    def log_combo(self):
        return ex.linearize(ex.log_transform(self.expression))


def _report(term, policy=None) -> str:
    return cli._json(cli._report_json(None, cr.analyze(term, policy)))


_SHIFTED = [bertrand(ps, c) for c in (1, 2, 3)
            for ps in bertrand_tuples((1, 2))]


def test_shifted_tuples_decide_without_the_full_split(monkeypatch):
    # the symbolic route reads a shifted tuple from its leader alone
    want = [_report(_FullSplitTerm(text)) for text in _SHIFTED]

    def refuse(e):
        raise AssertionError("the full split was built")

    monkeypatch.setattr(ex, "linearize", refuse)
    monkeypatch.setattr(ex, "log_transform", refuse)
    assert len(_SHIFTED) == 126
    assert [_report(text) for text in _SHIFTED] == want


def test_shifted_tuples_sample_the_full_split():
    # the numeric route samples the vanishing parts that the leader's
    # split builds on first read: every report is the full split's
    for text in _SHIFTED:
        assert _report(text, NUM) == _report(_FullSplitTerm(text), NUM), text


def test_sampled_ladder_fits_through_estimate_limit(monkeypatch):
    # every sampled rung fits with its own drift terms, through the
    # public fitter
    calls = []
    real = lm.estimate_limit

    def counted(values, eps=None):
        calls.append(eps)
        return real(values, eps)

    monkeypatch.setattr(lm, "estimate_limit", counted)
    report = cr.analyze("1/n^2", NUM)
    assert report.backend == "numeric"
    assert len(calls) == len(report.trace) == 1
    assert calls[0] is not None


def _assert_same_split(got, want):
    # ln q joins the leader's split as ln(1/4) where linearize spells
    # -ln 4: the same rationals, and the same constant to float precision
    assert got.is_exact and want.is_exact
    assert got.coeffs == want.coeffs
    assert cr._exact_const_exp(got) == cr._exact_const_exp(want)
    assert nm.to_float(got.const_value()) == nm.to_float(want.const_value())


@pytest.mark.parametrize("text", ["n^2/4", "1/(3*n^2)"])
def test_log_combo_of_another_coefficient_comes_from_the_leader(monkeypatch,
                                                                text):
    calls = _count_linearize(monkeypatch)
    term = cr.ExprTerm(text)
    assert term._lead.exact and term._lead.coef != 1
    combo = term.log_combo()
    assert not calls
    _assert_same_split(combo, ex.linearize(ex.log_transform(term.expression)))


def test_log_combo_of_every_coefficient_comes_from_the_leader(monkeypatch):
    calls = _count_linearize(monkeypatch)
    shapes = ("{q}*n^2", "{q}/(n*(ln(n))^2)", "(n/({q}))^(-3)*lnln(n)")
    for a in (1, 2, 3, 7, 12, 39):
        for b in (1, 4, 9, 11, 38):
            for shape in shapes:
                term = cr.ExprTerm(shape.format(q=f"{a}/{b}"))
                assert term._lead.exact, term.text
                combo = term.log_combo()
                assert not calls, term.text
                _assert_same_split(
                    combo, ex.linearize(ex.log_transform(term.expression))
                )
                calls.clear()


def test_slow_log_constant_under_a_root_is_exact():
    # the leader's coefficient is 2; linearize spelled ln 4 times -1/2,
    # which reads no exact constant
    rate = cr.analyze("(n^2*(ln(n))^2/4)^(-1/2)").final.rate
    assert (rate.template, rate.exact_constant) == ("slow-log", 2)


def test_callable_term_plain_only():
    t = cr.CallableTerm(lambda n: 1.0 / n)
    tower = nm.ext_exp(nm.ext_exp(nm.from_value(100)))
    with pytest.raises(RangeError):
        t.term(tower)


def test_callable_term_positivity_probe():
    with pytest.raises(PositivityViolation):
        cr.CallableTerm(lambda n: -1.0 / n)


def test_mutated_term_overrides():
    base = cr.ExprTerm("1/n^2")
    mut = MutatedTerm(base, {7: "0.001"})
    assert mut.term(nm.from_value(7)) == nm.from_value(Fraction(1, 1000))
    assert nm.to_float(mut.term(nm.from_value(8))) == pytest.approx(1 / 64)
    with pytest.raises(ValueError):
        MutatedTerm(base, {101: 1.0})  # beyond the mutable prefix
    with pytest.raises(PositivityViolation):
        MutatedTerm(base, {3: -2.0})


# -- first rung: ratio statistic ---------------------------------------------------


def test_raabe_decides_powers():
    v = cr.raabe_test("1/n^2")
    assert v.decision == "converges"
    assert v.exact_value == Fraction(-2)
    assert v.rate.template == "precise-tail"
    pt = v.rate.predicted_sum(cr.ExprTerm("1/n^2"), 10**4)
    assert nm.to_float(pt) == pytest.approx(1e-4, abs=1e-8)

    v = cr.raabe_test("n^(-1/2)")
    assert v.decision == "diverges"
    assert v.exact_value == Fraction(-1, 2)
    assert v.rate.template == "precise-partial"


def test_raabe_boundary_hands_off():
    v = cr.raabe_test("(ln(n))^t/n", params={"t": 2})
    assert v.decision == "inconclusive"
    assert v.reason == "statistic-at-boundary"
    assert v.exact_value == Fraction(-1)


def test_raabe_numeric_callable():
    v = cr.raabe_test(lambda n: 1.0 / n**2)
    assert v.decision == "converges"
    assert nm.to_float(v.statistic.value) == pytest.approx(-2, abs=1e-3)


def test_raabe_geometric_infinite_statistic():
    v = cr.raabe_test("exp(-n/2)")
    assert v.decision == "converges"
    assert v.one_sided
    assert v.statistic.status == "diverged"


# -- scaled-log statistics ---------------------------------------------------------


def test_scaled_log_exact_order():
    for t, want in [("-2", "converges"), ("-1.2", "converges"),
                    ("0.5", "diverges")]:
        v = cr.scaled_log_test("(ln(n))^t/n", sc.IterLog(1),
                               params={"t": t})
        assert v.decision == want
        assert v.exact_value == Fraction(t)


def test_scaled_log_numeric_recovers_order():
    for t in ("-2", "-1.2", "0.5"):
        v = cr.scaled_log_test("(ln(n))^t/n", sc.IterLog(1), NUM,
                               params={"t": t})
        got = nm.to_float(v.statistic.value)
        assert got == pytest.approx(float(Fraction(t)), abs=1e-6)


# -- slow divergence ---------------------------------------------------------------


def test_slow_divergence_constant():
    v = cr.slow_divergence_test("1/(n*ln(n))", sc.IterLog(1))
    assert v.decision == "diverges"
    assert v.rate.template == "slow-log"
    assert v.rate.exact_constant == Fraction(1)
    v = cr.slow_divergence_test("2/(n*ln(n))", sc.IterLog(1))
    assert v.rate.exact_constant == Fraction(2)


def test_slow_divergence_numeric():
    v = cr.slow_divergence_test("1/(n*ln(n))", sc.IterLog(1), NUM)
    assert v.decision == "diverges"
    assert nm.to_float(v.rate.constant) == pytest.approx(1, abs=1e-3)


def test_slow_divergence_vanishing_ratio_inconclusive():
    v = cr.slow_divergence_test(
        "(lnln(n))^p/(n*ln(n))", sc.IterLog(1), params={"p": -2}
    )
    assert v.decision == "inconclusive"
    assert v.reason == "term-to-increment-ratio-vanishes"


# -- escalation hierarchy ----------------------------------------------------------


def test_hierarchy_level_one():
    for p, want in [(-2, "converges"), ("0.5", "diverges")]:
        vs = cr.hierarchy_test("(lnln(n))^p/(n*ln(n))", sc.IterLog(1),
                               params={"p": p})
        v = vs[-1]
        assert v.level == 1
        assert v.decision == want
        assert v.exact_value == Fraction(str(p))


def test_hierarchy_level_one_numeric():
    vs = cr.hierarchy_test("(lnln(n))^p/(n*ln(n))", sc.IterLog(1),
                           policy=NUM, params={"p": -2})
    v = vs[-1]
    assert v.level == 1 and v.decision == "converges"
    assert nm.to_float(v.statistic.value) == pytest.approx(-2, abs=1e-6)


def test_hierarchy_truncated_all_boundary_decides_zero():
    vs = cr.hierarchy_test("1/(n*ln(n)*lnln(n))", sc.IterLog(1))
    assert [v.level for v in vs] == [1, 2]
    assert vs[0].exact_value == Fraction(-1)
    assert vs[0].decision == "inconclusive"
    assert vs[1].exact_value == Fraction(0)
    assert vs[1].decision == "diverges"
    assert any("0 + 1 = 1" in n for n in vs[1].notes)


def test_hierarchy_exhausts():
    vs = cr.hierarchy_test(
        "1/(n*ln(n)*lnln(n)*lnlnln(n)*lnlnlnln(n))",
        sc.IterLog(1), policy=cr.AnalysisPolicy(k_max=2),
    )
    assert [(v.level, v.decision) for v in vs] == [
        (1, "inconclusive"), (2, "inconclusive")]
    assert all(v.reason == "statistic-at-boundary" for v in vs)


def test_hierarchy_kmax_validation():
    with pytest.raises(ValueError):
        cr.hierarchy_test("1/(n*ln(n))", sc.IterLog(1),
                          policy=cr.AnalysisPolicy(k_max=50))


# -- one-sided and o-regular -------------------------------------------------------


def test_one_sided_oscillating_divergence():
    def osc(n):
        return (2 + (-1) ** n) / n**0.5

    v = cr.one_sided_test(cr.CallableTerm(osc), sc.IterLog(0))
    assert v.decision == "diverges"
    assert v.one_sided


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: an envelope pinned at one value is fitted as a "
    "constant and certified to about 1e-80"))
def test_one_sided_pinned_envelope_is_not_certified():
    # The series diverges like the sum of 1/(n ln n); the reading gives
    # converges from -1.07285 +/- 1.7e-80.
    def osc(n):
        return (3 + (-1) ** n) / (n * math.log(n))

    v = cr.one_sided_test(cr.CallableTerm(osc, n_start=16), sc.IterLog(0))
    assert v.decision != "converges"


def test_oscillation_vetoes_subsequence_verdicts():
    # plain estimates on even-only samples would claim convergence
    def osc(n):
        return (2 + (-1) ** n) / n**0.5

    # The series diverges, but at ln the lower envelope grows like
    # ln n/(2 lnln n) and no envelope fit certifies that, so the ladder
    # says it cannot decide rather than guess a side.
    rep = cr.analyze(osc)
    assert all(v.decision != "converges" for v in rep.trace)
    assert rep.trace[-1].reason == "envelopes-straddle-boundary"
    assert rep.final.decision == "inconclusive"


# -- the assembled ladder ----------------------------------------------------------


def test_analyze_power_term():
    rep = cr.analyze("1/n^2")
    assert rep.final.decision == "converges"
    assert rep.final.test_id == "raabe"
    assert len(rep.trace) == 1


def test_analyze_log_power_escalates_scale():
    rep = cr.analyze("(ln(n))^t/n", params={"t": "-1.2"})
    assert [v.test_id for v in rep.trace] == [
        "raabe", "scaled-log", "scaled-log"
    ]
    assert rep.trace[0].reason == "statistic-at-boundary"
    assert rep.trace[1].exact_value == Fraction(-1)
    assert rep.final.exact_value == Fraction(-6, 5)
    assert rep.final.scale.name == "ln"
    assert rep.final.rate.template == "log-ratio-tail"
    assert nm.to_float(rep.final.rate.exponent) == pytest.approx(-0.2)


def test_analyze_slow_divergence_chain():
    rep = cr.analyze("1/(n*ln(n))")
    assert rep.final.test_id == "slow-divergence"
    assert rep.final.decision == "diverges"
    assert rep.final.rate.exact_constant == Fraction(1)


def test_analyze_bertrand_middle():
    rep = cr.analyze("1/(n*ln(n)*(lnln(n))^q)", params={"q": "0.5"})
    assert rep.final.decision == "diverges"
    assert rep.final.level == 1
    assert rep.final.exact_value == Fraction(-1, 2)
    rep = cr.analyze("1/(n*ln(n)*(lnln(n))^q)", params={"q": 2})
    assert rep.final.decision == "converges"
    assert rep.final.exact_value == Fraction(-2)


def test_analyze_discrepancy_warning():
    rep = cr.analyze("1/(n*ln(n)*lnln(n))")
    hs = [v for v in rep.trace if v.test_id == "hierarchy"]
    assert hs[-1].exact_value == Fraction(0)
    assert rep.final.decision == "diverges"
    assert any("0 + 1 = 1" in w for w in rep.warnings)
    assert any("sometimes quoted" in w for w in rep.warnings)


def test_analyze_symbolic_backend_deep():
    rep = cr.analyze("1/(n*ln(n)*lnln(n)*lnlnln(n))")
    assert rep.backend == "symbolic"
    assert rep.final.decision == "diverges"
    assert rep.final.level == 3
    assert rep.final.exact_value == Fraction(0)


def test_analyze_pinned_power_scale():
    pol = cr.AnalysisPolicy(scale=sc.parse_scale("pow:1/2"))
    rep = cr.analyze("1/n^2", pol)
    assert rep.final.decision == "converges"
    assert rep.final.exact_value == Fraction(-3)


def test_analyze_pinned_deep_scale():
    pol = cr.AnalysisPolicy(scale=sc.IterLog(2))
    rep = cr.analyze("1/(n*ln(n))", pol)
    assert rep.final.decision == "diverges"
    assert rep.final.exact_value == Fraction(0)


def _pinned(text, w):
    return cr.analyze(text, cr.AnalysisPolicy(scale=sc.parse_scale(w))).final


@pytest.mark.parametrize("custom, catalog, text", [
    ("expr:ln(n)", "ln", "1/n^2"),
    ("expr:ln(n)", "ln", "1/(n*ln(n)^2)"),
    ("expr:ln(n)", "ln", "1/(n*ln(n))"),
    ("expr:ln(n)", "ln", "2/(n*ln(n))"),
    ("expr:n", "n", "1/(n*ln(n))"),
    ("expr:n^(1/2)", "pow:1/2", "1/(n*ln(n))"),
])
def test_custom_scale_decides_like_catalog(custom, catalog, text):
    # A custom scale has no exact increment split, so it takes the
    # sampled increment (Custom.delta) where the catalog scale is exact.
    got, want = _pinned(text, custom), _pinned(text, catalog)
    assert (got.decision, got.test_id, got.level) == (
        want.decision, want.test_id, want.level)
    if want.rate is not None and want.rate.constant is not None:
        assert nm.to_float(got.rate.constant) == pytest.approx(
            nm.to_float(want.rate.constant), rel=1e-3)
    if custom != "expr:ln(n)":
        assert (got.decision, got.level) == ("diverges", 2)


def test_analyze_pinned_identity_on_geometric():
    pol = cr.AnalysisPolicy(scale=sc.IterLog(0))
    rep = cr.analyze("exp(-n/2)", pol)
    assert rep.final.decision == "converges"
    assert rep.final.one_sided


def test_analyze_exhausted_is_inconclusive():
    pol = cr.AnalysisPolicy(k_max=3)
    rep = cr.analyze("1/(n*ln(n)*lnln(n)*lnlnln(n)*lnlnlnln(n))", pol)
    assert rep.final.decision == "inconclusive"
    assert rep.final.reason == "exhausted"


def test_analyze_mutated_prefix_invariance():
    base = cr.ExprTerm("(ln(n))^t/n", params={"t": "0.5"})
    mut = MutatedTerm(base, {1: "1000", 7: "0.001", 100: 5})
    r1 = cr.analyze(base)
    r2 = cr.analyze(mut)
    assert [v.decision for v in r1.trace] == [v.decision for v in r2.trace]
    assert r1.final.decision == r2.final.decision == "diverges"


def test_policy_validation():
    with pytest.raises(ValueError):
        cr.AnalysisPolicy(k_max=0)
    for backend in ("psychic", "symbolic"):
        with pytest.raises(ValueError, match="unknown backend"):
            cr.AnalysisPolicy(backend=backend)
    # k_max past the tower budget is rejected at construction
    with pytest.raises(ValueError, match="exceeds the tower budget"):
        cr.AnalysisPolicy(k_max=99)


# -- shared exact splits ------------------------------------------------------------


def test_constant_combos_stay_constant(capsys):
    # the splits of iterated-log scales are built at import and shared by
    # every call: a call that changed one would change the next report
    import copy

    tables = (cr._CHAIN_COMBOS, sc._DELTA_COMBOS)
    before = copy.deepcopy(tables)
    text = "n^(-1)*(ln(n))^(-1)*(ln(ln(n)))^(-1)*(ln(ln(ln(n))))^(-1/2)"
    outs = []
    for extra in ([], [], ["--w", "lnln", "--kmax", "4"],
                  ["--w", "lnln", "--kmax", "4"]):
        assert cli.main(["analyze", text, "--json"] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[2] == outs[3]
    assert outs[0] != outs[2]
    assert tables == before
    assert len(cr._CHAIN_COMBOS) == 5 * (nm.MAX_TOWER_LEVEL - 1)
    # a combo of the table is the one a scale builds for itself
    w = sc.IterLog(2)
    assert cr._chain_combo(w, 3) is cr._CHAIN_COMBOS[(w, 3)]
    assert cr._chain_combo(w, 3) == ex.linearize(w.ln_chain(3))
    assert w.log_delta_combo() is sc._DELTA_COMBOS[2]
    assert sc.IterLog(7).log_delta_combo().coeffs == {
        j: -1 for j in range(1, 8)}
