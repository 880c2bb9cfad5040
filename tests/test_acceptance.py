"""Acceptance gate: one test per stated criterion.

Each criterion is a single test function, so a verbose pytest run
prints exactly one PASSED/FAILED line per criterion. The [PASS] prints
carry the measured numbers for runs with output enabled.
"""

import json
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from known_verdicts import (
    MutatedTerm, bertrand, bertrand_tuples, classical_verdict,
)
from logladder import cli
from logladder import corpus as corpus_mod
from logladder import criteria as cr
from logladder import limits as lm
from logladder import numeric as nm
from logladder import scale as sc
from logladder import sums

def test_criterion_1_bertrand_equivalence():
    t0 = time.time()
    total = matched = 0
    for ps in bertrand_tuples((1, 2, 3, 4)):
        total += 1
        rep = cr.analyze(bertrand(ps))
        if rep.final.decision == classical_verdict(ps):
            matched += 1
    elapsed = time.time() - t0
    print(f"[PASS] 1: {matched}/{total} exponent tuples match the "
          f"classical rule in {elapsed:.1f}s")
    assert total == 1554
    assert matched == total
    assert elapsed < 60


def test_criterion_2_log_power_family():
    ts = [Fraction(v) for v in ("-2", "-6/5", "-1", "1/2")]
    for t in ts:
        v0 = cr.scaled_log_test("(ln(n))^t/n", sc.IterLog(0),
                                params={"t": t})
        assert v0.exact_value == Fraction(-1)
        assert v0.decision == "inconclusive"
        v1 = cr.scaled_log_test("(ln(n))^t/n", sc.IterLog(1),
                                params={"t": t})
        assert v1.exact_value == t
        if t != -1:
            assert v1.decision == (
                "converges" if t < -1 else "diverges"
            )
    worst = 0.0
    for t in ts:
        vn = cr.scaled_log_test(
            "(ln(n))^t/n", sc.IterLog(1),
            cr.AnalysisPolicy(backend="numeric"), params={"t": t},
        )
        err = abs(nm.to_float(vn.statistic.value) - float(t))
        worst = max(worst, err)
        assert err < 1e-6
    print(f"[PASS] 2: statistic -1 at w=n and exact t at w=ln for all "
          f"t; numeric recovery worst error {worst:.2e}")


def test_criterion_3_slow_divergence_constant():
    rep = cr.analyze("1/(n*ln(n))")
    assert rep.final.decision == "diverges"
    assert rep.final.rate.exact_constant == Fraction(1)
    t0 = time.time()
    chk = sums.slope_check(
        "1/(n*ln(n))", rep.final.rate,
        [10**4, 10**5, 10**6, 10**7], tolerance=0.02,
    )
    elapsed = time.time() - t0
    assert chk.passed
    assert chk.observed[-1] == pytest.approx(1.0, abs=0.02)
    assert elapsed < 60
    print(f"[PASS] 3: diverges with constant 1; oracle slopes "
          f"{[round(s, 5) for s in chk.observed]} within 2% in "
          f"{elapsed:.1f}s")


def test_criterion_4_second_level_exponent():
    expr = "(lnln(n))^p/(n*ln(n))"
    for p in (Fraction(-2), Fraction(-1), Fraction(1, 2)):
        v0 = cr.scaled_log_test(expr, sc.IterLog(1), params={"p": p})
        assert v0.exact_value == Fraction(-1)
        vs = cr.hierarchy_test(expr, sc.IterLog(1), params={"p": p})
        lv1 = [v for v in vs if v.level == 1][0]
        assert lv1.exact_value == p
        if p != -1:
            assert lv1.decision == (
                "converges" if p < -1 else "diverges"
            )
    rep = cr.analyze(expr, params={"p": -2})
    assert rep.final.rate.template == "log-log-tail"
    assert nm.to_float(rep.final.rate.exponent) == -1.0
    chk = sums.slope_check(expr, rep.final.rate,
                           [10**4, 10**5, 10**6, 10**7],
                           params={"p": -2})
    assert chk.status == "insufficient-signal"
    print("[PASS] 4: level-1 statistic equals p exactly for all p; "
          "p=-2 tail exponent -1; desk-scale check reports "
          "insufficient-signal (unverifiable at scale)")


def test_criterion_5_truncated_boundary_chain():
    rep = cr.analyze("1/(n*ln(n)*lnln(n))")
    hs = [v for v in rep.trace if v.test_id == "hierarchy"]
    assert hs[0].level == 1 and hs[0].exact_value == Fraction(-1)
    assert hs[1].level == 2 and hs[1].exact_value == Fraction(0)
    assert rep.final.decision == "diverges"
    warn = [w for w in rep.warnings if "sometimes quoted" in w]
    assert warn and "0" in warn[0] and "1" in warn[0]
    print("[PASS] 5: statistics (-1, 0) across levels, diverges, "
          "discrepancy warning cites both 0 and the normalized 1")


def test_criterion_6_precise_rates():
    t0 = time.time()
    r1 = sums.tail_sum("1/n^2", 10**4, 10**8)
    e1 = abs(nm.to_float(r1.estimate) - 1e-4) / 1e-4
    assert e1 < 0.001
    t1 = time.time()
    r2 = sums.tail_sum("n^(-3/2)", 10**4, 10**8)
    e2 = abs(nm.to_float(r2.estimate) - 2e-2) / 2e-2
    assert e2 < 0.002
    t2 = time.time()
    r3 = sums.partial_sum("n^(-1/2)", 10**6)
    e3 = abs(nm.to_float(r3.value) - 2e3) / 2e3
    assert e3 < 0.001
    t3 = time.time()
    for r in (r1, r2, r3):
        assert r.n_terms <= 10**8
    for dt in (t1 - t0, t2 - t1, t3 - t2):
        assert dt < 30
    print(f"[PASS] 6: tail(1/n^2)@1e4 rel err {e1:.1e} (<0.1%), "
          f"tail(n^-3/2)@1e4 rel err {e2:.1e} (<0.2%), "
          f"partial(n^-1/2)@1e6 rel err {e3:.1e} (<0.1%), "
          f"each within budget in {t3 - t0:.1f}s total")


def test_criterion_7_limit_estimator():
    vals = [nm.from_value(-1 + Fraction(3, j)) for j in range(1, 65)]
    est = lm.estimate_limit(vals)
    assert est.status == "converged"
    err = abs(nm.to_float(est.value) + 1)
    assert err < 1e-3
    assert est.samples_used <= 64

    osc = [
        nm.from_value((-1) ** j * (1 + Fraction(1, j)))
        for j in range(1, 97)
    ]
    sup, inf = lm.estimate_limsup_liminf(osc)
    sup_err = abs(nm.to_float(sup.value) - 1)
    inf_err = abs(nm.to_float(inf.value) + 1)
    assert sup_err < 1e-2 and inf_err < 1e-2
    print(f"[PASS] 7: limit error {err:.1e} within 1e-3 at <=64 "
          f"samples; envelope errors {sup_err:.1e}/{inf_err:.1e} "
          f"within 1e-2")


def test_criterion_8_invariance_sweep():
    rng = random.Random(20240815)
    pool = [Fraction(v) for v in
            ("-5/2", "-2", "-3/2", "-1", "-3/4", "-1/2", "0", "1/2", "1")]
    override_vals = [Fraction(1, 1000), Fraction(1, 7), Fraction(1),
                     Fraction(13), Fraction(1000)]
    unchanged = 0
    runs = 200
    for _ in range(runs):
        depth = rng.randint(1, 3)
        ps = [rng.choice(pool) for _ in range(depth)]
        expr = bertrand(ps)
        c = rng.choice([Fraction(1, 1000), Fraction(1000)])
        overrides = {
            rng.randint(1, 100): rng.choice(override_vals)
            for _ in range(rng.randint(0, 6))
        }
        base = cr.analyze(expr).final.decision
        scaled = cr.ExprTerm(f"({c})*{expr}")
        mutated = MutatedTerm(scaled, overrides) if overrides else scaled
        got = cr.analyze(mutated).final.decision
        if got == base:
            unchanged += 1
    assert unchanged == runs
    print(f"[PASS] 8: {unchanged}/{runs} random rescaled+mutated "
          f"sequences keep their verdict")


def test_criterion_9_deterministic_reports(capsys):
    outputs = []
    for _ in range(2):
        batch = []
        for e in corpus_mod.ENTRIES:
            argv = ["analyze", e.expression, "--json"]
            for k, v in (e.params or {}).items():
                argv += ["--param", f"{k}={v}"]
            if e.scale:
                argv += ["--w", e.scale]
            code = cli.main(argv)
            out = capsys.readouterr().out
            json.loads(out)  # must be valid JSON
            batch.append((code, out))
        outputs.append(batch)
    assert outputs[0] == outputs[1]
    print(f"[PASS] 9: {len(corpus_mod.ENTRIES)} corpus reports "
          f"byte-identical across two runs")
