"""Named reference sequences with frozen expected outcomes.

Each entry records the exact deciding statistic, scale, and level the
analyzer must reproduce, plus any trace rows that document why earlier
rungs hand off. The runner re-analyzes every entry and lists every
deviation in its rows, so this doubles as a quick end-to-end regression
of the decision ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import criteria as cr
from . import numeric as nm
from .scale import parse_scale

__all__ = ["CorpusEntry", "CorpusRow", "ENTRIES", "run_corpus"]


@dataclass(frozen=True)
class TraceExpect:
    """A trace row that must appear before the deciding one."""

    test: str
    scale_name: str | None
    level: int
    statistic: Fraction


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    expression: str
    params: dict = field(default_factory=dict)
    scale: str | None = None  # scale text to pin, None for the auto ladder
    expect_decision: str = ""
    expect_test: str = ""
    expect_scale_name: str | None = None
    expect_level: int = 0
    expect_statistic: Fraction | None = None
    expect_template: str | None = None
    expect_constant: Fraction | None = None
    expect_trace: tuple = ()
    expect_warning: str | None = None
    note: str = ""


@dataclass(frozen=True)
class CorpusRow:
    entry_id: str
    expression: str
    decision: str
    test: str
    scale_name: str
    level: int
    statistic: str
    rate: str
    deviations: tuple


MINUS_ONE = Fraction(-1)

ENTRIES = (
    CorpusEntry(
        entry_id="inverse-square",
        expression="1/n^2",
        expect_decision="converges",
        expect_test="raabe",
        expect_scale_name=None,
        expect_statistic=Fraction(-2),
        expect_template="precise-tail",
        note="decided at the first rung",
    ),
    CorpusEntry(
        entry_id="inverse-sqrt",
        expression="n^(-1/2)",
        expect_decision="diverges",
        expect_test="raabe",
        expect_scale_name=None,
        expect_statistic=Fraction(-1, 2),
        expect_template="precise-partial",
        note="divergent power term, still first rung",
    ),
    CorpusEntry(
        entry_id="log-power-diverging",
        expression="(ln(n))^t/n",
        params={"t": Fraction(1, 2)},
        expect_decision="diverges",
        expect_test="scaled-log",
        expect_scale_name="ln",
        expect_statistic=Fraction(1, 2),
        expect_template="log-ratio-partial",
        expect_trace=(
            TraceExpect("raabe", None, 0, MINUS_ONE),
            TraceExpect("scaled-log", "n", 0, MINUS_ONE),
        ),
        note="boundary at w=n, decided by the exponent at w=ln",
    ),
    CorpusEntry(
        entry_id="log-power-converging",
        expression="(ln(n))^t/n",
        params={"t": Fraction(-2)},
        expect_decision="converges",
        expect_test="scaled-log",
        expect_scale_name="ln",
        expect_statistic=Fraction(-2),
        expect_template="log-ratio-tail",
        expect_trace=(
            TraceExpect("raabe", None, 0, MINUS_ONE),
            TraceExpect("scaled-log", "n", 0, MINUS_ONE),
        ),
        note="same family, convergent side",
    ),
    CorpusEntry(
        entry_id="harmonic-log",
        expression="1/(n*ln(n))",
        expect_decision="diverges",
        expect_test="slow-divergence",
        expect_scale_name="ln",
        expect_statistic=Fraction(1),
        expect_template="slow-log",
        expect_constant=Fraction(1),
        expect_trace=(
            TraceExpect("scaled-log", "ln", 0, MINUS_ONE),
        ),
        note="every scaled-log rung sits at the boundary; the "
             "term-to-increment ratio settles the constant, and the "
             "exact value reported is that constant",
    ),
    CorpusEntry(
        entry_id="double-log-power",
        expression="(lnln(n))^p/(n*ln(n))",
        params={"p": Fraction(-2)},
        scale="ln",
        expect_decision="converges",
        expect_test="hierarchy",
        expect_scale_name="ln",
        expect_level=1,
        expect_statistic=Fraction(-2),
        expect_template="log-log-tail",
        expect_trace=(
            TraceExpect("scaled-log", "ln", 0, MINUS_ONE),
        ),
        note="scale pinned; first escalation level decides",
    ),
    CorpusEntry(
        entry_id="double-log-pinned-deep",
        expression="(lnln(n))^p/(n*ln(n))",
        params={"p": Fraction(-2)},
        scale="lnln",
        expect_decision="converges",
        expect_test="scaled-log",
        expect_scale_name="lnln",
        expect_statistic=Fraction(-2),
        expect_template="log-ratio-tail",
        note="same sequence with the deeper scale pinned: the level-0 "
             "statistic ln((n ln n) a_n)/lnlnln(n) is decisive here",
    ),
    CorpusEntry(
        entry_id="triple-log-harmonic",
        expression="1/(n*ln(n)*lnln(n))",
        expect_decision="diverges",
        expect_test="hierarchy",
        expect_scale_name="ln",
        expect_level=2,
        expect_statistic=Fraction(0),
        expect_template=None,
        expect_trace=(
            TraceExpect("scaled-log", "ln", 0, MINUS_ONE),
            TraceExpect("hierarchy", "ln", 1, MINUS_ONE),
        ),
        expect_warning="the value 0 is sometimes quoted",
        note="all escalation statistics at -1 until the truncation "
             "depth, where 0 decides divergence",
    ),
)


def _exact_statistic(verdict) -> Fraction | None:
    if verdict.exact_value is not None:
        return verdict.exact_value
    est = verdict.statistic
    if est is not None and est.status == "converged":
        f = nm.to_float(est.value)
        frac = Fraction(f).limit_denominator(10**6)
        if abs(float(frac) - f) < 1e-9:
            return frac
    return None


def _check_entry(entry: CorpusEntry, report) -> list:
    devs = []
    final = report.final
    if final.decision != entry.expect_decision:
        devs.append(
            f"decision {final.decision!r}, expected "
            f"{entry.expect_decision!r}"
        )
    if final.test_id != entry.expect_test:
        devs.append(
            f"deciding test {final.test_id!r}, expected "
            f"{entry.expect_test!r}"
        )
    got_scale = final.scale.name if final.scale is not None else None
    if got_scale != entry.expect_scale_name:
        devs.append(
            f"scale {got_scale!r}, expected {entry.expect_scale_name!r}"
        )
    if final.level != entry.expect_level:
        devs.append(
            f"level {final.level}, expected {entry.expect_level}"
        )
    if entry.expect_statistic is not None:
        got = _exact_statistic(final)
        if got != entry.expect_statistic:
            devs.append(
                f"statistic {got}, expected {entry.expect_statistic}"
            )
    if entry.expect_template is not None:
        tmpl = final.rate.template if final.rate is not None else None
        if tmpl != entry.expect_template:
            devs.append(
                f"rate template {tmpl!r}, expected "
                f"{entry.expect_template!r}"
            )
    if entry.expect_constant is not None:
        c = (
            final.rate.exact_constant
            if final.rate is not None else None
        )
        if c != entry.expect_constant:
            devs.append(
                f"rate constant {c}, expected {entry.expect_constant}"
            )
    for want in entry.expect_trace:
        hit = False
        for v in report.trace:
            scale_name = v.scale.name if v.scale is not None else None
            if (
                v.test_id == want.test
                and scale_name == want.scale_name
                and v.level == want.level
                and _exact_statistic(v) == want.statistic
            ):
                hit = True
                break
        if not hit:
            devs.append(
                f"missing trace row {want.test} at scale "
                f"{want.scale_name} level {want.level} with statistic "
                f"{want.statistic}"
            )
    if entry.expect_warning is not None:
        if not any(entry.expect_warning in w for w in report.warnings):
            devs.append(
                f"missing warning containing {entry.expect_warning!r}"
            )
    return devs


def _fmt_statistic(verdict) -> str:
    exact = _exact_statistic(verdict)
    if exact is not None:
        return str(exact)
    est = verdict.statistic
    if est is None or est.value is None:
        return "-"
    return nm.fmt(est.value, digits=6)


def run_corpus(entry_ids=None):
    """Analyze every corpus entry (or those named in entry_ids) and
    compare against expectations.

    Returns the table rows; each row lists its entry's deviations. Ids
    that name no entry are ignored.
    """
    wanted = set(entry_ids) if entry_ids is not None else None
    rows = []
    for entry in ENTRIES:
        if wanted is not None and entry.entry_id not in wanted:
            continue
        policy = cr.AnalysisPolicy(
            scale=parse_scale(entry.scale) if entry.scale else None
        )
        report = cr.analyze(
            entry.expression, policy=policy, params=entry.params or None
        )
        devs = _check_entry(entry, report)
        final = report.final
        rows.append(
            CorpusRow(
                entry_id=entry.entry_id,
                expression=entry.expression,
                decision=final.decision,
                test=final.test_id,
                scale_name=(
                    final.scale.name if final.scale is not None else "-"
                ),
                level=final.level,
                statistic=_fmt_statistic(final),
                rate=(
                    final.rate.template if final.rate is not None else "-"
                ),
                deviations=tuple(devs),
            )
        )
    return rows
