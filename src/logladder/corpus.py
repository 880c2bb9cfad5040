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
class CorpusEntry:
    """One reference sequence.

    expect maps keys of the verdict reading (decision, test, w, level,
    statistic, template, constant) to the values the deciding verdict
    must show; a key left out is not checked. expect_trace lists
    (test, w, level, statistic) readings that must appear among the
    trace rows, and expect_warning a text some warning must contain.
    """

    entry_id: str
    expression: str
    params: dict = field(default_factory=dict)
    scale: str | None = None  # scale text to pin, None for the auto ladder
    expect: dict = field(default_factory=dict)
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
        expect=dict(decision="converges", test="raabe", w=None, level=0,
                    statistic=Fraction(-2), template="precise-tail"),
        note="decided at the first rung",
    ),
    CorpusEntry(
        entry_id="inverse-sqrt",
        expression="n^(-1/2)",
        expect=dict(decision="diverges", test="raabe", w=None, level=0,
                    statistic=Fraction(-1, 2), template="precise-partial"),
        note="divergent power term, still first rung",
    ),
    CorpusEntry(
        entry_id="log-power-diverging",
        expression="(ln(n))^t/n",
        params={"t": Fraction(1, 2)},
        expect=dict(decision="diverges", test="scaled-log", w="ln",
                    level=0, statistic=Fraction(1, 2),
                    template="log-ratio-partial"),
        expect_trace=(
            ("raabe", None, 0, MINUS_ONE),
            ("scaled-log", "n", 0, MINUS_ONE),
        ),
        note="boundary at w=n, decided by the exponent at w=ln",
    ),
    CorpusEntry(
        entry_id="log-power-converging",
        expression="(ln(n))^t/n",
        params={"t": Fraction(-2)},
        expect=dict(decision="converges", test="scaled-log", w="ln",
                    level=0, statistic=Fraction(-2),
                    template="log-ratio-tail"),
        expect_trace=(
            ("raabe", None, 0, MINUS_ONE),
            ("scaled-log", "n", 0, MINUS_ONE),
        ),
        note="same family, convergent side",
    ),
    CorpusEntry(
        entry_id="harmonic-log",
        expression="1/(n*ln(n))",
        expect=dict(decision="diverges", test="slow-divergence", w="ln",
                    level=0, statistic=Fraction(1), template="slow-log",
                    constant=Fraction(1)),
        expect_trace=(
            ("scaled-log", "ln", 0, MINUS_ONE),
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
        expect=dict(decision="converges", test="hierarchy", w="ln",
                    level=1, statistic=Fraction(-2),
                    template="log-log-tail"),
        expect_trace=(
            ("scaled-log", "ln", 0, MINUS_ONE),
        ),
        note="scale pinned; first escalation level decides",
    ),
    CorpusEntry(
        entry_id="double-log-pinned-deep",
        expression="(lnln(n))^p/(n*ln(n))",
        params={"p": Fraction(-2)},
        scale="lnln",
        expect=dict(decision="converges", test="scaled-log", w="lnln",
                    level=0, statistic=Fraction(-2),
                    template="log-ratio-tail"),
        note="same sequence with the deeper scale pinned: the level-0 "
             "statistic ln((n ln n) a_n)/lnlnln(n) is decisive here",
    ),
    CorpusEntry(
        entry_id="triple-log-harmonic",
        expression="1/(n*ln(n)*lnln(n))",
        expect=dict(decision="diverges", test="hierarchy", w="ln",
                    level=2, statistic=Fraction(0)),
        expect_trace=(
            ("scaled-log", "ln", 0, MINUS_ONE),
            ("hierarchy", "ln", 1, MINUS_ONE),
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


def _reading(verdict) -> dict:
    """What an entry may expect of a verdict, by key."""
    rate = verdict.rate
    return dict(
        decision=verdict.decision,
        test=verdict.test_id,
        w=verdict.scale.name if verdict.scale is not None else None,
        level=verdict.level,
        statistic=_exact_statistic(verdict),
        template=rate.template if rate is not None else None,
        constant=rate.exact_constant if rate is not None else None,
    )


def _shown(value) -> str:
    return str(value) if isinstance(value, Fraction) else repr(value)


def _check_entry(entry: CorpusEntry, report, got: dict) -> list:
    """The deviations of a report whose final verdict reads got."""
    devs = [
        f"{key} {_shown(got[key])}, expected {_shown(want)}"
        for key, want in entry.expect.items() if got[key] != want
    ]
    rows = set()
    for v in report.trace:
        r = _reading(v)
        rows.add((r["test"], r["w"], r["level"], r["statistic"]))
    devs += [
        "missing trace row (test, w, level, statistic) = ("
        + ", ".join(map(_shown, row)) + ")"
        for row in entry.expect_trace if row not in rows
    ]
    if entry.expect_warning is not None and not any(
            entry.expect_warning in w for w in report.warnings):
        devs.append(f"missing warning containing {entry.expect_warning!r}")
    return devs


def _fmt_statistic(verdict, exact: Fraction | None) -> str:
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
        got = _reading(report.final)
        rows.append(CorpusRow(
            entry_id=entry.entry_id,
            expression=entry.expression,
            decision=got["decision"],
            test=got["test"],
            scale_name=got["w"] or "-",
            level=got["level"],
            statistic=_fmt_statistic(report.final, got["statistic"]),
            rate=got["template"] or "-",
            deviations=tuple(_check_entry(entry, report, got)),
        ))
    return rows
