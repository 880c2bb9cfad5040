"""Named reference sequences, each with the final row it must show.

Each entry freezes the one row that `examples` prints for it: decision,
deciding test, scale, level, statistic and rate template. The runner
re-analyzes every entry and names any entry whose row differs, so this
doubles as a quick end-to-end regression of the decision ladder. The
trace rows and warnings behind each row are locked elsewhere, by the
byte-identical reports of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import criteria as cr
from . import numeric as nm
from .scale import parse_scale

__all__ = ["Row", "Entry", "ENTRIES", "run_corpus"]


class Row(NamedTuple):
    """A final verdict as examples prints it; '-' marks a missing part."""

    decision: str
    test: str
    w: str
    level: int
    statistic: str
    rate: str

    def __str__(self):
        return "(" + ", ".join(map(str, self)) + ")"


@dataclass(frozen=True)
class Entry:
    entry_id: str
    expression: str
    row: Row  # the final row the analysis must reproduce
    params: dict = field(default_factory=dict)
    scale: str | None = None  # scale text to pin, None for the auto ladder


ENTRIES = (
    # decided at the first rung, on both sides
    Entry("inverse-square", "1/n^2",
          Row("converges", "raabe", "-", 0, "-2", "precise-tail")),
    Entry("inverse-sqrt", "n^(-1/2)",
          Row("diverges", "raabe", "-", 0, "-1/2", "precise-partial")),
    # boundary at w=n, decided by the exponent at w=ln
    Entry("log-power-diverging", "(ln(n))^t/n",
          Row("diverges", "scaled-log", "ln", 0, "1/2", "log-ratio-partial"),
          params={"t": "1/2"}),
    Entry("log-power-converging", "(ln(n))^t/n",
          Row("converges", "scaled-log", "ln", 0, "-2", "log-ratio-tail"),
          params={"t": "-2"}),
    # every scaled-log rung sits at the boundary; the term-to-increment
    # ratio settles the constant, and that constant is the statistic
    Entry("harmonic-log", "1/(n*ln(n))",
          Row("diverges", "slow-divergence", "ln", 0, "1", "slow-log")),
    # scale pinned: the first escalation level decides, and with the
    # deeper scale pinned the level-0 statistic does
    Entry("double-log-power", "(lnln(n))^p/(n*ln(n))",
          Row("converges", "hierarchy", "ln", 1, "-2", "log-log-tail"),
          params={"p": "-2"}, scale="ln"),
    Entry("double-log-pinned-deep", "(lnln(n))^p/(n*ln(n))",
          Row("converges", "scaled-log", "lnln", 0, "-2", "log-ratio-tail"),
          params={"p": "-2"}, scale="lnln"),
    # every escalation statistic is -1 until the truncation depth, where
    # 0 decides divergence
    Entry("triple-log-harmonic", "1/(n*ln(n)*lnln(n))",
          Row("diverges", "hierarchy", "ln", 2, "0", "log-log-partial")),
)


def _row(v) -> Row:
    if v.exact_value is not None:
        statistic = str(v.exact_value)
    elif v.statistic is None or v.statistic.value is None:
        statistic = "-"
    else:
        statistic = nm.fmt(v.statistic.value, digits=6)
    return Row(
        v.decision, v.test_id, v.scale.name if v.scale is not None else "-",
        v.level, statistic, v.rate.template if v.rate is not None else "-",
    )


def run_corpus(entry_ids=None):
    """Analyze every entry (or those named in entry_ids).

    Returns (entry, row, deviations) for each; deviations holds one text
    when the row differs from the frozen one. Ids that name no entry are
    ignored.
    """
    out = []
    for entry in ENTRIES:
        if entry_ids is not None and entry.entry_id not in entry_ids:
            continue
        policy = cr.AnalysisPolicy(
            scale=parse_scale(entry.scale) if entry.scale else None
        )
        report = cr.analyze(
            entry.expression, policy=policy, params=entry.params or None
        )
        row = _row(report.final)
        out.append((entry, row, () if row == entry.row else (
            f"row {row}, expected {entry.row}",)))
    return out
