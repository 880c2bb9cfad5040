"""The corpus check: each wrong expectation yields a deviation naming it."""

from dataclasses import replace
from fractions import Fraction

import pytest

from logladder import cli, corpus

# harmonic-log decides diverges [slow-divergence] at w = ln, level 0,
# with statistic 1, rate template slow-log and constant 1.
_ENTRY = next(e for e in corpus.ENTRIES if e.entry_id == "harmonic-log")


def _deviations(monkeypatch, **changes):
    monkeypatch.setattr(corpus, "ENTRIES", (replace(_ENTRY, **changes),))
    (row,) = corpus.run_corpus()
    return row.deviations


@pytest.mark.parametrize("key, wrong, deviation", [
    ("decision", "converges", "decision 'diverges', expected 'converges'"),
    ("test", "raabe", "test 'slow-divergence', expected 'raabe'"),
    ("w", "lnln", "w 'ln', expected 'lnln'"),
    ("level", 2, "level 0, expected 2"),
    ("statistic", Fraction(-3), "statistic 1, expected -3"),
    ("template", "log-ratio-tail",
     "template 'slow-log', expected 'log-ratio-tail'"),
    ("constant", Fraction(2), "constant 1, expected 2"),
])
def test_wrong_expect_value_is_named(monkeypatch, key, wrong, deviation):
    expect = {**_ENTRY.expect, key: wrong}
    assert _deviations(monkeypatch, expect=expect) == (deviation,)


def test_missing_trace_row_is_named(monkeypatch):
    row = ("hierarchy", "ln", 1, Fraction(-1))
    assert _deviations(monkeypatch, expect_trace=(row,)) == (
        "missing trace row (test, w, level, statistic) = "
        "('hierarchy', 'ln', 1, -1)",
    )


def test_missing_warning_is_named(monkeypatch):
    assert _deviations(monkeypatch, expect_warning="no such text") == (
        "missing warning containing 'no such text'",
    )


def test_examples_reports_a_deviation(monkeypatch, capsys):
    monkeypatch.setattr(corpus, "ENTRIES", (
        replace(_ENTRY, expect={**_ENTRY.expect, "level": 2}),
    ))
    assert cli.main(["examples"]) == 1
    captured = capsys.readouterr()
    assert "harmonic-log" in captured.out and "<- MISMATCH" in captured.out
    assert "mismatch: harmonic-log: level 0, expected 2" in captured.out
    assert "1 corpus deviation(s)" in captured.err
