"""The corpus check: a final row that differs from the frozen one is named."""

import json
from dataclasses import replace

from logladder import cli, corpus

# harmonic-log decides diverges [slow-divergence] at w = ln, level 0,
# with statistic 1 and rate template slow-log.
_ENTRY = next(e for e in corpus.ENTRIES if e.entry_id == "harmonic-log")
_WRONG = _ENTRY.row._replace(level=2)


def test_wrong_frozen_row_is_one_deviation_naming_both(monkeypatch):
    monkeypatch.setattr(corpus, "ENTRIES", (replace(_ENTRY, row=_WRONG),))
    ((entry, row, deviations),) = corpus.run_corpus()
    assert row == _ENTRY.row
    assert deviations == (
        "row (diverges, slow-divergence, ln, 0, 1, slow-log), "
        "expected (diverges, slow-divergence, ln, 2, 1, slow-log)",
    )


def test_examples_reports_a_deviation(monkeypatch, capsys):
    monkeypatch.setattr(corpus, "ENTRIES", (replace(_ENTRY, row=_WRONG),))
    assert cli.main(["examples"]) == 1
    captured = capsys.readouterr()
    assert "harmonic-log" in captured.out and "<- MISMATCH" in captured.out
    assert ("mismatch: harmonic-log: row (diverges, slow-divergence, ln, 0, "
            "1, slow-log), expected (diverges, slow-divergence, ln, 2, 1, "
            "slow-log)") in captured.out
    assert "1 corpus deviation(s)" in captured.err


def test_examples_names_an_unknown_id(capsys):
    assert cli.main(["examples", "--only", "harmonic-log", "no-such"]) == 1
    captured = capsys.readouterr()
    assert "mismatch: no-such: no such corpus entry" in captured.out
    assert "harmonic-log" in captured.out
    assert "1 corpus deviation(s)" in captured.err


def test_every_frozen_row_is_what_examples_prints(capsys):
    assert cli.main(["examples", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mismatches"] == []
    printed = [
        (e["id"], e["sequence"], tuple(e[k] for k in corpus.Row._fields))
        for e in doc["entries"]
    ]
    assert printed == [
        (e.entry_id, e.expression, e.row) for e in corpus.ENTRIES
    ]
