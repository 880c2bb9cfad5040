"""Cold start: the CLI's import path and the exact route load no mpmath.

`import logladder.cli` builds its classes without dataclasses and leaves
mpmath and numpy unloaded; the exact route reads Fractions and ints from
parse to JSON, so analyzing an exact or shifted term loads neither. The
checks that read sys.modules run in a fresh interpreter, since the rest
of the suite imports mpmath into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from mpmath import mp

from logladder import criteria as cr
from logladder import limits as lm
from logladder import numeric as nm

SRC = Path(__file__).resolve().parent.parent / "src"
_HEAVY = ("mpmath", "numpy", "dataclasses")


def _fresh(code: str, *args: str) -> dict:
    """Run code in a new interpreter with src/ on the path; the last
    line it prints is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_ANALYZE_THEN_SUM = """
import contextlib, io, json, sys
import logladder.cli as cli
heavy = {heavy!r}
loaded = lambda: [m for m in heavy if m in sys.modules]
rows = [["import", loaded()]]
for text in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", text, "--json"])
    final = json.loads(out.getvalue())["final"]
    rows.append([code, final["test"], loaded()])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["sum", "1/n^2", "1000", "--json"])
print(json.dumps({{"rows": rows, "sum": out.getvalue()}}))
""".format(heavy=_HEAVY)

# the bytes of this report before the import path changed
_SUM_REPORT = """\
{
  "schema_version": "1",
  "sequence": "1/n^2",
  "kind": "partial",
  "n_terms": 1000,
  "value": 1.6439345666815601,
  "estimate": 1.6439345666815601,
  "truncation_correction": null,
  "summation_method": "compensated",
  "estimated_roundoff": 3.650268013814096e-13,
  "precision_bits": 53,
  "note": ""
}
"""


def test_cli_import_and_exact_analyze_load_no_mpmath():
    got = _fresh(
        _ANALYZE_THEN_SUM,
        "n^(-1)*(ln(n))^(-1)*(ln(ln(n)))^(-1/2)",
        "(n+2)^(-1)*(ln((n+2)))^(-1)",
        "1/(n*ln(n))",
    )
    assert got["rows"] == [
        ["import", []],
        [0, "hierarchy", []],
        [0, "slow-divergence", []],
        [0, "slow-divergence", []],
    ]
    # a sum loads what it needs and writes the same bytes
    assert got["sum"] == _SUM_REPORT


_LOAD_CALLS_NOTHING = """
import json, sys
from fractions import Fraction
from logladder import numeric as nm
before = "mpmath" in sys.modules

def refuse(*args, **kwargs):
    raise AssertionError("called while loading")

for name in [n for n in vars(nm) if n.startswith("ext_")] + [
        "from_value", "iter_ln", "local_precision", "fmt"]:
    setattr(nm, name, refuse)
one = nm.ONE  # the first read of a lazy name loads
margin = nm.default_scalar(Fraction(1, 1000))
print(json.dumps([before, "mpmath" in sys.modules, one.sign, margin.sign]))
"""


def test_loading_calls_no_arithmetic():
    assert _fresh(_LOAD_CALLS_NOTHING) == [False, True, 1, 1]


def _bits(x):
    return x.sign, x.level, x.mag._mpf_


def test_loaded_constants_keep_their_bits():
    # each constant equals the one built when the module was imported,
    # at mpmath's default 53 bits
    with mp.workprec(53):
        with mp.workprec(64):
            cap = mp.mpf("0.693147180559945") * mp.mpf(2) ** (1 << 14)
        limit, tiny = mp.mpf(2) ** 4096, mp.mpf(2) ** -4096
        zero, one = mp.mpf(0), mp.mpf(1)
    assert nm._EXP_ARG_CAP._mpf_ == cap._mpf_
    assert (nm._FMT_LIMIT._mpf_, nm._FMT_TINY._mpf_) == (
        limit._mpf_, tiny._mpf_)
    assert _bits(nm.ZERO) == (0, 0, zero._mpf_)
    assert _bits(nm.ONE) == (1, 0, one._mpf_)


def test_margins_keep_their_bits_at_every_precision():
    # the decision margins read as from_value read them at import, at
    # the default precision, whatever precision is active
    with nm.local_precision(nm.Precision()):
        want = [_bits(nm.from_value(q)) for q in (
            -1 - cr.DECIDE_MARGIN, -1 + cr.DECIDE_MARGIN, cr.DECIDE_MARGIN)]
    for bits in (64, 256, 4096):
        with nm.local_precision(bits):
            got = [_bits(nm.default_scalar(q)) for q in (
                -1 - cr.DECIDE_MARGIN, -1 + cr.DECIDE_MARGIN,
                cr.DECIDE_MARGIN)]
        assert got == want


def test_fit_tolerance_multiplies_as_the_mpf_did():
    with mp.workprec(266):
        x = mp.mpf(7) / 3
        assert (lm._REL_TOL * x)._mpf_ == (mp.mpf(0.001) * x)._mpf_
        assert mp.mpf(lm._REL_TOL * 1) == mp.mpf(0.001)
