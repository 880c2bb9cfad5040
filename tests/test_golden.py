"""Golden lock: reports stay byte-identical across refactors.

Each case stores the exit code and the sha256 of stdout and of stderr
of one ``logladder`` argv, or the sha256 of the JSON rows (trace plus final
verdict) that ``analyze`` gives for a float callable. Callables reach
the raw samplers, which expression input never does.

A change that alters any verdict, statistic, rate, warning or output
byte fails here. When such a change is intended, regenerate the file
and say why in the change log:

    PYTHONPATH=src python tests/test_golden.py

Regeneration prints each case whose exit code or digest changed, and
for a callable its old and new final decision, so that the changed
cases can be reviewed before the file is committed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from known_verdicts import EXPONENTS, bertrand, bertrand_tuples
from logladder import cli
from logladder import corpus
from logladder import criteria as cr

GOLDEN = Path(__file__).with_name("golden.json")


def _argv_cases():
    cases = []
    for e in corpus.ENTRIES:
        argv = ["analyze", e.expression, "--json"]
        argv += [f"--param={k}={v}" for k, v in sorted(e.params.items())]
        if e.scale:
            argv += ["--w", e.scale]
        cases.append((f"corpus:{e.entry_id}", argv))
    rng = random.Random("golden")
    picked = rng.sample(bertrand_tuples(), 27)
    for ps in picked:
        c = rng.choice((1, 2, 3))
        cases.append((f"shift:{c}:{' '.join(map(str, ps))}",
                      ["analyze", bertrand(ps, c), "--json"]))
    for c in (1, 2, 3):
        ps = (-1, -1, -1)
        if ps not in picked:
            cases.append((f"shift:{c}:{' '.join(map(str, ps))}",
                          ["analyze", bertrand(ps, c), "--json"]))
    for w in ("n", "ln", "lnln", "pow:1/2"):
        for text in ("1/(n*ln(n))", "(n+2)^(-3/2)"):
            cases.append((f"w:{w}:{text}",
                          ["analyze", text, "--w", w, "--json"]))
    cases.append(("grid", ["analyze", "(n+1)^(-3/2)", "--grid",
                           "geometric:200:3:12", "--json"]))
    # A trace through every rung at ln: scaled-log, slow-divergence,
    # hierarchy and one-sided.
    ln_rungs = "exp((lnln(n))^(1/4))/(n*ln(n))"
    cases.append(("rungs:ln", ["analyze", ln_rungs]))
    cases.append(("rungs:ln:json", ["analyze", ln_rungs, "--json"]))
    cases.append(("examples", ["examples", "--json"]))
    cases.append(("sum:partial", ["sum", "1/(n*ln(n+1))", "20000", "--json"]))
    cases.append(("sum:tail", ["sum", "n^(-3/2)", "20000", "--tail-from",
                               "100"]))
    # The oracle: one verify per rate-template family, a failing claim,
    # a text report, the per-term precise path and running totals.
    for text in ("1/n^2", "n^(-1/2)", "(ln(n))^2/n", "(ln(n))^(-2)/n",
                 "1/(n*ln(n))", "1/((2*n+1)*ln(2*n+1))",
                 "(lnln(n))^2/(n*ln(n))"):
        cases.append((f"verify:{text}", ["verify", text, "--json"]))
    cases.append(("verify:fail", ["verify", "1/(n*ln(n))", "--tolerance",
                                  "0.00001"]))
    cases.append(("verify:text", ["verify", "n^(-3/2)"]))
    cases.append(("sum:precise", ["sum", "1/n^2", "2000", "--precision",
                                  "128", "--json"]))
    cases.append(("sum:precise-tail", ["sum", "n^(-3/2)", "2000",
                                       "--tail-from", "100", "--precision",
                                       "96", "--json"]))
    cases.append(("sum:checkpoints", ["sum", "1/(n*ln(n))", "10000",
                                      "--checkpoints", "10", "100", "1000",
                                      "10000"]))
    # Bytes decided by the tree walks (parameters, powers, iterated-log
    # thresholds) and by the custom-scale assumption check.
    with_params = "n^t*(ln(n))^s"
    cases.append(("walk:params", ["analyze", with_params, "--param", "t=-1",
                                  "--param", "s=-2"]))
    cases.append(("walk:unbound", ["analyze", with_params]))
    cases.append(("walk:power", ["analyze", "n^n"]))
    cases.append(("walk:thresholds", ["analyze",
                                      "1/(n*log_5(n+3)*lnln(2*n+7))"]))
    for w in ("n^a", "1/n", "2^n"):
        cases.append((f"scale:expr:{w}", ["analyze", "1/n^2", "--w",
                                          f"expr:{w}"]))
    cases.append(("scale:expr:ln(n)", ["analyze", "1/(n*ln(n))", "--w",
                                       "expr:ln(n)"]))
    # Terms whose parts cancel. An exact 0 at a tower point carries no
    # sign, so the first four analyze; the last two round to a large
    # negative value there and stay input errors.
    for text in ("ln(n+1)-ln(n)", "(ln(n+1)-ln(n))^2",
                 "(ln(n+1)-ln(n))/ln(n)", "(ln(n+1)-ln(n))/ln(n)^2"):
        cases.append((f"cancel:{text}", ["analyze", text]))
        cases.append((f"cancel:{text}:json", ["analyze", text, "--json"]))
    for text in ("(n+1)^2-n^2", "1/((n+1)^2-n^2)"):
        cases.append((f"cancel:{text}", ["analyze", text]))
    # A CSV path that cannot be written is an output error.
    cases.append(("csv:sum", ["sum", "1/n^2", "100", "--checkpoints", "10",
                              "100", "--csv", "/no/such/dir/x.csv"]))
    cases.append(("csv:verify", ["verify", "1/n^2", "--csv",
                                 "/no/such/dir/x.csv"]))
    return cases


def _callable(key):
    if key == "harmonic-log":
        return lambda n: 1 / (n * math.log(n))
    if key == "oscillating":
        return lambda n: (2 + (-1) ** n) / n ** 0.5
    p0, p1 = (float(x) for x in key.split(","))
    return lambda n: n ** p0 * math.log(n) ** p1


def _callable_keys():
    keys = [f"{p0},{p1}" for p0, p1 in
            itertools.product(map(float, EXPONENTS), repeat=2)]
    return keys + ["harmonic-log", "oscillating"]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "sha256": _sha(out.getvalue()),
            "stderr_sha256": _sha(err.getvalue())}


def run_callable(key):
    report = cr.analyze(cr.CallableTerm(_callable(key), n_start=2, text=key))
    rows = [cli._verdict_json(v) for v in report.trace + [report.final]]
    return {"final": report.final.decision,
            "sha256": _sha(json.dumps(rows, sort_keys=True))}


def _load():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id, argv", _argv_cases(),
                         ids=[c[0] for c in _argv_cases()])
def test_golden_argv(case_id, argv):
    want = _load()["argv"][case_id]
    assert want.pop("argv") == argv
    assert run_argv(argv) == want


def test_golden_callables():
    want = _load()["callables"]
    got = {key: run_callable(key) for key in _callable_keys()}
    assert got == want


if __name__ == "__main__":
    old = _load() if GOLDEN.exists() else {"argv": {}, "callables": {}}
    golden = {"argv": {}, "callables": {}}
    for case_id, argv in _argv_cases():
        new = golden["argv"][case_id] = {"argv": argv, **run_argv(argv)}
        was = old["argv"].get(case_id, {})
        if was != new:
            print(f"argv {case_id}: exit {was.get('exit')} -> {new['exit']}")
    for key in _callable_keys():
        new = golden["callables"][key] = run_callable(key)
        was = old["callables"].get(key, {})
        if was != new:
            print(f"callable {key}: {was.get('final')} -> {new['final']}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['argv'])} argv and "
          f"{len(golden['callables'])} callable cases to {GOLDEN}")
