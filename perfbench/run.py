"""logladder benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload ladder-exact --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory. One process, one thread, a closed loop with one caller: each
CLI call starts when the previous one has returned. Calls go in-process
through logladder.cli.main(argv) with stdout captured, the path users run.

Workloads (cases.py builds their inputs from --seed):
  ladder-exact    all 1554 Bertrand tuples (m <= 4) through `analyze --json`;
                  the symbolic path: term construction dominates.
  ladder-sampled  the 258 tuples with m <= 3 written in n+c, c in {1,2,3};
                  no exact log split, so the numeric backend runs: grids,
                  sampler evaluation, scale increments, limit estimation.
  oracle          `sum` of n^(-s) to 10^8 (partial and tail windows) and
                  `verify` of six true rate claims; the summation oracle.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed seeded subset once untraced and twice traced, with
wrappers from tracer.py around each module's functions, and reports the
per-layer split; the counts of the two traced passes must agree exactly.

Every output is checked against a reference that does not come from
logladder (see cases.py). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are the
human-readable report: version stamps, every metric with its unit and
sample count, wrong outputs by expression, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import cases as cases_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is probed this many times before the measured calls and again
# after them, so that the median spans two moments of a noisy machine.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# The traced run's fixed case list: every ladder case, and one oracle pass
# (four sums, six verifies). Three passes of each take about half a minute.
TRACE_CASES = {"ladder-exact": 1554, "ladder-sampled": 258, "oracle": 10}


class CheckoutError(Exception):
    pass


# -- set-up -----------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def setup_probes(workload: str, seed: int) -> list:
    """Time fresh interpreters until logladder.cli is imported and the
    inputs are built. The first batch runs before this process imports
    numpy or mpmath; later batches still time fresh interpreters."""
    out = []
    env = _child_env()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload,
                 str(seed)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise CheckoutError("set-up probe timed out")
        if proc.returncode != 0:
            raise CheckoutError(
                f"set-up probe failed: {proc.stderr.strip()[-500:]}"
            )
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({
            "setup_s": rec["t_ready"] - t0,
            "import_ms": (rec["t_imported"] - t0) * 1e3,
            "numpy_loaded": rec["numpy_loaded"],
        })
    return out


def declared_metrics() -> tuple:
    """(end_to_end, per_layer) metric specs from BENCHMARK.json: the JSON
    line carries exactly these, the report lines carry every metric."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise CheckoutError(f"cannot read BENCHMARK.json: {e}")
    return doc["end_to_end"], doc["per_layer"]


def load_cli():
    sys.path.insert(0, str(SRC))
    import logladder.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "logladder":
        raise CheckoutError(f"imported logladder from {cli.__file__}")
    return cli


# -- calling the CLI -------------------------------------------------------------


def call(cli_main, argv) -> tuple:
    """Run one CLI call; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as e:  # argparse rejected the argv
            code = e.code if isinstance(e.code, int) else None
        except Exception:  # a traceback is an error outcome, not a crash
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class Ledger:
    """Outcomes of every call, checked against the references.

    Repeats of one argv must give byte-identical output; the first outcome
    of each argv is checked once, and its verdict applies to every repeat.
    """

    def __init__(self):
        self.first = {}
        self.count = {}
        self.calls = []  # (case, seconds) in call order
        self.mismatches = []

    def record(self, case, outcome, seconds=None) -> None:
        key = case.argv
        if key in self.first:
            if outcome != self.first[key]:
                self.mismatches.append(case.expression)
        else:
            self.first[key] = outcome
        self.count[key] = self.count.get(key, 0) + 1
        if seconds is not None:
            self.calls.append((case, seconds))


def run_cases(cli_main, case_list, ledger) -> float:
    """One untimed-per-call pass over the cases; returns its wall time."""
    t0 = time.perf_counter()
    for case in case_list:
        ledger.record(case, call(cli_main, case.argv))
    return time.perf_counter() - t0


def run_for(cli_main, case_list, ledger, seconds: float) -> float:
    """Closed loop over the cases, cycling, until `seconds` have passed."""
    clock = time.perf_counter
    t0 = clock()
    deadline = t0 + seconds
    i = 0
    while True:
        case = case_list[i % len(case_list)]
        t = clock()
        outcome = call(cli_main, case.argv)
        end = clock()
        ledger.record(case, outcome, end - t)
        i += 1
        if end >= deadline:
            return end - t0


def warm_case(case_list):
    """The first non-sum case: lazy imports and caches fill before timing."""
    return next((c for c in case_list if c.kind != "sum"), case_list[0])


# -- checking --------------------------------------------------------------------


class Check:
    def __init__(self):
        self.errors = []  # (case, why)
        self.wrong = []  # (expression, why, known)
        self.reports = []  # parsed analysis reports, one per distinct case
        self.sum_terms = {}  # argv -> n_terms
        self.roundoff_share = []


def _parse(stdout):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_outcomes(ledger: Ledger, by_argv: dict) -> Check:
    from mpmath import mp, zeta  # after set-up and the timed calls

    chk = Check()
    for key, (code, stdout, stderr) in ledger.first.items():
        case = by_argv[key]
        doc = _parse(stdout)
        if doc is None:
            chk.errors.append((case, f"exit {code}, no JSON: "
                                     f"{stderr.strip()[-300:]}"))
            continue
        if case.kind == "analyze":
            final = doc.get("final") or {}
            decision = final.get("decision")
            decisive = decision in ("converges", "diverges")
            if code not in (0, 2) or (code == 0) != decisive or not (
                    decisive or decision == "inconclusive"):
                chk.errors.append((case,
                                   f"exit {code} with decision {decision}"))
                continue
            chk.reports.append(doc)
            if decisive and decision != case.expect:
                chk.wrong.append((
                    case.expression,
                    f"expected {case.expect}, got {decision} "
                    f"[{final.get('test')}] via {doc.get('backend')}",
                    case.known_wrong,
                ))
        elif case.kind == "verify":
            if code not in (0, 2, 3):
                chk.errors.append((case, f"exit {code}"))
                continue
            chk.reports.append(doc)
            ver = doc.get("verification") or {}
            if code != 0 or ver.get("status") != "pass":
                chk.wrong.append((case.expression,
                                  f"true claim not verified: exit {code}, "
                                  f"status {ver.get('status')}", False))
        else:
            if code != 0:
                chk.errors.append((case, f"exit {code}"))
                continue
            try:
                with mp.workdps(40):
                    s = mp.mpf(case.s.numerator) / case.s.denominator
                    ref = zeta(s, case.lo) - zeta(s, case.hi + 1)
                    err = abs(mp.mpf(doc["value"]) - ref)
                    bound = mp.mpf(doc["estimated_roundoff"])
                n_terms = int(doc["n_terms"])
            except (KeyError, TypeError, ValueError) as e:
                chk.errors.append((case, f"unreadable sum report: {e!r}"))
                continue
            chk.sum_terms[key] = n_terms
            err, bound = float(err), float(bound)
            if bound > 0:
                chk.roundoff_share.append(err / bound)
            if n_terms != case.hi - case.lo + 1:
                chk.wrong.append((case.expression,
                                  f"summed {n_terms} terms, window "
                                  f"[{case.lo}, {case.hi}]", False))
            elif err > bound:
                chk.wrong.append((case.expression,
                                  f"off the Hurwitz zeta window by {err:.3e}"
                                  f" > estimated_roundoff {bound:.3e}",
                                  False))
    return chk


# -- metrics ---------------------------------------------------------------------


def _p95(xs):
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


def e2e_rows(probes, ledger: Ledger, chk: Check, wall: float) -> list:
    """(name, value, unit, samples) for the untraced run."""
    times = [dt for _, dt in ledger.calls]
    n = len(times)
    rows = [
        ("setup_s", statistics.median(p["setup_s"] for p in probes), "s",
         len(probes)),
        ("call_p50_ms", statistics.median(times) * 1e3, "ms", n),
        ("call_p95_ms", _p95(times) * 1e3, "ms", n),
        ("calls_per_s", n / wall, "1/s", n),
    ]
    analyze = [dt for c, dt in ledger.calls if c.kind == "analyze"]
    if analyze:
        rows += [
            ("analyze_p50_ms", statistics.median(analyze) * 1e3, "ms",
             len(analyze)),
            ("analyze_p95_ms", _p95(analyze) * 1e3, "ms", len(analyze)),
            ("cases_per_s", len(analyze) / wall, "1/s", len(analyze)),
        ]
    sums_ = [(c, dt) for c, dt in ledger.calls if c.kind == "sum"]
    if sums_:
        terms = sum(chk.sum_terms.get(c.argv, 0) for c, _ in sums_)
        rows.append(("oracle_mterms_per_s",
                     terms / sum(dt for _, dt in sums_) / 1e6, "Mterm/s",
                     len(sums_)))
    verify = [dt for c, dt in ledger.calls if c.kind == "verify"]
    if verify:
        rows.append(("verify_p50_s", statistics.median(verify), "s",
                     len(verify)))
    return rows


# -- the traced run --------------------------------------------------------------


def traced_passes(cli, case_list, ledger):
    """Traced, untraced, traced: the first pass absorbs any cold start, so
    the reported overhead errs high rather than low."""
    import tracer as tracer_mod

    modules = {name: sys.modules[f"logladder.{name}"]
               for name in tracer_mod.LAYERS}
    passes = []
    untraced = None
    for traced in (True, False, True):
        if not traced:
            untraced = run_cases(cli.main, case_list, ledger)
            continue
        tr = tracer_mod.Tracer()
        tracer_mod.install(tr, modules)
        try:
            wall = run_cases(cli.main, case_list, ledger)
        finally:
            tr.close()
        passes.append((tr, wall))
    return untraced, passes


def layer_rows(probes, passes, chk: Check, n_cases: int) -> list:
    """(name, value, unit, samples) for the traced run; times are the mean
    of the two traced passes, counts those of the first."""
    (a, _), (b, _) = passes

    def ms(key, self_time=False):
        src = "self_ms" if self_time else "ms"
        return (getattr(a, src).get(key, 0.0)
                + getattr(b, src).get(key, 0.0)) / 2

    def calls(key):
        return a.calls.get(key, 0)

    reports = chk.reports
    decided = sum(
        1 for r in reports
        if (r.get("final") or {}).get("decision") in ("converges", "diverges")
    )
    offered = a.counts.get("limits.samples_offered", 0)
    terms = {s: a.counts.get(f"sums.terms.{s}", 0) for s in ("power", "log")}
    kernel_s = {s: (a.kernel_s.get(s, 0.0) + b.kernel_s.get(s, 0.0)) / 2
                for s in ("power", "log")}
    values = {
        "import.logladder_ms": statistics.median(
            p["import_ms"] for p in probes),
        "import.numpy_loaded": int(any(p["numpy_loaded"] for p in probes)),
        "cli.self_ms": ms("cli.main", self_time=True),
        "expr.term_build_ms": ms("expr.term_build"),
        "expr.domain_start_ms": ms("expr.domain_start"),
        "expr.check_positive_ms": ms("expr.check_positive"),
        "expr.eval_expr_calls": calls("expr.eval_expr"),
        "expr.linearize_ms": ms("expr.linearize"),
        "expr.to_log_power_ms": ms("expr.to_log_power"),
        "criteria.raabe_ms": ms("criteria.raabe"),
        "criteria.scaled_log_ms": ms("criteria.scaled_log"),
        "criteria.hierarchy_ms": ms("criteria.hierarchy"),
        "criteria.slow_divergence_ms": ms("criteria.slow_divergence"),
        "criteria.one_sided_ms": ms("criteria.one_sided"),
        "criteria.rungs_per_case": (
            sum(len(r.get("trace") or ()) for r in reports) / len(reports)
            if reports else 0.0),
        "criteria.decided_share": decided / len(reports) if reports else 0.0,
        "limits.estimate_calls": calls("limits.estimate"),
        "limits.estimate_ms": ms("limits.estimate"),
        "limits.samples_offered": offered,
        "limits.samples_used_share": (
            a.counts.get("limits.samples_used", 0) / offered
            if offered else 0.0),
        "limits.make_grid_ms": ms("limits.make_grid"),
        "numeric.ext_op_calls": calls("numeric.ext_op"),
        "numeric.from_value_calls": calls("numeric.from_value"),
        "numeric.local_precision_enters": calls("numeric.local_precision"),
        "scale.delta_calls": calls("scale.delta"),
        "scale.delta_ms": ms("scale.delta"),
        "sums.partial_sum_ms": ms("sums.partial_sum"),
        "sums.tail_sum_ms": ms("sums.tail_sum"),
        "sums.checkpoint_sums_ms": ms("sums.checkpoint_sums"),
        "sums.slope_check_self_ms": ms("sums.slope_check", self_time=True),
        "sums.terms": terms["power"] + terms["log"],
        "sums.mterms_per_s.power": (
            terms["power"] / kernel_s["power"] / 1e6
            if kernel_s["power"] else 0.0),
        "sums.mterms_per_s.log": (
            terms["log"] / kernel_s["log"] / 1e6 if kernel_s["log"] else 0.0),
        "sums.roundoff_used_share": max(chk.roundoff_share, default=0.0),
    }
    return [
        (k, v, _unit(k), len(probes) if k.startswith("import.") else n_cases)
        for k, v in values.items()
    ]


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "mterms_per_s" in name:
        return "Mterm/s"
    if name.endswith(("_share", "_per_case")):
        return "ratio"
    return "count"


# -- stamps ----------------------------------------------------------------------


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "logladder").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=cases_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (SRC / "logladder" / "cli.py").is_file():
            raise CheckoutError(f"no logladder sources under {SRC}")
        declared = declared_metrics()
        probes = setup_probes(args.workload, args.seed)
        cli = load_cli()
    except CheckoutError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    case_list = cases_mod.generate(args.workload, args.seed)
    by_argv = {c.argv: c for c in case_list}

    ledger = Ledger()
    warm = warm_case(case_list)
    ledger.record(warm, call(cli.main, warm.argv))
    if args.trace:
        subset = case_list[:TRACE_CASES[args.workload]]
        untraced, passes = traced_passes(cli, subset, ledger)
        attempted = 3 * len(subset)
    else:
        wall = run_for(cli.main, case_list, ledger, args.seconds)
        attempted = len(ledger.calls)
    attempted += 1  # the warm-up call

    try:
        probes += setup_probes(args.workload, args.seed)
    except CheckoutError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    chk = check_outcomes(ledger, by_argv)
    error_calls = sum(ledger.count[c.argv] for c, _ in chk.errors)
    count_mismatch = []
    if args.trace:
        a, b = (tr.snapshot() for tr, _ in passes)
        count_mismatch = sorted(k for k in a.keys() | b.keys()
                                if a.get(k) != b.get(k))
    new_wrong = [w for w in chk.wrong if not w[2]]
    wrong_outputs = (len(chk.wrong) + len(ledger.mismatches)
                     + len(count_mismatch))
    correct = not (new_wrong or ledger.mismatches or count_mismatch
                   or chk.errors)

    if args.trace:
        rows = layer_rows(probes, passes, chk, len(subset))
        overhead = statistics.mean(wall for _, wall in passes) / untraced
        rows.append(("trace_overhead", overhead, "ratio", len(subset)))
    else:
        rows = e2e_rows(probes, ledger, chk, wall)
    rows.append(("wrong_outputs", wrong_outputs, "count", len(ledger.first)))
    rows.append(("error_share", error_calls / attempted, "ratio", attempted))

    print(f"# logladder benchmark: {json.dumps(stamp(args))}")
    for name, value, unit, n in rows:
        print(f"{name:<32} {value:>14.6g} {unit:<8} n={n}")
    for expr, why, known in chk.wrong:
        print(f"wrong{' (known)' if known else ''}: {expr}: {why}")
    for expr in ledger.mismatches:
        print(f"nondeterministic output: {expr}")
    for key in count_mismatch:
        print(f"traced count differs between passes: {key}")
    for case, why in chk.errors:
        print(f"error: {case.expression}: {why}")

    by_name = {name: (value, unit) for name, value, unit, _ in rows}
    metrics = {}
    for spec in declared[1 if args.trace else 0]:
        value, unit = by_name[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} is not "
                             f"the declared {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": error_calls,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
