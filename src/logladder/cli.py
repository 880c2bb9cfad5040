"""Command-line front end.

Binds the expression parser, the decision ladder, and the summation
oracle into reproducible runs. Exit codes for analyze: 0 decisive (or
matching --expect), 1 input error, 2 inconclusive after exhausting the
ladder, 3 decisive but contradicting --expect. verify reuses 0/1/2 and
exits 3 when the measured rate contradicts the prediction; a rate
whose comparison log cannot move at any feasible budget exits 0 with
an unverifiable-at-scale tag. Every command exits 1 with "error in
output" on stderr when stdout is closed before the report is written
(a reader that quit early, as in "| head -1") or when a --csv file
cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import criteria as cr
from . import numeric as nm
from . import sums
from .errors import (
    BudgetExceededError,
    DomainError,
    LogLadderError,
    ParseError,
    PositivityViolation,
    RangeError,
    UnboundParameterError,
)
from .limits import Geometric, TowerGeometric, make_grid
from .scale import parse_scale

__all__ = ["main"]

SCHEMA_VERSION = "1"

_VERIFY_CHECKPOINTS = (10**4, 10**5, 10**6, 10**7)

_MAX_GRID_POINTS = 10**4  # the default grids have 10 and 12


class _StageError(Exception):
    """Carries which pipeline stage failed for the exit-1 message."""

    def __init__(self, stage: str, err: Exception):
        super().__init__(f"error in {stage}: {err}")
        self.stage = stage
        self.err = err


def _too_long(text: str) -> bool:
    """True when the digits of a number text plus its decimal exponent
    pass Python's integer string limit: Fraction() would compute
    10**exponent first, and the report could not print the value."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "")
    if not exponent.isdecimal():  # none, or Fraction() refuses the text
        exponent = "0"
    digits = sum(c.isdecimal() for c in mantissa)
    return len(exponent) > len(str(limit)) or digits + int(exponent) > limit


def _parse_params(pairs) -> dict:
    out = {}
    for raw in pairs or ():
        name, sep, val = raw.partition("=")
        if not sep or not name:
            raise ParseError(f"--param needs NAME=VALUE, got {raw!r}")
        if _too_long(val):
            raise ParseError(f"--param {name}: number too long (its digits "
                             "and exponent pass Python's int string limit)")
        try:
            out[name] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"--param {name}: cannot read {val!r} as a number"
            ) from None
    return out


def _parse_grid(text: str, precision: int) -> list:
    """Grid override syntax: semicolon-joined segments.

    geometric:START:RATIO:COUNT or tower:LEVEL:START:STEP:COUNT. The
    points are built once, here, so a grid that cannot be built is an
    input error even when the ladder never samples it.
    """
    schedule = []
    for seg in text.split(";"):
        parts = seg.strip().split(":")
        kind = parts[0]
        try:
            if kind == "geometric" and len(parts) == 4:
                schedule.append(
                    Geometric(int(parts[1]), int(parts[2]), int(parts[3]))
                )
            elif kind == "tower" and len(parts) == 5:
                schedule.append(
                    TowerGeometric(
                        int(parts[1]), int(parts[2]),
                        int(parts[3]), int(parts[4]),
                    )
                )
            else:
                raise ValueError(f"unrecognized grid segment {seg!r}")
        except (ValueError, TypeError) as e:
            raise ParseError(f"--grid: {e}")
    count = sum(s.count for s in schedule)
    if count > _MAX_GRID_POINTS:
        raise ParseError(f"--grid: {count} points exceed {_MAX_GRID_POINTS}")
    # a nonzero precision below 64 bits fails policy validation later
    bits = precision if precision >= 64 else nm.get_precision()
    try:
        with nm.local_precision(bits):
            return make_grid(schedule)
    except RangeError as e:
        raise ParseError(f"--grid: {e}") from None


def _term(args, params) -> cr.ExprTerm:
    """The command's term. Its domain start is found while it is built,
    so a start that cannot be found is a construction error."""
    try:
        return cr.ExprTerm(args.expression, params)
    except DomainError as e:
        raise _StageError("sequence construction", e)


def _analyze(args):
    """Read the ladder's inputs from args, build the term once and run
    the ladder on it: (term, pinned scale or None, report)."""
    try:
        params = _parse_params(args.param)
        scale = parse_scale(args.w) if args.w and args.w != "auto" else None
        grid = _parse_grid(args.grid, args.precision) if args.grid else None
    except LogLadderError as e:
        raise _StageError("input parsing", e)
    try:
        policy = cr.AnalysisPolicy(scale=scale, k_max=args.kmax, grid=grid)
        scope = nm.local_precision(nm.Precision(args.precision)
                                   if args.precision else nm.get_precision())
    except ValueError as e:
        raise _StageError("policy validation", e)
    with scope:
        term = _term(args, params)
        return term, scale, cr.analyze(term, policy=policy)


# -- serialization ---------------------------------------------------------------


def _num(x):
    if x is None:
        return None
    f = nm.to_float(x)
    if math.isfinite(f):
        return f
    return "inf" if f > 0 else "-inf"


def _rate_json(rate):
    if rate is None:
        return None
    return {
        "template": rate.template,
        "w": rate.scale.name if rate.scale is not None else None,
        "level": rate.level,
        "order": _num(rate.order),
        "order_exact": (
            str(rate.exact_order) if rate.exact_order is not None else None
        ),
        "exponent": _num(rate.exponent),
        "constant": _num(rate.constant),
        "constant_exact": (
            str(rate.exact_constant)
            if rate.exact_constant is not None else None
        ),
        "one_sided": False,
    }


def _verdict_json(v):
    est = v.statistic
    return {
        "test": v.test_id,
        "w": v.scale.name if v.scale is not None else None,
        "level": v.level,
        "statistic_value": _num(est.value) if est is not None else None,
        "uncertainty": (
            _num(est.uncertainty) if est is not None else None
        ),
        "statistic_status": est.status if est is not None else None,
        "statistic_exact": (
            str(v.exact_value) if v.exact_value is not None else None
        ),
        "decision": v.decision,
        "reason": v.reason,
        "one_sided": v.one_sided,
        "rate": _rate_json(v.rate),
    }


def _report_json(scale, report) -> dict:
    trace = [_verdict_json(v) for v in report.trace]
    # the deciding row is usually the last one traced: one dict for both
    final = (trace[-1] if trace and report.final is report.trace[-1]
             else _verdict_json(report.final))
    return {
        "schema_version": SCHEMA_VERSION,
        "sequence": report.sequence,
        "params": {k: str(v) for k, v in sorted(report.params.items())},
        "backend": report.backend,
        "scale": scale.name if scale is not None else "auto",
        "trace": trace,
        "final": final,
        "warnings": list(report.warnings),
    }


_quote = json.encoder.encode_basestring_ascii


def _float(x) -> str:
    if not math.isfinite(x):
        raise ValueError(
            "Out of range float values are not JSON compliant: " + repr(x)
        )
    return float.__repr__(x)


# The writers of the scalar types, in the order json tries them. A value
# of one of these exact types is written by a lookup; a subclass is
# written as json writes it, by the first type that it extends.
_SCALARS = {
    str: _quote,
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: _float,
}


def _json(obj) -> str:
    """obj as the json module writes it with two-space indents and no
    NaN or Infinity, byte for byte, for dict (str keys), list, str, int,
    float, bool and None. json's indenting encoder is pure Python and
    costs more than this per report."""
    return _write(obj, "\n", {})


def _write(obj, pad, done) -> str:
    """obj written at the indent pad. done maps the id of each dict or
    list already written to its text and the pad it was written at: one
    met again is not written again but re-indented. That is exact, since
    strings are escaped, so each newline in its text starts an indent at
    least as deep as the pad it was written at."""
    if not isinstance(obj, (list, dict)):
        for t, f in _SCALARS.items():
            if isinstance(obj, t):
                return f(obj)
        raise TypeError(f"Object of type {type(obj).__name__} "
                        "is not JSON serializable")
    if not obj:
        return "[]" if isinstance(obj, list) else "{}"
    if id(obj) in done:
        text, at = done[id(obj)]
        return text.replace(at, pad)
    inner = pad + "  "
    scalar = _SCALARS.get
    if isinstance(obj, list):
        items = [f(v) if (f := scalar(type(v))) else _write(v, inner, done)
                 for v in obj]
        text = "[" + inner + ("," + inner).join(items) + pad + "]"
    else:
        items = [_quote(k) + ": " + (
            f(v) if (f := scalar(type(v))) else _write(v, inner, done))
            for k, v in obj.items()]
        text = "{" + inner + ("," + inner).join(items) + pad + "}"
    done[id(obj)] = text, pad
    return text


def _emit(obj) -> None:
    print(_json(obj))


def _write_csv(path, rows) -> None:
    """Write checkpoint rows; a path that cannot be written is an output
    error."""
    try:
        sums.write_checkpoints_csv(path, rows)
    except OSError as e:
        raise _StageError("output", e)


def _fmt_stat(v) -> str:
    if v.exact_value is not None:
        return str(v.exact_value)
    est = v.statistic
    if est is None or est.value is None:
        return "-"
    s = nm.fmt(est.value, digits=8)
    if est.uncertainty is not None:
        u = nm.to_float(est.uncertainty)
        if math.isfinite(u) and u > 0:
            s += f" ± {u:.1e}"
    return s


def _fmt_rate(rate) -> str:
    if rate is None:
        return "-"
    bits = [rate.template]
    if rate.scale is not None:
        bits.append(f"w={rate.scale.name}")
    if rate.level:
        bits.append(f"level={rate.level}")
    if rate.exact_order is not None:
        bits.append(f"order={rate.exact_order}")
    elif rate.order is not None:
        bits.append(f"order={nm.fmt(rate.order, digits=6)}")
    if rate.exact_constant is not None:
        bits.append(f"C={rate.exact_constant}")
    elif rate.constant is not None:
        bits.append(f"C={nm.fmt(rate.constant, digits=6)}")
    return " ".join(bits)


def _print_report(report) -> None:
    print(f"sequence: {report.sequence}")
    if report.params:
        joined = ", ".join(
            f"{k}={v}" for k, v in sorted(report.params.items())
        )
        print(f"params:   {joined}")
    print(f"backend:  {report.backend}")
    print()
    header = f"{'test':<16} {'w':<6} {'lvl':<3} {'statistic':<24} decision"
    print(header)
    print("-" * len(header))
    for v in report.trace:
        w = v.scale.name if v.scale is not None else "-"
        line = (
            f"{v.test_id:<16} {w:<6} {v.level:<3} {_fmt_stat(v):<24} "
            f"{v.decision}"
        )
        if v.reason:
            line += f" ({v.reason})"
        print(line)
    print()
    final = report.final
    print(f"verdict: {final.decision} [{final.test_id}]")
    if final.rate is not None:
        print(f"rate:    {_fmt_rate(final.rate)}")
    for w in report.warnings:
        print(f"warning: {w}")


# -- subcommands -----------------------------------------------------------------


def _cmd_analyze(args) -> int:
    _, scale, report = _analyze(args)
    if args.json:
        _emit(_report_json(scale, report))
    else:
        _print_report(report)
    final = report.final
    if not final.decisive:
        return 2
    if args.expect is not None and final.decision != args.expect:
        return 3
    return 0


def _verification_json(check, tag) -> dict:
    return {
        "template": check.template,
        "status": check.status,
        "tag": tag,
        "target": check.target,
        "observed": list(check.observed),
        "tolerance": check.tolerance,
        "checkpoints": list(check.checkpoints),
        "fitted_constant": check.fitted_constant,
        "note": check.note,
    }


def _cmd_verify(args) -> int:
    tol = args.tolerance
    if tol is not None and not 0 <= tol < math.inf:
        raise _StageError("input parsing", ParseError(
            f"--tolerance must be finite and at least 0, got {tol}"
        ))
    term, scale, report = _analyze(args)
    final = report.final
    if not final.decisive or final.rate is None:
        if args.json:
            out = _report_json(scale, report)
            out["verification"] = None
            _emit(out)
        else:
            _print_report(report)
            print("verify: no quantitative rate to check")
        return 2
    checkpoints = args.checkpoints or list(_VERIFY_CHECKPOINTS)
    checkpoints = [c for c in checkpoints if c <= args.budget]
    if len(set(checkpoints)) < 3:
        left = ", ".join(map(str, sorted(set(checkpoints)))) or "none"
        raise _StageError("input parsing", ParseError(
            f"verify needs 3 distinct checkpoints at or below --budget "
            f"{args.budget}; left: {left}"
        ))
    try:
        check = sums.slope_check(
            term, final.rate, checkpoints,
            tolerance=args.tolerance, budget=args.budget,
        )
        if args.csv:
            # the check sums the checkpoints unless it stopped before
            rows = check.rows or sums.checkpoint_sums(
                term, checkpoints, budget=args.budget,
            )
            _write_csv(args.csv, rows)
    except (BudgetExceededError, RangeError, ValueError) as e:
        raise _StageError("oracle summation", e)
    tag = (
        "unverifiable-at-scale"
        if check.status == "insufficient-signal" else check.status
    )
    if args.json:
        out = _report_json(scale, report)
        out["verification"] = _verification_json(check, tag)
        _emit(out)
    else:
        _print_report(report)
        print()
        print(f"verification: {tag}")
        if check.target is not None:
            print(f"  target:    {check.target}")
        if check.observed:
            obs = ", ".join(f"{o:.6g}" for o in check.observed)
            print(f"  observed:  {obs}")
        if check.fitted_constant is not None:
            print(f"  fitted C:  {check.fitted_constant:.6g}")
        print(f"  tolerance: {check.tolerance}")
        if check.note:
            print(f"  note:      {check.note}")
    if check.status == "fail":
        return 3
    return 0


def _cmd_sum(args) -> int:
    try:
        params = _parse_params(args.param)
    except ParseError as e:
        raise _StageError("input parsing", e)
    try:
        nm.Precision(args.precision or 64)  # 0 keeps the default
    except ValueError as e:
        raise _StageError("policy validation", e)
    # Running totals are float64 sums from the first index, so an
    # option the checkpoint path would ignore is an input error.
    cps = args.checkpoints
    problem = None
    if cps and max(cps) > args.upto:
        problem = f"checkpoint {max(cps)} is past UPTO={args.upto}"
    elif cps and args.tail_from is not None:
        problem = "--tail-from does not apply to --checkpoints"
    elif cps and args.precision:
        problem = "--precision does not apply to --checkpoints"
    elif args.csv and not cps:
        problem = "--csv writes checkpoint rows and needs --checkpoints"
    if problem:
        raise _StageError("input parsing", ParseError(problem))
    term = _term(args, params)
    try:
        if cps:
            rows = sums.checkpoint_sums(term, cps, budget=args.budget)
            if args.csv:
                _write_csv(args.csv, rows)
            if args.json:
                _emit({
                    "schema_version": SCHEMA_VERSION,
                    "sequence": term.text,
                    "checkpoints": [
                        {"N": n, "partial_sum": _num(s)} for n, s in rows
                    ],
                })
            else:
                for n, s in rows:
                    print(f"S({n}) = {nm.fmt(s, digits=15)}")
            return 0
        precision = args.precision or 53
        if args.tail_from is not None:
            result = sums.tail_sum(
                term, args.tail_from, args.upto,
                budget=args.budget, precision=precision,
            )
            kind = "tail"
        else:
            result = sums.partial_sum(
                term, args.upto, budget=args.budget, precision=precision,
            )
            kind = "partial"
    except (BudgetExceededError, RangeError, PositivityViolation,
            ValueError) as e:
        raise _StageError("oracle summation", e)
    if args.json:
        _emit({
            "schema_version": SCHEMA_VERSION,
            "sequence": term.text,
            "kind": kind,
            "n_terms": result.n_terms,
            "value": _num(result.value),
            "estimate": _num(result.estimate),
            "truncation_correction": _num(result.truncation_correction),
            "summation_method": result.summation_method,
            "estimated_roundoff": _num(result.estimated_roundoff),
            "precision_bits": result.precision_bits,
            "note": result.note,
        })
    else:
        print(f"{kind} sum of {term.text}")
        print(f"  terms:    {result.n_terms}")
        print(f"  value:    {nm.fmt(result.value, digits=15)}")
        if result.truncation_correction is not None:
            print(
                "  beyond-window correction: "
                f"{nm.fmt(result.truncation_correction, digits=6)}"
            )
            print(f"  estimate: {nm.fmt(result.estimate, digits=15)}")
        print(f"  method:   {result.summation_method}")
        print(
            f"  roundoff: {nm.fmt(result.estimated_roundoff, digits=3)}"
        )
        if result.note:
            print(f"  note:     {result.note}")
    return 0


def _cmd_examples(args) -> int:
    # the corpus is imported here, not at start-up: only this command
    # reads it
    from . import corpus as corpus_mod

    try:
        rows = corpus_mod.run_corpus(entry_ids=args.only)
    except LogLadderError as e:
        raise _StageError("corpus run", e)
    failures = [f"{e.entry_id}: {d}" for e, _, devs in rows for d in devs]
    if args.only:
        known = {e.entry_id for e in corpus_mod.ENTRIES}
        failures += [
            f"{m}: no such corpus entry"
            for m in sorted(set(args.only) - known)
        ]
    if args.json:
        _emit({
            "schema_version": SCHEMA_VERSION,
            "entries": [
                {"id": e.entry_id, "sequence": e.expression,
                 **row._asdict(), "deviations": list(devs)}
                for e, row, devs in rows
            ],
            "mismatches": failures,
        })
    else:
        header = (
            f"{'entry':<26} {'decision':<10} {'test':<16} {'w':<6} "
            f"{'lvl':<3} {'statistic':<10} rate"
        )
        print(header)
        print("-" * len(header))
        for e, r, devs in rows:
            mark = "  <- MISMATCH" if devs else ""
            print(
                f"{e.entry_id:<26} {r.decision:<10} {r.test:<16} "
                f"{r.w:<6} {r.level:<3} {r.statistic:<10} {r.rate}{mark}"
            )
        for f in failures:
            print(f"mismatch: {f}")
    if failures:
        print(f"{len(failures)} corpus deviation(s)", file=sys.stderr)
        return 1
    return 0


# -- argument wiring --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports usage errors like every other input error: exit 1 with
    the stage named (argparse would exit 2, the inconclusive code)."""

    def error(self, message):
        raise _StageError("input parsing", ParseError(message))


def _add_common(p):
    """Options every analysis and summation command reads."""
    p.add_argument("expression", help="term formula in n, e.g. '1/(n*ln(n))'")
    p.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="bind a parameter (repeatable); values may be rational "
             "like 1/2 or decimal",
    )
    p.add_argument(
        "--precision", type=int, default=0, metavar="BITS",
        help="working precision override in bits",
    )
    p.add_argument(
        "--json", action="store_true", help="emit a JSON report"
    )


def _add_ladder(p):
    """Options of the decision ladder (analyze, verify)."""
    p.add_argument(
        "--w", default="auto",
        help="scale: auto, n, ln, lnln, lnlnln, pow:SIGMA, or expr:...; "
             "pinning a scale disables escalation to other scales",
    )
    p.add_argument(
        "--kmax", type=int, default=4,
        help="deepest escalation level to try (default 4)",
    )
    p.add_argument(
        "--grid", default=None,
        help="sampling grid override: 'geometric:START:RATIO:COUNT' or "
             "'tower:LEVEL:START:STEP:COUNT', ';'-joined; the first point "
             "must be at least 1",
    )


def _add_budget(p):
    """The oracle's term budget (sum, verify)."""
    p.add_argument(
        "--budget", type=int, default=sums.DEFAULT_BUDGET,
        help="oracle term-evaluation budget (default 10^8)",
    )


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name, built on
    the first call of the process and reused after it: parse_args keeps
    no state between calls."""
    ap = _Parser(
        prog="logladder",
        description="Convergence analysis for positive series by "
                    "scaled-log statistics, with a summation oracle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["analyze"] = sub.add_parser(
        "analyze", help="run the decision ladder on a sequence"
    )
    _add_common(p)
    _add_ladder(p)
    p.add_argument(
        "--expect", choices=("converges", "diverges"), default=None,
        help="exit 3 when the verdict disagrees (for CI)",
    )
    p.set_defaults(fn=_cmd_analyze)

    p = commands["sum"] = sub.add_parser(
        "sum", help="sum terms directly (ground truth, no analysis)"
    )
    _add_common(p)
    _add_budget(p)
    p.add_argument("upto", type=int, help="last index to sum")
    p.add_argument(
        "--tail-from", type=int, default=None, metavar="N",
        help="sum the window [N, UPTO] and fit a beyond-window "
             "correction instead of starting at the first index",
    )
    p.add_argument(
        "--checkpoints", type=int, nargs="+", default=None,
        help="report float64 running totals from the first index at "
             "these indices (none past UPTO) instead; takes no --tail-from "
             "or --precision",
    )
    p.add_argument(
        "--csv", default=None,
        help="write the checkpoint totals as CSV (needs --checkpoints)",
    )
    p.set_defaults(fn=_cmd_sum)

    p = commands["verify"] = sub.add_parser(
        "verify", help="check the predicted rate against checkpoint sums"
    )
    _add_common(p)
    _add_ladder(p)
    _add_budget(p)
    p.add_argument(
        "--checkpoints", type=int, nargs="+", default=None,
        help="oracle checkpoints (default 10^4..10^7 by decades)",
    )
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="override the per-template pass tolerance",
    )
    p.add_argument("--csv", default=None, help="write checkpoints as CSV")
    p.set_defaults(fn=_cmd_verify)

    p = commands["examples"] = sub.add_parser(
        "examples", help="run the reference corpus and check expectations"
    )
    p.add_argument(
        "--only", nargs="+", default=None, metavar="ID",
        help="run a subset of corpus entries",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_examples)
    return ap, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a command's own parser reads its options; the top-level one
        # answers anything else (no argv, -h, an unknown word)
        top, commands = _build_parser()
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = top.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as e:
        # The reader closed stdout. Point it at the null device, so
        # that the flush at interpreter exit does not fail again.
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"error in output: {e}", file=sys.stderr)
        return 1
    except _StageError as e:
        # argparse reads an expression that starts with '-' as an option
        dashed = [a for a in argv[1:] if a[:1] == "-" and a[1:2] not in "-h"]
        if "required: expression" in str(e) and dashed:
            e = f"{e}; pass it after '--': {argv[0]} -- {dashed[0]}"
        print(str(e), file=sys.stderr)
        return 1
    except (ParseError, UnboundParameterError) as e:
        print(f"error in input parsing: {e}", file=sys.stderr)
        return 1
    except PositivityViolation as e:
        print(f"error in sequence construction: {e}", file=sys.stderr)
        return 1
    except LogLadderError as e:
        print(f"error in ladder analysis: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
