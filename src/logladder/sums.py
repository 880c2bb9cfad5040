"""Brute-force summation oracle.

Ground truth for the rate predictions: partial sums, windowed tail
sums, and slope fits of the predicted growth templates, computed by
direct term evaluation with none of the acceleration machinery the
limit estimator uses.

Terms are evaluated vectorized in float64 over fixed-size chunks; each
chunk is reduced with numpy's pairwise sum and the chunk totals are
accumulated in high-precision scalars, so accumulation error stays far
below the per-term evaluation error. estimated_roundoff reports the
conservative bound n_terms * 2^(1-53) * value for that reason: the
53-bit term evaluation dominates. A precision override evaluates terms
one by one at the requested bits instead; it is orders of magnitude
slower, so the budget charges each precise term as _PRECISE_COST float
terms, plus a charge that grows with the bits for each log or exp it
takes: the default budget bounds a precise run to a few seconds.

Expressions compile to numpy evaluators with constant arithmetic folded
to scalars and intermediate arrays reused in place; each term keeps the
bits of a node-by-node array evaluation. Chunks are evaluated and
totalled on up to 4 threads (no more than the machine's cores) and
accumulated in chunk order on the calling thread, so results do not
depend on the thread count. Python callables passed to partial_sum,
tail_sum or checkpoint_sums may therefore be called from worker
threads, several at a time.
"""

from __future__ import annotations

import csv
import math
import os
from collections import deque
from functools import partial
from typing import NamedTuple

from . import criteria as cr
from . import expr as ex
from . import limits as lm
from . import numeric as nm
from .errors import (
    BudgetExceededError,
    PositivityViolation,
    RangeError,
    UnboundParameterError,
)
from .numeric import ExtScalar

__all__ = [
    "DEFAULT_BUDGET",
    "CHUNK",
    "SIGNAL_EFOLDS",
    "SumResult",
    "RateCheck",
    "partial_sum",
    "tail_sum",
    "checkpoint_sums",
    "slope_check",
    "write_checkpoints_csv",
]

DEFAULT_BUDGET = 10**8
CHUNK = 1 << 20
# Chunks are evaluated on at most this many threads (fewer on fewer
# cores); the totals do not depend on the count.
_MAX_WORKERS = 4

# A fit abscissa must move at least this much over the checkpoints;
# below it the template is unverifiable at desk scale (the deep-log
# comparison functions are essentially constant below any budget).
SIGNAL_EFOLDS = 0.5

# Pass tolerance of each rate template: relative for the precise ratio
# and the slow-log constant, scaled by max(1, |target|) for the fitted
# exponents of the log-ratio and log-log templates.
_TOLERANCE = {
    "precise-tail": 0.001,
    "precise-partial": 0.001,
    "slow-log": 0.02,
}
_RATIO_TOLERANCE = 0.05

_TERM_BITS = 53
_ACC_BITS = 160

# On 2 cores the precise path ran 12-21 thousand terms/s at 64 to 1024
# bits and the float kernel 31-54 million, so 10^8 allows 2.5-4 s.
_PRECISE_COST = 2000
# Each log or exp in a precise term costs more with the bits: per term,
# 1/(n*ln(n)^2) ran 10 500/s at 64 bits, 2 800 at 1024, 430 at 4096 and
# 57 at 16384, and n^(-3/2) (a log and an exp) 12 600, 3 300, 410 and 35,
# while 1/n^2 stayed at 18 000-26 000. So each one adds _LOG_COST float
# terms up to 256 bits and _LOG_COST * (bits/256)^1.5 above.
_LOG_COST = 1500


class SumResult(NamedTuple):
    """One finished summation run.

    value is exactly the windowed sum of the evaluated terms. For tail
    runs truncation_correction carries the fitted remainder beyond the
    last summed index and estimate combines the two; estimate equals
    value for partial sums. estimated_roundoff bounds the float error
    as n_terms * 2^(1-precision_bits) * value.
    """

    n_terms: int
    value: ExtScalar
    estimated_roundoff: ExtScalar
    precision_bits: int = _TERM_BITS
    truncation_correction: ExtScalar | None = None
    note: str = ""
    # Not a field: chunk totals are always accumulated in index order
    # at _ACC_BITS; reports keep the name.
    summation_method = "compensated"

    @property
    def estimate(self) -> ExtScalar:
        if self.truncation_correction is None:
            return self.value
        with nm.mp.workprec(_ACC_BITS):
            total = self.value.as_mpf() + self.truncation_correction.as_mpf()
        return nm.from_value(total)


class RateCheck(NamedTuple):
    """Outcome of fitting a rate prediction against checkpoint sums.

    status is 'pass', 'fail', or 'insufficient-signal'; the last is a
    first-class outcome meaning the template's comparison function
    moves too little over any feasible checkpoint range to measure,
    not that the prediction failed. observed holds the per-step fitted
    values (slopes, exponents, or ratios depending on the template).
    rows holds the (N, S(N)) checkpoint sums the check took; it is
    empty when the check returned before summing.
    """

    template: str
    status: str
    target: float | None
    observed: tuple
    tolerance: float
    checkpoints: tuple
    fitted_constant: float | None = None
    note: str = ""
    rows: tuple = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# -- term compilation ----------------------------------------------------------


# numpy is imported on first use, so commands that never sum (analyze)
# never load it; the arithmetic table therefore names its ufuncs.
_ARITH = {
    ex.Add: "add", ex.Sub: "subtract", ex.Mul: "multiply", ex.Div: "divide",
}

# numpy's power loop swaps in square, sqrt and reciprocal for a broadcast
# exponent of 2, 1/2 and -1, and those round differently from the general
# loop; such exponents stay arrays so every term keeps its bits.
_SHORTCUT_EXPONENTS = (2.0, 0.5, -1.0)


def _compile(e: ex.Expr, shared_n: bool):
    """Build an ndarray evaluator for a bound expression tree.

    Constant + - * / subtrees fold to a float, computed in the tree's own
    float64 order; the result is either that float or a function of the
    index array. Every term comes out bit-identical to evaluating each
    node over whole arrays. shared_n says the index array is read more
    than once, so no node may overwrite it.
    """
    import numpy as np

    if isinstance(e, ex.Const):
        try:
            return float(e.value)
        except OverflowError:
            raise RangeError("a constant overflows float64") from None
    if isinstance(e, ex.Var):
        return lambda x: x
    if isinstance(e, ex.Param):
        raise UnboundParameterError([e.name])
    op = _ARITH.get(type(e))
    if op is not None:
        op = getattr(np, op)
        a, b = _compile(e.left, shared_n), _compile(e.right, shared_n)
        if not callable(a) and not callable(b):
            with np.errstate(all="ignore"):
                return float(op(a, b))
        return _ufunc_node(op, (a, b), shared_n)
    if isinstance(e, ex.Pow):
        a = _as_array(_compile(e.base, shared_n))
        b = _compile(e.exponent, shared_n)
        if not callable(b) and b in _SHORTCUT_EXPONENTS:
            b = _as_array(b)
        return _ufunc_node(np.power, (a, b), shared_n)
    if isinstance(e, ex.Exp):
        return _ufunc_node(
            np.exp, (_as_array(_compile(e.arg, shared_n)),), shared_n
        )
    if isinstance(e, ex.IterLn):
        f = _as_array(_compile(e.arg, shared_n))
        for _ in range(e.count):
            f = _ufunc_node(np.log, (f,), shared_n)
        return f
    raise TypeError(f"cannot compile {e!r}")


def _ufunc_node(ufunc, parts, shared_n: bool):
    """Evaluator applying ufunc to parts, each a float or an evaluator.

    The result overwrites the first operand array that no other node
    reads, which saves allocating (and faulting in) a fresh chunk-sized
    array per node; elementwise ufuncs give the same bits in place.
    """
    import numpy as np

    def f(x):
        args = [p(x) if callable(p) else p for p in parts]
        out = next(
            (v for v in args
             if isinstance(v, np.ndarray) and not (shared_n and v is x)),
            None,
        )
        return ufunc(*args, out=out)

    return f


def _as_array(f):
    """Turn a folded constant into an evaluator filling the index's shape."""
    if callable(f):
        return f
    import numpy as np

    return lambda x: np.full_like(x, f)


def _n_uses(e: ex.Expr) -> int:
    """How many times the index variable n occurs in the tree."""
    return sum(isinstance(x, ex.Var) for x in ex._walk(e))


def _chunk_evaluator(term):
    """Map an index array to term values, choosing the fastest route."""
    import numpy as np

    if isinstance(term, cr.ExprTerm):
        e = term.expression
        fn = _as_array(_compile(e, shared_n=_n_uses(e) > 1))

        def f(idx, _fn=fn):
            with np.errstate(all="ignore"):
                return _fn(idx)

        return f
    # Callable source: try a vectorized call once, else loop.
    probe = np.array([101.0, 102.0])
    try:
        out = term.fn(probe)
        vectorized = (
            isinstance(out, np.ndarray) and out.shape == probe.shape
        )
    except Exception:
        vectorized = False
    if vectorized:
        def f(idx):
            with np.errstate(all="ignore"):
                return np.asarray(term.fn(idx), dtype=np.float64)

        return f

    def f(idx):
        fn = term.fn
        return np.array([fn(int(i)) for i in idx], dtype=np.float64)

    return f


def _chunk_total(evaluate, text: str, lo: int, hi: int) -> float:
    """Evaluate the terms n = lo..hi and return their float64 total.

    The total comes first; the full scan for bad terms runs only when it
    is not finite or some term is negative, and names the first bad index.
    """
    import numpy as np

    vals = evaluate(np.arange(lo, hi + 1, dtype=np.float64))
    with np.errstate(all="ignore"):
        total = float(np.sum(vals))
        if math.isfinite(total) and not vals.min() < 0:
            return total
    # Exact zeros are tolerated: far tails of fast-decaying terms
    # underflow float64 and contribute nothing.
    if not np.isfinite(vals).all():
        j = int(np.argmin(np.isfinite(vals)))
        raise RangeError(
            f"{text}: term at n={lo + j} is not finite in float64"
        )
    if (vals < 0).any():
        j = int(np.argmax(vals < 0))
        raise PositivityViolation(f"{text}: term at n={lo + j} is negative")
    raise RangeError(
        f"{text}: the sum of the terms n={lo}..{hi} overflows float64"
    )


def _spans(n0: int, N: int, cuts) -> list:
    """Chunk ranges (lo, hi, at_cut) covering [n0, N] in order."""
    spans = []
    ci = 0
    lo = n0
    while lo <= N:
        hi = min(lo + CHUNK - 1, N)
        # Stop a chunk early at a cut so the running total is exact
        # at every requested index.
        at_cut = ci < len(cuts) and lo <= cuts[ci] <= hi
        if at_cut:
            hi = cuts[ci]
            ci += 1
        spans.append((lo, hi, at_cut))
        lo = hi + 1
    return spans


def _chunk_totals(total_of, spans) -> list:
    """Chunk totals in span order, at most `workers` chunks in flight.

    numpy releases the GIL inside its loops, so chunks evaluate in
    parallel on threads; the window bounds memory and stops a failing
    run within one window, raising the first failing chunk's error.
    """
    workers = min(os.cpu_count() or 1, _MAX_WORKERS)
    if workers == 1 or len(spans) == 1:
        return [total_of(lo, hi) for lo, hi, _ in spans]
    from concurrent.futures import ThreadPoolExecutor

    totals = []
    window = deque()
    with ThreadPoolExecutor(workers) as pool:
        for lo, hi, _ in spans:
            if len(window) == workers:
                totals.append(window.popleft().result())
            window.append(pool.submit(total_of, lo, hi))
        totals += [f.result() for f in window]
    return totals


def _start_index(term) -> int:
    try:
        v = nm.from_value(term.n_start).as_mpf()
    except RangeError:
        raise RangeError(
            "the sequence's first index is beyond summation range"
        )
    if v > 10**14:
        raise RangeError(
            "the sequence's first index is beyond any summation budget"
        )
    return int(nm.mp.ceil(v))


def _log_exp_ops(e: ex.Expr) -> int:
    """The logs and exps one evaluation of e takes: k for a k-fold log,
    one for exp, two for a power other than a small integer one."""
    ops = 0
    for x in ex._walk(e):
        if isinstance(x, ex.IterLn):
            ops += x.count
        elif isinstance(x, ex.Exp):
            ops += 1
        elif isinstance(x, ex.Pow):
            r = ex._const_fold(x.exponent)
            if (r is None or r.denominator != 1
                    or abs(r) > nm.INT_POWER_LIMIT):
                ops += 2
    return ops


def _precise_cost(term, bits: int) -> int:
    """Float terms charged for one term evaluated at bits > 53."""
    if not isinstance(term, cr.ExprTerm):
        return _PRECISE_COST
    each = math.ceil(_LOG_COST * max(1.0, bits / 256) ** 1.5)
    return _PRECISE_COST + _log_exp_ops(term.expression) * each


def _run(term, n0: int, N: int, budget: int, cuts=(),
         bits: int = _TERM_BITS):
    """Sum a_n for n in [n0, N], recording totals at the cut indices.

    Returns (final total, [(cut, running total)], n_terms), everything
    in mpf at the accumulator precision. Above 53 bits the terms are
    evaluated one by one in _run_precise instead, which takes no cuts.
    """
    if N < n0:
        raise ValueError(f"empty summation range [{n0}, {N}]")
    n_terms = N - n0 + 1
    cost = _precise_cost(term, bits) if bits > _TERM_BITS else 1
    if n_terms * cost > budget:
        each = f" at {bits} bits ({cost} float terms each)" if cost > 1 else ""
        raise BudgetExceededError(
            f"{n_terms} term evaluations{each} exceed the budget of {budget}"
        )
    if bits > _TERM_BITS:
        return _run_precise(term, n0, N, bits)
    cuts = sorted(set(int(c) for c in cuts))
    evaluate = partial(_chunk_total, _chunk_evaluator(term), term.text)
    spans = _spans(n0, N, cuts)
    mp = nm.mp
    with mp.workprec(_ACC_BITS):
        # Terms are evaluated at the accumulator precision (it matters to
        # callables that use mpmath), but only this thread touches mpf
        # values: the context is process-wide, and accumulating in chunk
        # order keeps every bit independent of the worker count.
        totals = _chunk_totals(evaluate, spans)
        running = mp.mpf(0)
        at_cuts = []
        for (_, hi, at_cut), t in zip(spans, totals):
            running += mp.mpf(t)
            if at_cut:
                at_cuts.append((hi, running))
        return running, at_cuts, n_terms


def _run_precise(term, n0: int, N: int, bits: int):
    """Per-term high-precision path; meant for modest ranges only."""
    with nm.local_precision(bits), nm._Working():
        running = nm.mp.mpf(0)
        for n in range(n0, N + 1):
            v = term.term(nm.from_value(n))
            if v.sign < 0:
                raise PositivityViolation(
                    f"{term.text}: term at n={n} is negative"
                )
            running += v.as_mpf()
        return running, [], N - n0 + 1


def _window(term, n0: int, N: int, budget: int, precision: int) -> SumResult:
    """Sum the terms n0..N, each evaluated at max(precision, 53) bits."""
    bits = max(precision, _TERM_BITS)
    total, _, n_terms = _run(term, n0, N, budget, bits=bits)
    mp = nm.mp
    with mp.workprec(_ACC_BITS):
        roundoff = mp.mpf(n_terms) * mp.mpf(2) ** (1 - bits) * abs(total)
    return SumResult(
        n_terms=n_terms,
        value=nm.from_value(total),
        estimated_roundoff=nm.from_value(roundoff),
        precision_bits=bits,
    )


# -- public operations ----------------------------------------------------------


def partial_sum(seq, N, budget: int = DEFAULT_BUDGET,
                precision: int = _TERM_BITS, params=None) -> SumResult:
    """Sum the terms from the sequence's first index through N."""
    term = cr._as_term(seq, params)
    return _window(term, _start_index(term), int(N), budget, precision)


def _fitted_remainder(term, N: int):
    """Remainder beyond N from a locally fitted power decay.

    Fits p from the term values at N/2 and N and integrates the power
    tail; valid when the fit shows clear decay (p well below -1). The
    estimate is first order: slowly varying log factors in the terms
    shift the effective constant, so this is a correction, not a bound
    certificate.
    """
    try:
        with nm.local_precision(_ACC_BITS):
            aN = term.term(nm.from_value(N))
            aM = term.term(nm.from_value(N // 2))
    except cr._SKIP:
        return None, "tail fit unavailable at the last checkpoint"
    with nm.local_precision(_ACC_BITS):
        fa, fm = nm.to_float(aN), nm.to_float(aM)
        if not (fa > 0 and fm > 0) or math.isinf(fa) or math.isinf(fm):
            return None, "tail fit unavailable at the last checkpoint"
        p = math.log(fa / fm) / math.log(N / (N // 2))
        if p >= -1.05:
            return None, (
                f"fitted local exponent {p:.3f} too close to -1 for a "
                "power-tail remainder"
            )
        rem = fa * N / (-1 - p)
    return nm.mp.mpf(rem), ""


def tail_sum(seq, n, N, budget: int = DEFAULT_BUDGET,
             precision: int = _TERM_BITS, params=None) -> SumResult:
    """Sum the terms from n through N, inclusive of both ends; n may not
    be below the sequence's first index.

    The result's truncation_correction carries a fitted remainder for
    the terms beyond N (local power fit at N, integrated); when the fit
    shows no clear decay the correction is absent and a note says why.
    """
    term = cr._as_term(seq, params)
    n, N = int(n), int(N)
    if not n < N:
        raise ValueError("tail window needs n < N")
    start = _start_index(term)
    if n < start:
        raise ValueError(f"tail start {n} is below the first index {start}")
    result = _window(term, n, N, budget, precision)
    rem, note = _fitted_remainder(term, N)
    corr = nm.from_value(rem) if rem is not None else None
    return result._replace(truncation_correction=corr, note=note)


def checkpoint_sums(seq, checkpoints, budget: int = DEFAULT_BUDGET,
                    params=None) -> list:
    """Running totals (N, S(N)) at each checkpoint, from one pass."""
    term = cr._as_term(seq, params)
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ValueError("no checkpoints given")
    start = _start_index(term)
    if cps[0] < start:
        raise ValueError(
            f"checkpoint {cps[0]} is below the first index {start}"
        )
    _, at_cuts, _ = _run(term, start, cps[-1], budget, cuts=cps)
    return [(n, nm.from_value(s)) for n, s in at_cuts]


def write_checkpoints_csv(path, rows) -> None:
    """Write (N, S(N)) pairs as a two-column CSV file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "partial_sum"])
        for n, s in rows:
            writer.writerow([int(n), nm.fmt(s, digits=30)])


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _triple_exponent(w0, w1, x0, x1, x2):
    """Exponent q fitting two adjacent tail windows.

    A tail following c * exp(q * x) in the comparison log x leaves
    windows W_k = c (e^{q x_k} - e^{q x_{k+1}}) between checkpoints, so
    the ratio W_{k+1}/W_k pins q without knowing the unsummable total.
    Returns None when the observed ratio falls outside the family.
    """
    target = w1 / w0
    xm = x1  # center to keep the exponentials in range
    def f(q):
        e0 = math.exp(q * (x0 - xm))
        e1 = 1.0
        e2 = math.exp(q * (x2 - xm))
        return (e1 - e2) / (e0 - e1)
    a, b = -60.0, -1e-9
    fa, fb = f(a), f(b)
    if not min(fa, fb) <= target <= max(fa, fb):
        return None
    for _ in range(100):
        mid = 0.5 * (a + b)
        if (f(mid) - target) * (fb - target) <= 0:
            a = mid
        else:
            b, fb = mid, f(mid)
    return 0.5 * (a + b)


def _slow_log_constant(w, cps, absc, sums) -> float:
    """C of the least-squares fit S(N) = C*x + c0 + c1*e1(N) over the
    checkpoints, with x = ln w(N) and e1 = N dw(N)/w(N).

    e1 is the scale's own drift (about 1/ln N for w = ln). It takes up
    the correction that a shifted or rescaled argument leaves in
    S(N) - C ln w(N), which vanishes too slowly for the last slope to
    reach C by N = 10^7: for 1/((2n+1) ln(2n+1)) it is about
    (ln 2/2)/ln N.
    """
    e1 = []
    for c in cps:
        n = nm.from_value(c)
        e1.append(nm.to_float(nm.ext_div(nm.ext_mul(n, w.delta(n)),
                                         w.value(n))))
    return lm._least_squares(sums, list(zip(absc, e1)))[1]


def slope_check(seq, prediction, checkpoints, tolerance: float | None = None,
                budget: int = DEFAULT_BUDGET, params=None) -> RateCheck:
    """Fit the predicted growth template against checkpoint sums.

    The slow-log template reports consecutive slopes of S(N) against
    ln w(N) and compares the predicted constant with C fitted from
    S(N) = C ln w(N) + c0 + c1 e1(N). The log-ratio and
    log-log templates fit consecutive slopes of ln(sum) against the
    template's comparison log, targeting order + 1; their tail forms
    fit the exponent from the ratios of adjacent checkpoint windows.
    Precise templates report the ratio of the sum to the predicted
    value, targeting 1; precise-tail works on S(last) - S(N) plus a
    fitted remainder. tolerance defaults to the template's own:
    0.001 precise, 0.02 slow-log, 0.05 log-ratio and log-log.
    """
    term = cr._as_term(seq, params)
    cps = sorted(set(int(c) for c in checkpoints))
    if len(cps) < 3:
        raise ValueError("slope_check needs at least 3 checkpoints")
    template = prediction.template
    ratio_fit = template.startswith(("log-ratio-", "log-log-"))
    slow = template == "slow-log"
    precise = template in ("precise-tail", "precise-partial")
    if not (ratio_fit or slow or precise):
        raise ValueError(f"no fit procedure for template {template!r}")
    if tolerance is None:
        tolerance = _TOLERANCE.get(template, _RATIO_TOLERANCE)
    tail = prediction.sum_kind == "tail"
    rows = ()

    def result(status, target=None, observed=(), used=cps, fitted=None,
               note=""):
        return RateCheck(
            template=template,
            status=status,
            target=target,
            observed=tuple(observed),
            tolerance=tolerance,
            checkpoints=tuple(used),
            fitted_constant=fitted,
            note=note,
            rows=tuple(rows),
        )

    if not precise:
        absc = [nm.to_float(prediction.normalizer(c)) for c in cps]
        moved = absc[-1] - absc[0]
        if not all(math.isfinite(x) for x in absc) or moved < SIGNAL_EFOLDS:
            return result(
                "insufficient-signal",
                note=f"comparison log moves {moved:.3f} e-folds over the "
                     f"checkpoints, below the {SIGNAL_EFOLDS} needed to fit",
            )
    if ratio_fit:
        if prediction.exponent is None:
            return result("insufficient-signal",
                          note="prediction carries no exponent")
        target = nm.to_float(prediction.exponent)
    if slow:
        if prediction.constant is None:
            return result("insufficient-signal",
                          note="prediction carries no constant")
        target = nm.to_float(prediction.constant)

    rows = checkpoint_sums(term, cps, budget=budget)
    sums = [nm.to_float(s) for _, s in rows]

    if precise:
        used, vals, note = cps, sums, ""
        if tail:
            rem, note = _fitted_remainder(term, cps[-1])
            rem = float(rem) if rem is not None else 0.0
            used = cps[:-1]
            vals = [sums[-1] - s + rem for s in sums[:-1]]
            if any(v <= 0 for v in vals):
                return result("insufficient-signal",
                              note="tail window vanishes at these checkpoints")
        preds = [nm.to_float(prediction.predicted_sum(term, c)) for c in used]
        if any(not math.isfinite(p) or p <= 0 for p in preds):
            return result("insufficient-signal",
                          note="prediction not evaluable at the checkpoints")
        observed = [v / p for v, p in zip(vals, preds)]
        ok = _rel_err(observed[-1], 1.0) <= tolerance
        return result("pass" if ok else "fail", 1.0, observed, used,
                      note=note)

    if ratio_fit and tail:
        # The total is not summable at budget, so fit the checkpoint
        # windows instead; their ratios pin the tail exponent without
        # an additive remainder estimate.
        wins = [b - a for a, b in zip(sums, sums[1:])]
        if any(w <= 0 for w in wins):
            return result("insufficient-signal",
                          note="tail windows vanish at these checkpoints")
        observed = []
        for k in range(len(wins) - 1):
            q = _triple_exponent(
                wins[k], wins[k + 1], absc[k], absc[k + 1], absc[k + 2]
            )
            if q is None:
                return result(
                    "fail", target,
                    note="window ratios fall outside the decaying "
                         "template family",
                )
            observed.append(q)
    else:
        series = sums if slow else [math.log(v) for v in sums]
        observed = [
            (b - a) / (y - x)
            for a, b, x, y in zip(series, series[1:], absc, absc[1:])
        ]

    if slow:
        fitted = _slow_log_constant(prediction.scale, cps, absc, sums)
        ok = _rel_err(fitted, target) <= tolerance
        return result("pass" if ok else "fail", target, observed,
                      fitted=fitted)
    ok = abs(observed[-1] - target) <= tolerance * max(1.0, abs(target))
    return result("pass" if ok else "fail", target, observed)
