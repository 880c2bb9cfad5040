"""Convergence decisions for positive series.

Every test in this module compares some order statistic of the terms
against the boundary value -1: ratio increments, logs of the terms
against logs of a scale function, and an escalation hierarchy that
peels one iterated-log layer per level when the previous level landed
exactly on the boundary.

Statistics are carried as exact-coefficient combinations of iterated
logarithms (see expr.LogCombo) plus pointwise corrections that vanish
at infinity. The escalation cancellations therefore happen in exact
rational arithmetic; floating point only enters through residual
subexpressions and through the limit estimator.

The ladder uses three statistics: the Raabe increment, the log
quotient at a scale and escalation level, and ln g for slow
divergence. Each is one _Statistic (its exact limit when the log split
gives one, its grid, its sampler), and one runner, _measure, turns any
of them into a limit estimate: exactly when it can, else by sampling
the grid with n+1 companions, vetoing on pair spread, and fitting the
limit with the drift terms the sampler reports. The tests differ only
in how they read that estimate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from . import expr as ex
from . import limits as lm
from . import numeric as nm
from . import scale as sc
from .errors import (
    CancellationError,
    DivisionByZero,
    DomainError,
    PositivityViolation,
    RangeError,
)
from .expr import LogCombo
from .numeric import ExtScalar

__all__ = [
    "DECIDE_MARGIN",
    "TermSource",
    "ExprTerm",
    "CallableTerm",
    "RatePrediction",
    "Verdict",
    "AnalysisPolicy",
    "AnalysisReport",
    "raabe_test",
    "scaled_log_test",
    "slow_divergence_test",
    "hierarchy_test",
    "one_sided_test",
    "analyze",
]

DECIDE_MARGIN = Fraction(1, 1000)

# Shared scales and coefficient default; none is ever changed.
_SCALE_N, _SCALE_LN = sc.IterLog(0), sc.IterLog(1)
_ZERO = Fraction(0)

# Grids never sample below this index, so finitely many leading terms
# (indices 1..100) can be modified without touching any statistic.
_GRID_FLOOR = 101


# -- term sources -------------------------------------------------------------


class TermSource:
    """Where the terms a_n come from.

    Implementations supply positive values at integer (or extended)
    indices and, when the sequence has an exact product-of-logs
    structure, the split of ln a_n used by the symbolic decision path.
    sampled_log_combo is the split a sampler evaluates pointwise, with
    the vanishing parts that log_combo may leave out.
    """

    text: str = "<terms>"

    @property
    def n_start(self) -> int | ExtScalar:
        """The first index: an int, or an ExtScalar past 1e15."""
        raise NotImplementedError

    def term(self, n: ExtScalar) -> ExtScalar:
        raise NotImplementedError

    def log_combo(self) -> LogCombo | None:
        return None

    def sampled_log_combo(self) -> LogCombo | None:
        return self.log_combo()


class ExprTerm(TermSource):
    """Terms defined by a parsed expression with all parameters bound.

    The term must be positive from n_start on. Two readings of the tree
    prove it without evaluating anything: an exact leader from
    expr.to_log_power (the term is q * n^p0 * (ln n)^p1 * ... with
    rational q > 0) and expr.proves_positive (positive constants, n, and
    iterated logs of rising arguments, combined by sums, products,
    quotients and n-free powers). Both rest on one argument: from
    n_start = domain_start on, every iterated log of n in the tree is
    past its threshold exp^k(1) * (1 + 1e-6) and stays past it, so every
    factor is positive. Any other term (differences, exp, a negative
    coefficient) is sampled by expr.check_positive, which may reject it.
    The proofs hold only from n_start on (lnln(n) is exact but negative
    at n = 2), so they live here and not in check_positive.

    Each reading takes the tree once. domain_start reads the start of
    ln, lnln and lnlnln of n or of n + b (integer b) from constants. The
    positive leader that to_log_power returns is kept, and log_combo
    is its split, ln q + p0 ln n + p1 lnln n + ..., read without the
    tree. An inexact leader leaves a vanishing part, ln(a_n / leader),
    that only a sampler reads: sampled_log_combo is then the full split
    linearize(log_transform(e)), built once. A term with no leader has
    only the full split.
    """

    def __init__(self, expression, params=None, text=None):
        if isinstance(expression, str):
            if text is None:
                text = expression
            expression = ex.parse(expression)
        self.params = {
            k: ex._as_fraction(v) for k, v in (params or {}).items()
        }
        bound = ex.bind(expression, self.params)
        self.expression = bound
        self.text = text if text is not None else ex.format_expr(bound)
        self._n_start = ex.domain_start(bound)
        self._lead = ex.to_log_power(bound)
        exact = self._lead is not None and self._lead.exact
        if not exact and not ex.proves_positive(bound):
            ex.check_positive(bound, self._n_start)
        self._combo: LogCombo | None = None
        self._sampled: LogCombo | None = None

    @property
    def n_start(self) -> int | ExtScalar:
        return self._n_start

    def term(self, n: ExtScalar) -> ExtScalar:
        return ex.eval_expr(self.expression, n)

    def log_combo(self) -> LogCombo:
        if self._combo is None:
            if self._lead is None:
                self._combo = ex.linearize(ex.log_transform(self.expression))
            else:
                self._combo = ex._lead_combo(self._lead, [])
        return self._combo

    def sampled_log_combo(self) -> LogCombo:
        if self._lead is None or self._lead.exact:
            return self.log_combo()
        if self._sampled is None:
            self._sampled = ex.linearize(ex.log_transform(self.expression))
        return self._sampled


class CallableTerm(TermSource):
    """Terms supplied by a Python callable on integer indices.

    No exact log split is available, so every test runs numerically on
    plain integer grids.
    """

    def __init__(self, fn: Callable[[int], object], n_start: int = 1,
                 text: str = "<callable>"):
        self.fn = fn
        self.text = text
        n_start = int(n_start)
        if n_start < 1:
            raise ValueError("n_start must be at least 1")
        self._n_start = n_start
        for probe in (n_start, n_start + 1, 10 * (n_start + 1)):
            self.term(nm.from_value(probe))

    @property
    def n_start(self) -> int:
        return self._n_start

    def term(self, n: ExtScalar) -> ExtScalar:
        if n.level > 0 or n.as_mpf() > 2**62:
            raise RangeError(
                "callable terms are sampled at plain integer indices only"
            )
        idx = int(n.as_mpf())
        v = nm.from_value(self.fn(idx))
        if v.sign < 0:
            # exact zeros pass: they read as underflowed terms, and the
            # log machinery skips those grid points on its own
            raise PositivityViolation(
                f"{self.text} is not positive at n={idx}"
            )
        return v


def _as_term(seq, params=None) -> TermSource:
    if isinstance(seq, TermSource):
        return seq
    if isinstance(seq, (str, ex.Expr)):
        return ExprTerm(seq, params)
    if callable(seq):
        return CallableTerm(seq)
    raise TypeError(f"not a term source: {seq!r}")


# -- rate predictions ----------------------------------------------------------

_TAIL_TEMPLATES = frozenset({"precise-tail", "log-ratio-tail", "log-log-tail"})
_RATIO_PREFIXES = ("log-ratio-", "log-log-")


class RatePrediction(NamedTuple):
    """How the partial or tail sums grow, according to the deciding test.

    Templates:
      precise-tail      sum from n on  ~ (-1/(1+order)) * (w(n)/dw(n)) * a_n
      precise-partial   sum up to n    ~ ( 1/(1+order)) * (w(n)/dw(n)) * a_n
      log-ratio-tail    ln(tail sum)    / ln w(n)              -> order + 1
      log-ratio-partial ln(partial sum) / ln w(n)              -> order + 1
      log-log-tail      ln(tail sum)    / (level+1)-fold log w -> order + 1
      log-log-partial   ln(partial sum) / (level+1)-fold log w -> order + 1
      slow-log          partial sums ~ constant * ln w(n)

    On the exact route order and constant are the Fractions exact_order
    and exact_constant.
    """

    template: str
    scale: sc.ScaleFn
    level: int = 0
    order: Fraction | ExtScalar | None = None
    exact_order: Fraction | None = None
    constant: Fraction | ExtScalar | None = None
    exact_constant: Fraction | None = None

    @property
    def sum_kind(self) -> str:
        """Which sum the prediction is about: 'tail' or 'partial'."""
        return "tail" if self.template in _TAIL_TEMPLATES else "partial"

    @property
    def exponent(self) -> Fraction | ExtScalar | None:
        """Predicted limit of ln(sum)/normalizer for the ratio templates."""
        if not self.template.startswith(_RATIO_PREFIXES):
            return None
        if self.exact_order is not None:
            return self.exact_order + 1
        if self.order is None:
            return None
        return nm.ext_add(self.order, nm.ONE)

    def normalizer(self, n) -> ExtScalar:
        """The comparison function at n: the (level+1)-fold log of the scale."""
        return ex.eval_expr(self.scale.ln_chain(self.level + 1), nm.from_value(n))

    def predicted_sum(self, term: TermSource, n) -> ExtScalar | None:
        """Asymptotic sum value at n for templates that pin one down."""
        n = nm.from_value(n)
        if self.template in ("precise-tail", "precise-partial"):
            if self.exact_order is not None:
                th = nm.from_value(self.exact_order)
            else:
                th = self.order
            lead = nm.ext_div(self.scale.value(n), self.scale.delta(n))
            base = nm.ext_mul(lead, term.term(n))
            coef = nm.ext_div(nm.ONE, nm.ext_add(nm.ONE, th))
            if self.template == "precise-tail":
                coef = nm.ext_neg(coef)
            return nm.ext_mul(coef, base)
        if self.template == "slow-log" and self.constant is not None:
            return nm.ext_mul(
                nm.from_value(self.constant),
                ex.eval_expr(self.scale.ln_chain(1), n),
            )
        return None


# -- verdicts -------------------------------------------------------------------


class Verdict(NamedTuple):
    """Outcome of one test: a decision plus the statistic behind it.

    statistic holds the estimate of the test's limit; for the
    slow-divergence tests it is the limit of ln(w * a_n / dw), not a
    quantity compared against -1. exact_value is set when the symbolic
    path produced the statistic as an exact rational. one_sided marks
    decisions justified by an envelope or an unbounded statistic rather
    than a two-sided limit.
    """

    decision: str
    test_id: str
    scale: sc.ScaleFn | None
    level: int
    statistic: lm.LimitEstimate
    rate: RatePrediction | None = None
    exact_value: Fraction | None = None
    one_sided: bool = False
    reason: str = ""
    notes: tuple = ()

    @property
    def decisive(self) -> bool:
        return self.decision in ("converges", "diverges")


class AnalysisPolicy:
    """Knobs for analyze(); the defaults mirror the CLI."""

    __slots__ = ("scale", "k_max", "backend")

    def __init__(self, scale: sc.ScaleFn | None = None, k_max: int = 4,
                 backend: str = "auto"):
        if backend not in ("auto", "numeric"):
            raise ValueError(f"unknown backend {backend!r}")
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        # Level j divides by the (j+1)-fold log of the scale; at w = ln n
        # that is the (j+2)-fold log of n, whose tower grid must fit
        # under the tower cap.
        limit = nm.MAX_TOWER_LEVEL - 2
        if k_max > limit:
            raise ValueError(
                f"k_max={k_max} exceeds the tower budget (max {limit})"
            )
        self.scale, self.k_max, self.backend = scale, k_max, backend


class AnalysisReport(NamedTuple):
    """Everything analyze() learned about one series."""

    sequence: str
    params: dict
    backend: str
    trace: list
    final: Verdict
    warnings: list


def _ln_float(x: ExtScalar) -> float:
    """ln x for x > 0 as a float, inf past the float range."""
    try:
        return float(nm.mp.log(x.mag) if x.level == 0
                     else nm.ext_ln(x).as_mpf())
    except RangeError:
        return math.inf


def _index_drift(n: ExtScalar):
    """1/ln n and 1/(ln n lnln n): the error terms of the Raabe
    statistic, with ln n floored at e."""
    ln_n = max(_ln_float(n), math.e)
    return 1 / ln_n, 1 / (ln_n * math.log(ln_n))


def _quotient_drift(d: ExtScalar):
    """ln d/d and lnln d/d: the next hierarchy terms of a quotient with
    denominator d > 0, the second read as 0 where ln d <= 0.

    Neither term is floored: on a plain grid at w = ln every point below
    n = 3.8e6 has d = lnln n < e, and a floored ln d would fit the drift
    1/d there instead of ln d/d.
    """
    ln_d = _ln_float(d)
    if math.isinf(ln_d):
        return 0.0, 0.0
    try:
        inv = math.exp(-ln_d)
    except OverflowError:  # d below 1/DBL_MAX; the fit then reads no limit
        inv = math.inf
    return ln_d * inv, math.log(ln_d) * inv if ln_d > 0 else 0.0


def _index_bits(n: ExtScalar) -> int:
    v = abs(n.as_mpf())
    return max(1, int(nm.mp.log(v + 2, 2)) + 1)


# The splits of the depth-fold logs of the scales the CLI names (n to
# lnlnlnln), at every depth a policy reaches (k_max + 1), built at import
# so that every call reads the same shared combos; nothing changes them.
_CHAIN_COMBOS = {
    (w, depth): ex.linearize(w.ln_chain(depth))
    for w in map(sc.IterLog, range(5))
    for depth in range(1, nm.MAX_TOWER_LEVEL)
}


def _chain_combo(w: sc.ScaleFn, depth: int) -> LogCombo:
    combo = _CHAIN_COMBOS.get((w, depth))
    return combo if combo is not None else ex.linearize(w.ln_chain(depth))


def _infinite(sign) -> float:
    return math.inf if sign > 0 else -math.inf


def _symbolic_ratio(num: LogCombo, den: LogCombo):
    """Exact limit of num/den along n, when both splits are exact.

    The corrections attached to these statistics vanish at infinity and
    constant parts are dominated by any growing log, so the limit is
    read off the shallowest surviving terms: a shallower numerator term
    forces the ratio to +/- infinity, matching depths give the ratio of
    coefficients, and a deeper numerator (or none) gives 0.

    Returns a Fraction, +/-inf, or None when the exact route does not
    apply.
    """
    if not (num.is_exact and den.is_exact):
        return None
    dl = den.leading()
    if dl is None or dl[1] <= 0:
        return None
    m, s = dl
    nl = num.leading()
    if nl is None or nl[0] > m:
        return Fraction(0)
    if nl[0] == m:
        return nl[1] / s
    return _infinite(nl[1])


def _exact_const_exp(combo: LogCombo) -> Fraction | None:
    """exp(constant part of combo) as an exact rational, when it is one."""
    if combo.const != 0:
        return None
    out = Fraction(1)
    for mult, depth, base in combo.const_logs:
        if depth != 1 or mult.denominator != 1:
            return None
        out *= Fraction(base) ** mult.numerator
    return out


# -- grids ------------------------------------------------------------------------

# Plain grids: _GEOMETRIC_COUNT integer points a factor _GEOMETRIC_RATIO
# apart. Tower grids: _TOWER_COUNT points one unit apart on the
# comparison log.
_GEOMETRIC_RATIO = 10
_GEOMETRIC_COUNT = 10
_TOWER_COUNT = 12


def _n_floor(term: TermSource) -> ExtScalar:
    start, lo = nm.from_value(term.n_start), nm.from_value(_GRID_FLOOR)
    return start if start > lo else lo


def _plain_start(term: TermSource) -> int | None:
    """Integer grid start, or None when the domain begins out of range."""
    nf = _n_floor(term)
    try:
        v = nf.as_mpf()
    except RangeError:
        return None
    if v > 10**14:
        return None
    return int(nm.mp.ceil(v))


def _tower_start(level: int, n_floor: ExtScalar, extra_depth: int):
    """Smallest integer r with exp^level(r) past the floor and the
    deepest numerator log positive, or None when no such grid fits."""
    r0 = 2
    try:
        f = nm.to_float(nm.iter_ln(level, n_floor))
        if math.isinf(f):
            return None
        if f > 1e7:
            return None
        r0 = max(r0, int(math.floor(f)) + 1)
    except (DomainError, RangeError):
        pass  # floor is below the level threshold; r0 = 2 clears it
    if extra_depth > 0:
        mp = nm.mp
        req = mp.mpf("1.000001")
        for _ in range(extra_depth):
            req = mp.exp(req)
            if req > 1e7:
                return None
        r0 = max(r0, int(mp.ceil(req)))
    return r0


def _choose_grid(term: TermSource, tower):
    """Sampling points for a statistic, or None when no grid fits.

    tower is None for a plain integer grid, or (den_depth, num) for a
    tower grid on the den_depth-fold log that also clears every deeper
    log in the numerator combo num.
    """
    if tower is None:
        start = _plain_start(term)
        if start is None:
            return None
        return lm.make_grid(
            lm.Geometric(start, _GEOMETRIC_RATIO, _GEOMETRIC_COUNT)
        )
    den_depth, num = tower
    if den_depth > nm.MAX_TOWER_LEVEL:
        return None
    extra = max((d for d in num.coeffs if d > den_depth), default=den_depth)
    r0 = _tower_start(den_depth, _n_floor(term), extra - den_depth)
    if r0 is None:
        return None
    return lm.make_grid(lm.TowerGeometric(den_depth, r0, 1, _TOWER_COUNT))


# -- the statistic kernel ----------------------------------------------------------

_SKIP = (DomainError, DivisionByZero, RangeError, CancellationError)


class _Statistic(NamedTuple):
    """One ladder statistic: its exact limit, and how to sample it.

    exact is the limit read off an exact log split: a Fraction, a
    constant LogCombo (whose value is the limit), +/-inf, or None when
    there is no exact split. sampling() sets up a sampler only
    when the statistic is sampled, and returns the grid (or None), the
    sampler and the drift: sampler(n) returns the statistic at one point
    and the argument (the point, or the denominator) at which drift
    gives its two error terms.
    """

    exact: object
    sampling: Callable


def _raabe_statistic(term: TermSource) -> _Statistic:
    """n * (a_{n+1}/a_n - 1), sampled from the terms themselves."""
    combo = term.log_combo()
    exact = None
    if combo is not None and combo.is_exact:
        # Exact product of log powers: each factor (k-fold log)^c
        # contributes c to the statistic at depth 1 and only o(1)
        # beyond it, so the limit is the depth-1 coefficient; a
        # depth-0 term means a geometric factor and an infinite limit.
        c0 = combo.coeffs.get(0, _ZERO)
        exact = _infinite(c0) if c0 != 0 else combo.coeffs.get(1, _ZERO)

    def sampling():
        bits = nm.get_precision().significand_bits
        # a(n+1) of a grid point is a(n) of its n+1 companion: each term
        # is evaluated once per index and precision for the sampler.
        memo = {}

        def value(n, precision):
            key = (n.sign, n.level, n.mag, precision)
            v = memo.get(key)
            if v is None:
                v = memo[key] = term.term(n)
            return v

        def sample(n):
            with nm.local_precision(bits + _index_bits(n) + 64) as p:
                # a(n) first: a point whose term is out of range is
                # skipped before n + 1 is formed at the raised precision
                a = value(n, p)
                r = nm.ext_div(value(nm.ext_add(n, nm.ONE), p), a)
                return nm.ext_mul(n, nm.ext_sub(r, nm.ONE)), n

        return _choose_grid(term, None), sample, _index_drift

    return _Statistic(exact, sampling)


def _numerator(tc: LogCombo | None, w: sc.ScaleFn, level: int):
    """The split of ln a_n - ln dw(n) + sum_{i=1..level} i-fold log of
    w(n), the level-th escalation numerator, from tc, the split of
    ln a_n, or None when the term or the scale has none."""
    dc = w.log_delta_combo()
    if tc is None or dc is None:
        return None
    num = tc.merged(dc, -1)
    for i in range(1, level + 1):
        num = num.merged(_chain_combo(w, i), 1)
    return num


def _numerator_value(term: TermSource, w: sc.ScaleFn, level: int, num):
    """value(n, den) of the level-th numerator at n: from its split num
    (see LogCombo.value for den), or from the terms when num is None."""
    if num is not None:
        return lambda n, den=None: nm.ext_sub(num.value(n, den),
                                              w.delta_correction(n))
    chains = [w.ln_chain(i) for i in range(1, level + 1)]

    def sampled(n, den=None):
        nv = nm.ext_sub(nm.ext_ln(term.term(n)), w.log_delta(n))
        for c in chains:
            nv = nm.ext_add(nv, ex.eval_expr(c, n))
        return nv

    return sampled


def _quotient_statistic(term: TermSource, w: sc.ScaleFn,
                        level: int) -> _Statistic:
    """The level-th numerator over the (level+1)-fold log of w(n)."""
    num = _numerator(term.log_combo(), w, level)
    den = _chain_combo(w, level + 1)

    def sampling():
        bits = nm.get_precision().significand_bits
        num = _numerator(term.sampled_log_combo(), w, level)
        value = _numerator_value(term, w, level, num)
        dl = den.leading()
        depth = dl[0] if dl is not None else level + 1
        tower = None if num is None else (depth, num)
        den_value = (den.value if num is not None
                     else partial(ex.eval_expr, w.ln_chain(level + 1)))

        def sample(n):
            with nm.local_precision(bits + 64):
                dv = den_value(n)
                if not dv.sign > 0:
                    raise DomainError("comparison log not yet positive")
                return nm.ext_div(value(n, dv), dv), dv

        return _choose_grid(term, tower), sample, _quotient_drift

    exact = None if num is None else _symbolic_ratio(num, den)
    return _Statistic(exact, sampling)


def _slow_divergence_statistic(term: TermSource,
                               w: sc.ScaleFn) -> _Statistic:
    """ln g(n) with g = w(n) a_n / dw(n): the level-1 numerator."""
    lng = _numerator(term.log_combo(), w, 1)
    lead = lng.leading() if lng is not None else None
    exact = None
    if lng is not None and lng.is_exact:
        exact = lng if lead is None else _infinite(lead[1])

    def sampling():
        bits = nm.get_precision().significand_bits
        lng = _numerator(term.sampled_log_combo(), w, 1)
        value = _numerator_value(term, w, 1, lng)

        def sample(n):
            with nm.local_precision(bits + 64):
                return value(n, nm.ONE), n

        depth = lead[0] if lead is not None and lead[0] >= 1 else 1
        tower = None if lng is None else (depth, lng)
        return _choose_grid(term, tower), sample, _index_drift

    return _Statistic(exact, sampling)


def _pair_spread(a: ExtScalar, b: ExtScalar):
    fa, fb = nm.to_float(a), nm.to_float(b)
    if math.isinf(fa) or math.isinf(fb):
        return 0.0 if (fa > 0) == (fb > 0) else math.inf
    return abs(fb - fa) / (1 + max(abs(fa), abs(fb)))


def _sample_grid(sampler, grid):
    """Primary samples plus n+1 companions at plain points.

    Returns (values, drift_at, interleaved, spreads): values follows the
    grid and drift_at holds the sampler's drift argument for each,
    interleaved also holds the companion samples in order, and spreads
    holds the relative gap of each pair.
    """
    values, drift_at, inter, spreads = [], [], [], []
    for n in grid:
        try:
            v, at = sampler(n)
        except _SKIP:
            continue
        values.append(v)
        drift_at.append(at)
        inter.append(v)
        if n.level == 0:
            try:
                v2, _ = sampler(nm.ext_add(n, nm.ONE))
            except _SKIP:
                continue
            inter.append(v2)
            spreads.append(_pair_spread(v, v2))
    return values, drift_at, inter, spreads


class _Measure(NamedTuple):
    """What the runner learned about a statistic's limit.

    est is None when the signal is insufficient (no grid, or fewer than
    8 samples). exact is the finite exact limit (see _Statistic) when
    the exact route decided it. samples holds every sample in grid
    order, n+1 companions included; it is None on the exact route.
    """

    est: lm.LimitEstimate | None
    exact: object = None
    samples: list | None = None


def _measure(stat: _Statistic, policy: AnalysisPolicy) -> _Measure:
    """Estimate a statistic's limit: exactly when its split allows and
    the backend is not numeric, else by sampling its grid.

    Geometric integer grids can stride over a periodic component of the
    statistic (even indices only, say) and watch a subsequence that
    settles or blows up while the full statistic oscillates. At plain
    points the sampler is therefore also evaluated at n+1, and pair
    spreads beyond the decision margin veto any limit from the strided
    subsequence.
    """
    exact = stat.exact
    if exact is not None and policy.backend != "numeric":
        if isinstance(exact, float):
            return _Measure(lm.LimitEstimate.exact_infinite(
                1 if exact > 0 else -1
            ))
        value = exact
        if isinstance(exact, LogCombo):
            # a constant, kept exact unless it has constant logs
            value = exact.const_value() if exact.const_logs else exact.const
        return _Measure(lm.LimitEstimate.exact(value), exact)
    grid, sampler, drift = stat.sampling()
    if grid is None:
        return _Measure(None, samples=[])
    values, drift_at, inter, spreads = _sample_grid(sampler, grid)
    if len(values) < 8:
        return _Measure(None, samples=inter)
    if spreads and max(spreads[-3:]) > float(DECIDE_MARGIN):
        est = lm.LimitEstimate("not_converged", samples_used=len(values))
    else:
        est = lm.estimate_limit(values, [drift(d) for d in drift_at])
    return _Measure(est, samples=inter)


# -- decisions ----------------------------------------------------------------------


def _decide(est: lm.LimitEstimate, exact: Fraction | None):
    """Side of the -1 boundary, or None when undecided."""
    if est.status == "diverged":
        return "converges" if est.direction < 0 else "diverges"
    if est.status != "converged":
        return None
    if exact is not None:
        if exact == -1:
            return None
        return "converges" if exact < -1 else "diverges"
    return _side(est.value, est.uncertainty)


def _side(value: ExtScalar, uncertainty: ExtScalar):
    """Side of -1 on which value +/- uncertainty lies beyond the
    margin, or None."""
    if nm.ext_add(value, uncertainty) < nm.default_scalar(-1 - DECIDE_MARGIN):
        return "converges"
    if nm.ext_sub(value, uncertainty) > nm.default_scalar(-1 + DECIDE_MARGIN):
        return "diverges"
    return None


def _past_margin(x) -> bool:
    """x > DECIDE_MARGIN: in Fractions for an exact x, at the default
    precision for an ExtScalar."""
    if isinstance(x, ExtScalar):
        return x > nm.default_scalar(DECIDE_MARGIN)
    return x > DECIDE_MARGIN


def _inconclusive(test_id, w, level, est, reason, exact=None, notes=()):
    if est is None:
        est = lm.LimitEstimate("not_converged")
    return Verdict(
        "inconclusive", test_id, w, level, est,
        exact_value=exact, reason=reason, notes=tuple(notes),
    )


def _limit_verdict(m: _Measure, test_id: str, w: sc.ScaleFn | None,
                   level: int, template: str) -> Verdict:
    """Read a two-sided limit against -1.

    A finite limit attaches the rate template (completed by '-tail' or
    '-partial'); an infinite one decides by its sign alone, one-sided.
    """
    est, exact = m.est, m.exact
    if est is None:
        return _inconclusive(test_id, w, level, None, "insufficient-signal")
    decision = _decide(est, exact)
    if decision is None:
        reason = (
            "statistic-at-boundary" if est.status == "converged"
            else "statistic-not-convergent"
        )
        return _inconclusive(test_id, w, level, est, reason, exact)
    if est.status != "converged":
        return Verdict(decision, test_id, w, level, est, one_sided=True)
    rate = RatePrediction(
        template=template + (
            "tail" if decision == "converges" else "partial"
        ),
        scale=w if w is not None else _SCALE_N,
        level=level, order=est.value, exact_order=exact,
    )
    return Verdict(
        decision, test_id, w, level, est, rate=rate, exact_value=exact,
    )


# -- public tests ----------------------------------------------------------------


def raabe_test(seq, policy: AnalysisPolicy | None = None,
               params=None) -> Verdict:
    """Ratio-increment test: the limit of n * (a_{n+1}/a_n - 1).

    Below -1 the series converges with tail sums ~ -n a_n/(1+order);
    above -1 it diverges with partial sums ~ n a_n/(1+order); at -1
    nothing follows and the scale tests take over.
    """
    policy = policy or AnalysisPolicy()
    term = _as_term(seq, params)
    m = _measure(_raabe_statistic(term), policy)
    return _limit_verdict(m, "raabe", None, 0, "precise-")


def scaled_log_test(seq, w: sc.ScaleFn, policy: AnalysisPolicy | None = None,
                    params=None) -> Verdict:
    """Limit of ln(a_n / dw(n)) / ln w(n) against the -1 boundary.

    dw(n) = w(n+1) - w(n). Decisive values attach the log-ratio rate:
    ln of the partial (or tail) sums over ln w(n) tends to order + 1.
    The increment makes the statistic exact for scale-matched sequences
    and feeds the escalation hierarchy when the limit lands on -1.
    """
    policy = policy or AnalysisPolicy()
    term = _as_term(seq, params)
    m = _measure(_quotient_statistic(term, w, 0), policy)
    return _limit_verdict(m, "scaled-log", w, 0, "log-ratio-")


_SLOW = "slow-divergence"


def slow_divergence_test(seq, w: sc.ScaleFn,
                         policy: AnalysisPolicy | None = None,
                         params=None) -> Verdict:
    """Growth of g(n) = w(n) a_n / dw(n) when the scaled-log limit is -1.

    If ln g settles to ln C the series diverges with partial sums
    ~ C ln w(n). A sampled limit counts only when its drift is within
    the margin: ln g drifting like an iterated log fits a limit with a
    large uncertainty, and the hierarchy reads that drift instead.
    """
    policy = policy or AnalysisPolicy()
    m = _measure(_slow_divergence_statistic(_as_term(seq, params), w), policy)
    est = m.est
    if (est is None or est.status != "converged"
            or _past_margin(est.uncertainty)):
        return _slow_undecided(m, w)
    exact_c = _exact_const_exp(m.exact) if m.exact is not None else None
    c = (exact_c if exact_c is not None
         else nm.ext_exp(nm.from_value(est.value)))
    rate = RatePrediction(
        template="slow-log", scale=w, constant=c, exact_constant=exact_c,
    )
    return Verdict("diverges", _SLOW, w, 0, est, rate=rate,
                   exact_value=exact_c)


def _slow_undecided(m: _Measure, w: sc.ScaleFn) -> Verdict:
    est = m.est
    if est is None:
        reason = "insufficient-signal"
    elif est.status == "diverged" and est.direction < 0:
        reason = "term-to-increment-ratio-vanishes"
    elif est.status == "converged":
        reason = "deferred"
    else:
        reason = "statistic-not-convergent"
    return _inconclusive(_SLOW, w, 0, est, reason)


def _zero_statistic_note(level: int) -> str:
    return (
        f"level-{level} statistic is 0, so the predicted exponent of "
        f"ln(partial sums) over the level-{level + 1} log of the scale "
        "is 0 + 1 = 1; the value 0 is sometimes quoted for this limit, "
        "but the partial sums grow like the comparison log itself, "
        "which makes the normalized limit 1"
    )


def hierarchy_test(seq, w: sc.ScaleFn, policy: AnalysisPolicy | None = None,
                   params=None) -> list:
    """Escalation levels 1..policy.k_max of the scaled-log statistic.

    Level j adds the j-th iterated log of w(n) to the numerator and
    compares against the (j+1)-fold log: the level-j limit below -1
    gives convergence, above -1 divergence, and exactly -1 escalates to
    level j+1. Returns the levels run: the last one decides, unless no
    level does.
    """
    policy = policy or AnalysisPolicy()
    term = _as_term(seq, params)
    levels = []
    for j in range(1, policy.k_max + 1):
        m = _measure(_quotient_statistic(term, w, j), policy)
        v = _limit_verdict(m, "hierarchy", w, j, "log-log-")
        if v.decision == "diverges" and _is_zero_statistic(v):
            v = v._replace(notes=v.notes + (_zero_statistic_note(j),))
        levels.append(v)
        if v.decisive or v.reason != "statistic-at-boundary":
            break  # deeper levels assume this one landed exactly on -1
    return levels


def _is_zero_statistic(v: Verdict) -> bool:
    if v.exact_value is not None:
        return v.exact_value == 0
    est = v.statistic
    if est.status != "converged":
        return False
    return abs(est.value) < nm.default_scalar(DECIDE_MARGIN)


def one_sided_test(seq, w: sc.ScaleFn, policy: AnalysisPolicy | None = None,
                   params=None) -> Verdict:
    """Envelope version of the scaled-log test for oscillating statistics.

    The upper envelope settling below -1 proves convergence; the lower
    envelope settling above -1 proves divergence. No rate is claimed in
    either case.
    """
    policy = policy or AnalysisPolicy()
    term = _as_term(seq, params)
    stat = _quotient_statistic(term, w, 0)
    return _envelope_verdict(_measure(stat, policy), w)


def _oscillates(values) -> bool:
    """True when the sample differences change sign."""
    signs = {nm.ext_cmp(b, a) for a, b in zip(values, values[1:])}
    return {-1, 1} <= signs


def _envelope_verdict(m: _Measure, w: sc.ScaleFn) -> Verdict:
    """The one-sided reading of a scaled-log measure at w.

    A fit that found a limit or a divergence gives the reading. Suffix
    envelopes stand in only when the sample differences change sign:
    the suffix maximum of a monotone sequence is just its last sample.
    Only an envelope whose limit is certified decides; samples that
    merely stay on one side of -1 bound nothing past the grid.
    """
    if m.est is None or m.est.status != "not_converged":
        # A limit (exact or fitted) bounds both envelopes, so the
        # two-sided verdict carries over.
        v = _limit_verdict(m, "one-sided", w, 0, "log-ratio-")
        return v._replace(one_sided=True)
    if not _oscillates(m.samples):
        return _inconclusive(
            "one-sided", w, 0, m.est, "statistic-not-convergent"
        )
    sup_est, inf_est = lm.estimate_limsup_liminf(m.samples)
    for decision, est, note in (("converges", sup_est, "upper envelope"),
                                ("diverges", inf_est, "lower envelope")):
        if _decide(est, None) == decision:
            return Verdict(decision, "one-sided", w, 0, est,
                           one_sided=True, notes=(note,))
    return _inconclusive(
        "one-sided", w, 0, sup_est, "envelopes-straddle-boundary"
    )


# -- the ladder -------------------------------------------------------------------


def _scale_rungs(term, w, policy, trace):
    """Scaled-log at w, then slow divergence and escalation on a
    boundary limit, then the envelopes.

    The envelope row reads the scaled-log measure, which is taken once.
    """
    m = _measure(_quotient_statistic(term, w, 0), policy)
    v = _limit_verdict(m, "scaled-log", w, 0, "log-ratio-")
    trace.append(v)
    if v.decisive:
        return v
    if v.reason == "statistic-at-boundary":
        v = slow_divergence_test(term, w, policy)
        trace.append(v)
        if v.decisive:
            return v
        levels = hierarchy_test(term, w, policy)
        trace.extend(levels)
        if levels and levels[-1].decisive:
            return levels[-1]
    v = _envelope_verdict(m, w)
    trace.append(v)
    return v if v.decisive else None


def analyze(seq, policy: AnalysisPolicy | None = None,
            params=None) -> AnalysisReport:
    """Run the decision ladder and collect the full trace.

    With no pinned scale: ratio-increment test, then the scaled-log
    test against n, then against ln n; a boundary limit at ln n opens
    the slow-divergence check and the escalation hierarchy, and
    envelopes serve as the last fallback. A pinned scale skips straight
    to its scaled-log test and escalates within that scale only.
    """
    policy = policy or AnalysisPolicy()
    term = _as_term(seq, params)
    combo = term.log_combo()
    backend = (
        "symbolic" if combo is not None and combo.is_exact
        and policy.backend != "numeric" else "numeric"
    )
    if isinstance(policy.scale, sc.Custom):
        policy.scale.check_assumptions()
    trace = []
    final = None
    with nm.absorption_log() as absorbed:
        if policy.scale is None:
            v = raabe_test(term, policy)
            trace.append(v)
            if v.decisive:
                final = v
            if final is None:
                v = scaled_log_test(term, _SCALE_N, policy)
                trace.append(v)
                if v.decisive:
                    final = v
            if final is None:
                final = _scale_rungs(term, _SCALE_LN, policy, trace)
        else:
            final = _scale_rungs(term, policy.scale, policy, trace)
    if final is None:
        final = Verdict(
            "inconclusive", "ladder", policy.scale, 0,
            lm.LimitEstimate("not_converged"), reason="exhausted",
        )
    warnings = []
    seen = set()
    for v in trace:
        for note in v.notes:
            if note not in seen:
                seen.add(note)
                warnings.append(f"{v.test_id}: {note}")
    for msg in sorted(set(absorbed)):
        warnings.append(f"absorption: {msg}")
    return AnalysisReport(
        sequence=term.text,
        params=dict(getattr(term, "params", {})),
        backend=backend,
        trace=trace,
        final=final,
        warnings=warnings,
    )
