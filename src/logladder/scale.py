"""Scale functions: the measuring sticks the convergence tests divide by.

A scale w must increase to infinity, admit an inverse, and vary slowly in
the additive sense (w(x + y)/w(x) -> 1 for fixed y). The catalog covers
the iterated logarithms ln_k n (n itself is ln_0 n) and fixed powers of
n, all of which satisfy the assumptions structurally. Arbitrary
expression scales are accepted too and get a sampled assumption check.

The quantity the statistics actually consume is ln of the forward
increment, ln(w(n+1) - w(n)). Computing the increment first and taking
its log would cancel catastrophically for slow scales, so catalog scales
expose it as an exact rational combination of iterated logs of n plus a
small correction term that is evaluated directly from series-safe
primitives (log1p, expm1) and vanishes as n grows; the increment is the
exp of that split.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from . import numeric as nm
from .errors import (
    AssumptionViolation,
    CancellationError,
    DivisionByZero,
    DomainError,
    ParseError,
    RangeError,
    UnboundParameterError,
)
from .expr import Expr, LogCombo
from .numeric import ExtScalar

__all__ = [
    "ScaleFn",
    "IterLog",
    "PowerOfN",
    "Custom",
    "parse_scale",
]


class ScaleFn:
    """Base interface; instances are immutable."""

    def w_expr(self) -> Expr:
        raise NotImplementedError

    def value(self, n: ExtScalar) -> ExtScalar:
        return ex.eval_expr(self.w_expr(), n)

    def delta(self, n: ExtScalar) -> ExtScalar:
        """w(n+1) - w(n), the exp of the stable split of its log."""
        return nm.ext_exp(self.log_delta(n))

    def log_delta_combo(self) -> LogCombo | None:
        """Exact split of ln delta(n), or None when only pointwise
        evaluation is available. The residual part is delta_correction."""
        return None

    def delta_correction(self, n: ExtScalar) -> ExtScalar:
        """Residual of ln delta(n) beyond the exact combo terms."""
        return nm.ZERO

    def log_delta(self, n: ExtScalar) -> ExtScalar:
        """ln(w(n+1) - w(n)) assembled from the stable split."""
        combo = self.log_delta_combo()
        if combo is None:
            return nm.ext_ln(self.delta(n))
        return nm.ext_add(combo.value(n), self.delta_correction(n))

    def ln_chain(self, depth: int) -> Expr:
        """Expression for the depth-fold iterated log of w(n)."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        e = self.w_expr()
        for _ in range(depth):
            e = ex.log_transform(e)
        return e

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class IterLog(ScaleFn):
    """w(n) = the depth-fold iterated natural log of n; depth 0 is n.
    Scales of equal depth compare and hash equal."""

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError("IterLog depth must be nonnegative")
        self.depth = depth

    def __eq__(self, other):
        if type(other) is not IterLog:
            return NotImplemented
        return self.depth == other.depth

    def __hash__(self):
        return hash(self.depth)

    @property
    def name(self) -> str:
        if self.depth > 4:
            return f"iterlog:{self.depth}"
        return "ln" * self.depth or "n"

    def w_expr(self) -> Expr:
        return ex.iterln(self.depth, ex.Var())

    def ln_chain(self, depth: int) -> Expr:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        return ex.iterln(self.depth + depth, ex.Var())

    def log_delta_combo(self) -> LogCombo:
        combo = _DELTA_COMBOS.get(self.depth)
        return combo if combo is not None else _iterlog_delta_combo(self.depth)

    def delta_correction(self, n: ExtScalar) -> ExtScalar:
        # Sum over levels of ln(log1p(q)/q); below any feasible working
        # precision once n is past plain range.
        try:
            nv = n.as_mpf()
        except RangeError:
            return nm.ZERO
        bits = nm.get_precision().significand_bits
        mp = nm.mp
        with nm._Working():
            ld = mp.mpf(0)
            total = mp.mpf(0)
            level = nv
            cutoff = -(bits + 64) * mp.ln(2)
            for _ in range(self.depth):
                ln_level = mp.ln(level)
                lq = ld - ln_level
                if lq < cutoff:
                    break
                q = mp.exp(lq)
                v = mp.log1p(q)
                corr = mp.ln(v / q)
                total += corr
                ld = lq + corr
                level = ln_level
        return nm.from_value(total)


def _iterlog_delta_combo(depth: int) -> LogCombo:
    return LogCombo({j: Fraction(-1) for j in range(1, depth + 1)},
                    Fraction(0), [], [])


# The splits of the scales the CLI names (n to lnlnlnln), built at import
# so that every call reads the same shared combos; nothing changes them.
_DELTA_COMBOS = {d: _iterlog_delta_combo(d) for d in range(5)}


class PowerOfN(ScaleFn):
    """w(n) = n^sigma for a fixed rational sigma > 0. Scales of equal
    sigma compare and hash equal."""

    def __init__(self, sigma):
        sigma = ex._as_fraction(sigma)
        if sigma <= 0:
            raise ValueError("PowerOfN needs sigma > 0")
        self.sigma = sigma

    def __eq__(self, other):
        if type(other) is not PowerOfN:
            return NotImplemented
        return self.sigma == other.sigma

    def __hash__(self):
        return hash(self.sigma)

    @property
    def name(self) -> str:
        return f"pow:{self.sigma}"

    def w_expr(self) -> Expr:
        return ex.Pow(ex.Var(), ex.Const(self.sigma))

    def log_delta_combo(self) -> LogCombo:
        return LogCombo(
            {1: self.sigma - 1},
            Fraction(0),
            [(Fraction(1), 1, self.sigma)],
            [],
        )

    def delta_correction(self, n: ExtScalar) -> ExtScalar:
        # ln delta = (sigma - 1) ln n + ln sigma + corr with
        # corr = ln(expm1(sigma t)/(sigma t)) + ln(n log1p(1/n)), t = log1p(1/n).
        try:
            nv = n.as_mpf()
        except RangeError:
            return nm.ZERO
        bits = nm.get_precision().significand_bits
        mp = nm.mp
        with nm._Working():
            s = mp.mpf(self.sigma.numerator) / mp.mpf(self.sigma.denominator)
            t = mp.log1p(1 / nv)
            if s * t < -(bits + 64) * mp.ln(2):
                return nm.ZERO
            corr = mp.ln(mp.expm1(s * t) / (s * t)) + mp.ln(nv * t)
        return nm.from_value(corr)


class Custom(ScaleFn):
    """A scale given by an expression in n. Assumptions are sampled."""

    def __init__(self, expression: Expr):
        if isinstance(expression, str):
            expression = ex.parse(expression)
        missing = ex.free_params(expression)
        if missing:
            raise UnboundParameterError(missing)
        self._expr = expression
        self._label = ex.format_expr(expression)

    @property
    def name(self) -> str:
        return f"expr:{self._label}"

    def __repr__(self):
        return f"Custom({self._label!r})"

    def w_expr(self) -> Expr:
        return self._expr

    def delta(self, n: ExtScalar) -> ExtScalar:
        bits = nm.get_precision().significand_bits
        with nm.local_precision(2 * bits + 64):
            a = ex.eval_expr(self._expr, nm.ext_add(n, nm.ONE))
            b = ex.eval_expr(self._expr, n)
            d = nm.ext_sub(a, b)
            if d.sign == 0:
                raise CancellationError(
                    "scale increment vanished at doubled precision"
                )
            if d.level == 0 and a.level == 0:
                with nm.mp.workprec(32):
                    lost = nm.mp.log(abs(a.as_mpf()) / abs(d.as_mpf()), 2)
                if lost > bits + 32:
                    raise CancellationError(
                        "scale increment lost more than the doubled-precision margin"
                    )
        return d

    def check_assumptions(self) -> None:
        """Sample the scale assumptions on a grid of n and raise
        AssumptionViolation with every failure, its which set to the
        first. A pass is no proof: growth to infinity cannot be
        certified from finitely many points."""
        failures: list[str] = []
        grid = [nm.from_value(10**k) for k in range(3, 13)]
        vals = []
        for p in grid:
            try:
                vals.append((p, ex.eval_expr(self._expr, p)))
            except (DomainError, DivisionByZero, CancellationError,
                    RangeError):
                continue
        if len(vals) < 4:
            raise AssumptionViolation(
                "a: scale not evaluable on the check grid", "a"
            )
        for (p0, v0), (p1, v1) in zip(vals, vals[1:]):
            if not (v1 > v0):
                failures.append(
                    f"a: not strictly increasing between n = {nm.fmt(p0, 6)}"
                    f" and n = {nm.fmt(p1, 6)}"
                )
                break
        if vals[0][1].sign <= 0:
            failures.append("a: scale is not positive on the check grid")
        if not failures and not (vals[-1][1] > vals[0][1]):
            failures.append("a: no growth across the check grid")
        # Slow variation: w(x + y)/w(x) - 1 must die out along the grid.
        for y in (1, 7, 50):
            ratios = []
            for p, v in vals:
                try:
                    shifted = ex.eval_expr(
                        self._expr, nm.ext_add(p, nm.from_value(y))
                    )
                    ratios.append(
                        float(nm.ext_div(shifted, v).as_mpf()) - 1.0
                    )
                except (DomainError, DivisionByZero, CancellationError,
                        RangeError):
                    continue
            if len(ratios) < 4:
                continue
            if not (abs(ratios[-1]) < 0.01 and abs(ratios[-1]) <= abs(ratios[0]) * 1.01 + 1e-12):
                failures.append(
                    f"b: w(x+{y})/w(x) stays {1 + ratios[-1]:.4g} instead of"
                    " approaching 1"
                )
                break
        if failures:
            raise AssumptionViolation("; ".join(failures), failures[0][0])


def parse_scale(text: str) -> ScaleFn:
    """Parse a scale name: n, ln, lnln, lnlnln, pow:sigma, expr:..."""
    s = text.strip()
    if s in ("n", "ln", "lnln", "lnlnln", "lnlnlnln"):
        return IterLog(len(s) // 2)
    if s.startswith("pow:"):
        try:
            return PowerOfN(ex._as_fraction(s[4:]))
        except (ValueError, ZeroDivisionError, TypeError) as err:
            raise ParseError(f"bad power scale {text!r}: {err}") from None
    if s.startswith("expr:"):
        return Custom(s[5:])
    raise ParseError(
        f"unknown scale {text!r}; expected n, ln, lnln, lnlnln, pow:sigma,"
        " or expr:..."
    )
