"""Sequence expressions: ast, parser, evaluation, and log-side rewrites.

An expression denotes a function of one positive variable n. The grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' atom)?
    atom   := number | name | 'n' | '(' expr ')' | fn '(' expr ')'
    fn     := 'ln' | 'lnln' | 'lnlnln' | 'lnlnlnln' | 'log_2' .. 'log_9' | 'exp'
    number := [0-9]+ ['.' [0-9]+]
    name   := [A-Za-z_][A-Za-z0-9_]*

Names other than 'n' and the function names are free parameters, bound to
exact rationals before analysis. Powers are restricted: the exponent must
be free of n, unless the base is free of n (so n^t and 2^n both parse,
while n^n does not).

Two rewrites feed the analysis layer. log_transform maps an expression to
one denoting its logarithm, pushing ln through products, quotients, powers
and exp exactly, and wrapping anything else (sums) in an ln node.
linearize then splits a log-side expression into exact rational multiples
of n and its iterated logarithms, exact constant parts, vanishing
subtrees and leftover residual subtrees. ln of a sum or a shifted
argument is read by a dominant-term pass: ln(n + 1) is ln n plus the
vanishing ln((n + 1)/n), and ln(n^2 + ln n) is 2 ln n plus a vanishing
part. Statistics are computed from that split so that the huge leading
terms cancel in exact arithmetic instead of floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .errors import (
    CancellationError,
    DivisionByZero,
    DomainError,
    ParseError,
    PositivityViolation,
    RangeError,
    UnboundParameterError,
)
from . import numeric as nm
from .numeric import ExtScalar

__all__ = [
    "Expr",
    "Const",
    "Param",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "IterLn",
    "iterln",
    "parse",
    "format_expr",
    "free_params",
    "bind",
    "contains_var",
    "eval_expr",
    "domain_start",
    "check_positive",
    "to_log_power",
    "proves_positive",
    "log_transform",
    "LogCombo",
    "linearize",
]


class Expr:
    """Base class for expression nodes. Nodes compare and hash by type
    and fields, so a node must not be changed once it is built: every
    rewrite builds new nodes and shares the subtrees it keeps. Each
    node class lists its fields in __slots__, in constructor order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{k}={getattr(self, k)!r}" for k in self.__slots__) + ")"


class Const(Expr):
    """An exact rational: an int where it is integral, else a Fraction."""

    __slots__ = ("value",)

    def __init__(self, value: int | Fraction):
        self.value = value


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Var(Expr):
    __slots__ = ()


class Add(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Sub(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Mul(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Div(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        self.base = base
        self.exponent = exponent


class Exp(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class IterLn(Expr):
    """count-fold iterated natural log of arg."""

    __slots__ = ("count", "arg")

    def __init__(self, count: int, arg: Expr):
        self.count = count
        self.arg = arg


# The field names of each node type's subtrees, in field order: every
# field but a Const's value, a Param's name and an IterLn's count. Every
# generic walk over a tree reads a node's subtrees here and nowhere else.
_SUBTREE_FIELDS = {
    cls: tuple(k for k in cls.__slots__ if k not in ("value", "name", "count"))
    for cls in (Const, Param, Var, Add, Sub, Mul, Div, Pow, Exp, IterLn)
}


def _walk(e: Expr):
    """Every node of e, each before its subtrees, left to right. The
    walk keeps its own stack, so it needs no frame per tree level."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        for k in reversed(_SUBTREE_FIELDS[type(x)]):
            stack.append(getattr(x, k))


def iterln(count: int, arg: Expr) -> Expr:
    """IterLn constructor that flattens nesting and drops count == 0."""
    if count < 0:
        raise ValueError("iterated-log count must be nonnegative")
    while isinstance(arg, IterLn):
        count += arg.count
        arg = arg.arg
    if count == 0:
        return arg
    return IterLn(count, arg)


# -- parser ----------------------------------------------------------------

_FN_LOGS = {"ln": 1, "lnln": 2, "lnlnln": 3, "lnlnlnln": 4}
_LOG_BASES = {f"log_{d}": d for d in range(2, 10)}

# Deepest accepted expression, in parentheses and in tree levels (an
# iterated log counts once per log). The parser and every walk over a
# parsed tree (bind, log_transform, linearize, eval_expr, the summation
# compiler) recurse at most a few frames per level, so this keeps them
# well inside Python's default recursion limit.
_MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {_MAX_DEPTH} levels"

# One token per match, after blanks: an operator, a number (a point
# without digits after it is kept, and refused where it is reached), an
# ASCII name, any other single character, or '' at the end. ASCII
# classes only: str.isdigit and str.isalnum would take superscripts and
# other scripts' digits and letters.
_TOKEN = re.compile(
    r"\s*([-+*/^()]|[0-9]+(?:\.[0-9]*)?|[A-Za-z_][A-Za-z0-9_]*|.?)", re.S
)
_DIGITS = "0123456789"
_LETTERS = "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_STARTS = _DIGITS + _LETTERS + "+-*/^()"


def parse(text: str) -> Expr:
    """Parse expression text. Raises ParseError with a position.

    Each parsing function returns a subtree and its tree levels. An
    error is positioned from the index of the token it names, and a bad
    character or a point without digits at or before the current token
    is reported first, as a lexer reading left to right meets it.
    """
    toks = _TOKEN.findall(text)
    at = 0  # the current token

    def error(message, k=None):
        spans = [m.span(1) for m in islice(_TOKEN.finditer(text), at + 1)]
        for t, (i, j) in zip(toks, spans):
            if t[:1] not in _STARTS:  # the end token '' is in every string
                return ParseError(f"unexpected character {t!r}", i)
            if t[-1:] == ".":
                return ParseError("digits required after decimal point", j)
        return ParseError(message, None if k is None else spans[k][0])

    def expr(nest):
        nonlocal at
        if nest > _MAX_DEPTH:
            raise error(_TOO_DEEP, at)
        negate = toks[at] == "-"
        if negate:
            at += 1
        e, d = term(nest)
        if negate:
            e, d = (Const(-e.value), d) if isinstance(e, Const) else (
                Mul(Const(-1), e), d + 1)
        while toks[at] in ("+", "-"):
            op = Add if toks[at] == "+" else Sub
            at += 1
            r, rd = term(nest)
            e, d = op(e, r), 1 + max(d, rd)
        return e, d

    def term(nest):
        """factor (('*' | '/') factor)*, where factor := atom ['^' atom]."""
        nonlocal at
        op = None
        while True:
            first = at
            f, fd = atom(nest)
            if toks[at] == "^":
                at += 1
                mid = at
                x, xd = atom(nest)
                # every Var comes from an 'n' token, so the spans tell
                if "n" in toks[mid:at] and "n" in toks[first:mid]:
                    raise error(
                        "power needs an n-free exponent or an n-free base")
                f, fd = Pow(f, x), 1 + max(fd, xd)
            e, d = (f, fd) if op is None else (op(e, f), 1 + max(d, fd))
            if toks[at] != "*" and toks[at] != "/":
                return e, d
            op = Mul if toks[at] == "*" else Div
            at += 1

    def atom(nest):
        nonlocal at
        k, t = at, toks[at]
        if t and t[0] in _DIGITS:
            whole, point, frac = t.partition(".")
            try:  # int() refuses past Python's integer string limit
                value = Fraction(int(whole) * 10**len(frac) + int(frac),
                                 10**len(frac)) if point else int(whole)
            except ValueError:
                raise error(f"number too long ({len(t)} characters)",
                            k) from None
            at += 1
            return Const(value), 1
        if t == "-":
            # Allowed only inside parentheses by the grammar; a bare
            # leading minus is read in expr.
            raise error("unexpected '-'", k)
        if t != "(":
            if not t or t[0] not in _LETTERS:
                raise error(f"unexpected token {t or None!r}", k)
            at += 1
            if toks[at] != "(":
                if t == "n":
                    return Var(), 1
                if t in _FN_LOGS or t in _LOG_BASES or t == "exp":
                    raise error(f"function {t!r} needs an argument", k)
                return Param(t), 1
        at += 1
        e, d = expr(nest + 1)
        if toks[at] != ")":
            raise error(f"expected ')', found {toks[at] or None!r}", at)
        at += 1
        if t == "(":
            return e, d
        if t in _FN_LOGS:
            return iterln(_FN_LOGS[t], e), d + _FN_LOGS[t]
        if t in _LOG_BASES:
            return Div(iterln(1, e), IterLn(1, Const(_LOG_BASES[t]))), d + 2
        if t == "exp":
            return Exp(e), d + 1
        raise error(f"unknown function {t!r}", k)

    try:
        e, d = expr(1)
        if toks[at]:
            raise error(f"trailing input {toks[at]!r}", at)
    finally:
        # The four closures reach one another through their cells; the
        # cycle is cut here so that no parse leaves work for gc.
        error = expr = term = atom = None
    if d > _MAX_DEPTH:
        raise ParseError(_TOO_DEEP)
    return e


def contains_var(e: Expr) -> bool:
    return any(isinstance(x, Var) for x in _walk(e))


# -- formatting --------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _fmt_fraction(f: Fraction) -> tuple[str, int]:
    """Render a rational as grammar text plus its precedence level."""
    if f.denominator == 1:
        s = str(f.numerator)
        return s, (_PREC_ATOM if f >= 0 else _PREC_ADD)
    d = f.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:
        from decimal import Decimal

        s = str(Decimal(f.numerator) / Decimal(f.denominator))
        return s, (_PREC_ATOM if f >= 0 else _PREC_ADD)
    return f"{f.numerator}/{f.denominator}", _PREC_MUL


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _fmt_fraction(e.value)
    if isinstance(e, Param):
        return e.name, _PREC_ATOM
    if isinstance(e, Var):
        return "n", _PREC_ATOM
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        ls, lp = _fmt(e.left)
        rs, rp = _fmt(e.right)
        if lp < _PREC_ADD:
            ls = f"({ls})"
        if rp <= _PREC_ADD:
            rs = f"({rs})"
        return f"{ls} {op} {rs}", _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        ls, lp = _fmt(e.left)
        rs, rp = _fmt(e.right)
        if lp < _PREC_MUL:
            ls = f"({ls})"
        need_right = rp <= _PREC_MUL if isinstance(e, Div) else rp < _PREC_MUL
        if need_right:
            rs = f"({rs})"
        return f"{ls}{op}{rs}", _PREC_MUL
    if isinstance(e, Pow):
        bs, bp = _fmt(e.base)
        es, ep = _fmt(e.exponent)
        if bp < _PREC_ATOM:
            bs = f"({bs})"
        if ep < _PREC_ATOM:
            es = f"({es})"
        return f"{bs}^{es}", _PREC_POW
    if isinstance(e, Exp):
        s, _ = _fmt(e.arg)
        return f"exp({s})", _PREC_ATOM
    if isinstance(e, IterLn):
        k = e.count
        s, _ = _fmt(e.arg)
        names = {1: "ln", 2: "lnln", 3: "lnlnln", 4: "lnlnlnln"}
        while k > 4:
            s = f"lnlnlnln({s})"
            k -= 4
        return f"{names[k]}({s})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def format_expr(e: Expr) -> str:
    """Grammar text for e; parse(format_expr(parse(s))) == parse(s)."""
    return _fmt(e)[0]


# -- parameters ---------------------------------------------------------------


def free_params(e: Expr) -> set[str]:
    return {x.name for x in _walk(e) if isinstance(x, Param)}


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(str(v))
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot bind parameter to {v!r}")


def bind(e: Expr, params: dict) -> Expr:
    """Substitute parameters by exact rationals. Unknown names are left."""
    values = {k: _as_fraction(v) for k, v in params.items()}
    return _bound(e, values) if values else e


def _bound(x: Expr, values: dict) -> Expr:
    if isinstance(x, Param):
        return Const(values[x.name]) if x.name in values else x
    # a subtree without a bound parameter is kept as it is
    subtrees = _SUBTREE_FIELDS[type(x)]
    old = x._values()
    new = [_bound(c, values) if k in subtrees else c
           for k, c in zip(x.__slots__, old)]
    if all(a is b for a, b in zip(old, new)):
        return x
    return type(x)(*new)


# -- evaluation ---------------------------------------------------------------


def eval_expr(e: Expr, n) -> ExtScalar:
    """Evaluate at n (coerced to ExtScalar) under the active precision.

    Parameters must be bound first (see bind). The working precision is
    entered once for the whole tree; every operation inside computes at
    the same bits as it would on its own.
    """
    with nm._Working():
        return _ev(e, nm.from_value(n))


def _ev(x: Expr, n: ExtScalar) -> ExtScalar:
    """eval_expr inside its working precision; n is an ExtScalar."""
    if isinstance(x, Const):
        return nm.from_value(x.value)
    if isinstance(x, Var):
        return n
    if isinstance(x, Param):
        raise UnboundParameterError([x.name])
    if isinstance(x, Add):
        return nm.ext_add(_ev(x.left, n), _ev(x.right, n))
    if isinstance(x, Sub):
        return nm.ext_sub(_ev(x.left, n), _ev(x.right, n))
    if isinstance(x, Mul):
        return nm.ext_mul(_ev(x.left, n), _ev(x.right, n))
    if isinstance(x, Div):
        return nm.ext_div(_ev(x.left, n), _ev(x.right, n))
    if isinstance(x, Pow):
        return nm.ext_pow(_ev(x.base, n), _ev(x.exponent, n))
    if isinstance(x, Exp):
        return nm.ext_exp(_ev(x.arg, n))
    if isinstance(x, IterLn):
        return nm.iter_ln(x.count, _ev(x.arg, n))
    raise TypeError(f"not an expression node: {x!r}")


# -- domain inference ---------------------------------------------------------


def _iter_exp_one(k: int) -> ExtScalar:
    v = nm.ONE
    for _ in range(k):
        v = nm.ext_exp(v)
    return v


def _ln_threshold(k: int) -> ExtScalar:
    """The safety threshold exp^k(1) * (1 + 1e-6) of a k-fold log."""
    return nm.ext_mul(
        _iter_exp_one(k), nm.from_value(Fraction(1000001, 1000000))
    )


# The first index at which ln, lnln and lnlnln of n clear their
# thresholds: the same integers at every working precision, read with
# no mpmath. Deeper logs start near 2.33e1656520 and beyond; they are
# searched, and their start stays an ExtScalar, since int() of it would
# take minutes.
_LOG_STARTS = {1: 3, 2: 16, 3: 3814283}


def _shifted_start(arg: Expr, first: int | None) -> int | None:
    """The start of a named log of arg = n + b with integer b, read from
    first, that log's start at n: first - b, at least 1. None when arg
    has another form, first is None, or first - b passes 1e15, where
    _first_n_reaching searches instead."""
    affine = _affine(arg) if first is not None else None
    if affine is None or affine[0] != 1 or affine[1].denominator != 1:
        return None
    n = first - affine[1].numerator
    return max(1, n) if n <= 10**15 else None


def domain_start(e: Expr) -> int | ExtScalar:
    """Smallest integer n at which every iterated log in e clears its
    safety threshold exp^k(1) * (1 + 1e-6), as an int.

    For thresholds too large to enumerate integers the real solution is
    returned as an ExtScalar, rounded up to the representable
    resolution. One walk
    collects the logs and the free parameters. ln, lnln and lnlnln of n
    or of n + b (integer b) read their start from _LOG_STARTS; any other
    log is searched by _first_n_reaching, which returns the threshold
    itself for a deeper log of n.
    """
    logs, missing = [], set()
    stack = [e]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is IterLn:
            logs.append(x)
        elif t is Param:
            missing.add(x.name)
        for k in reversed(_SUBTREE_FIELDS[t]):
            stack.append(getattr(x, k))
    if missing:
        raise UnboundParameterError(missing)
    start, far = 1, None
    for x in logs:
        k, arg = x.count, x.arg
        first = _LOG_STARTS.get(k)
        n_k = first if isinstance(arg, Var) else _shifted_start(arg, first)
        if n_k is None:
            if not contains_var(arg):
                # Constant argument: either always fine or always a
                # domain error; evaluation will report the latter.
                continue
            n_k = _first_n_reaching(arg, _ln_threshold(k))
        if isinstance(n_k, int):
            start = max(start, n_k)
        elif far is None or nm.ext_cmp(n_k, far) > 0:
            far = n_k
    if far is not None and nm.ext_cmp(far, nm.from_value(start)) > 0:
        return far
    return start


def _eval_or_none(arg: Expr, n: ExtScalar) -> ExtScalar | None:
    try:
        return eval_expr(arg, n)
    except (DomainError, DivisionByZero):
        return None


def _affine(e: Expr) -> tuple[Fraction, Fraction] | None:
    """(a, b) with e = a*n + b exactly, when e is affine in n."""
    q = _const_fold(e)
    if q is not None:
        return 0, q
    if isinstance(e, Var):
        return 1, 0
    if isinstance(e, (Add, Sub)):
        left, right = _affine(e.left), _affine(e.right)
        if left is None or right is None:
            return None
        s = 1 if isinstance(e, Add) else -1
        return left[0] + s * right[0], left[1] + s * right[1]
    if isinstance(e, Mul):
        q, rest = _const_fold(e.left), e.right
        if q is None:
            q, rest = _const_fold(e.right), e.left
    elif isinstance(e, Div):
        q, rest = _const_fold(e.right), e.left
        q = Fraction(1, q) if q else None
    else:
        return None
    inner = None if q is None else _affine(rest)
    return None if inner is None else (q * inner[0], q * inner[1])


def _first_n_reaching(arg: Expr, threshold: ExtScalar) -> int | ExtScalar:
    """Minimal integer n >= 1 with arg(n) > threshold, assuming arg is
    eventually increasing (true for the supported expression class): an
    int below 1e15, else the real solution as an ExtScalar."""
    mp = nm.mp
    affine = _affine(arg)
    # n > (threshold - b)/a for arg = a*n + b; the threshold carries a
    # safety factor so it is never an exact integer of interest. A tower
    # threshold is out of plain range (an error for arg = n).
    if affine is not None and affine[0] > 0 and (
            threshold.level == 0 or isinstance(arg, Var)):
        a, b = affine
        with nm._Working():
            t = (threshold.as_mpf() - mp.mpf(b.numerator) / b.denominator) \
                * a.denominator / a.numerator
        if t < 1e15:
            return max(1, int(mp.floor(t)) + 1)
        if isinstance(arg, Var):
            return threshold

    def above(n: ExtScalar) -> bool:
        v = _eval_or_none(arg, n)
        return v is not None and nm.ext_cmp(v, threshold) > 0

    # Search on a doubly exponential ladder, then bisect.
    lo = nm.ONE
    hi = None
    for j in range(64):
        cand = nm.ext_exp(nm.from_value(2**j)) if j else nm.from_value(3)
        if above(cand):
            hi = cand
            break
        lo = cand
    if hi is None:
        raise DomainError("could not locate the domain start")
    # Bisect between lo and hi on the log scale.
    for _ in range(80):
        if hi.level == 0 and hi.mag < 1e15 and hi.mag - lo.mag < 1:
            # Integer resolution: the walk below settles n exactly.
            break
        try:
            llo = nm.ext_ln(lo).as_mpf() if nm.ext_cmp(lo, nm.ONE) > 0 else mp.mpf(0)
            lhi = nm.ext_ln(hi).as_mpf()
        except Exception:
            break
        if lhi - llo < mp.mpf("1e-9") * max(1, abs(lhi)):
            break
        mid = nm.ext_exp(nm.from_value((llo + lhi) / 2))
        if above(mid):
            hi = mid
        else:
            lo = mid
    try:
        h = hi.as_mpf()
        if h < 1e15:
            n = int(mp.floor(h))
            n = max(n, 1)
            while not above(nm.from_value(n)):
                n += 1
            while n > 1 and above(nm.from_value(n - 1)):
                n -= 1
            return n
    except Exception:
        pass
    return hi


def check_positive(e: Expr, n0: int | ExtScalar) -> None:
    """Sampled positivity check past n0; raises PositivityViolation.

    e is evaluated at up to seven plain integers from n0 on and at three
    tower points past n0; a point where evaluation fails is skipped. A
    value that is not positive raises, except an exact 0 at a tower
    point: there the operands of a difference absorbed each other (n + 1
    rounds to n), so the 0 carries no sign and counts as no sample. A
    term that divides by zero at every point is undefined and raises.
    """
    n0 = nm.from_value(n0)
    points: list[ExtScalar] = []
    try:
        base = n0.as_mpf()
        small = base < 1e12
    except RangeError:
        small = False
    if small:
        b = int(base) if base == int(base) else int(base) + 1
        b = max(b, 1)
        points.extend(nm.from_value(b + d) for d in (0, 1, 2))
        for mult in (10, 1000, 10**6, 10**9):
            points.append(nm.from_value(b * mult))
    for lvl, res in ((2, 2), (2, 4), (3, 2)):
        p = ExtScalar.tower(lvl, res)
        if nm.ext_cmp(p, n0) >= 0:
            points.append(p)
    undefined = 0
    for p in points:
        try:
            v = eval_expr(e, p)
        except DivisionByZero:
            undefined += 1
            continue
        except (RangeError, CancellationError, DomainError):
            continue
        if v.sign == 0 and p.level > 0:
            continue
        if v.sign <= 0:
            raise PositivityViolation(
                f"term is not positive at n = {nm.fmt(p, 8)}"
            )
    if points and undefined == len(points):
        raise PositivityViolation(
            "term is undefined at every sampled point (division by zero)"
        )


# -- log-power recognition ------------------------------------------------
#
# The dominant-term pass reads the leading monomial q * n^p0 * (ln n)^p1
# * ... (rational q and p_i) of a subtree, in the style of Gruntz's
# most-rapidly-varying comparison (ETH thesis, 1996) restricted to log
# powers: products multiply leaders, a sum keeps the leader with the
# lexicographically larger exponent tuple (or the sum of equal leaders
# when it does not cancel), and ln of a leader q * n^p0 * ... is
# p_i * (i+1)-fold log of n for the first nonzero p_i. Every expression
# of the grammar is a Hardy L-function, so the subtree equals its leader
# times 1 + o(1) and ln of it is ln(leader) plus a part that tends to 0.


class _Lead(NamedTuple):
    """Leading monomial coef * n^p0 * (ln n)^p1 * ... of a subtree,
    which equals it exactly (exact) or up to a factor 1 + o(1). The
    coefficient and exponents are ints where integral, else Fractions;
    trailing zero exponents are stripped."""

    coef: int | Fraction
    exps: tuple
    exact: bool


_N_LEAD = _Lead(1, (1,), True)


def _monomial(coef, exps: list, exact: bool) -> _Lead:
    while exps and not exps[-1]:
        exps.pop()
    return _Lead(coef, tuple(exps), exact)


def _order(exps) -> int:
    """1 when the monomial grows, -1 when it tends to 0, 0 if constant."""
    for p in exps:
        if p:
            return 1 if p > 0 else -1
    return 0


def _padded(a, b):
    width = len(a) - len(b)
    return (a, b + (0,) * width) if width > 0 else (a + (0,) * -width, b)


# A leader coefficient q^r is computed only when its numerator and
# denominator stay within this many bits; larger ones are refused, so
# that an input such as exp((2*n)^(10^12)) costs nothing to read.
_COEF_BITS = 4096


def _int_root(x: int, k: int) -> int | None:
    """The k-th root of x >= 0 when it is an integer."""
    if x < 2:
        return x
    if k >= x.bit_length():
        return None  # 2^k > x
    y = round(math.exp(math.log(x) / k))
    return next((c for c in (y - 1, y, y + 1) if c > 0 and c**k == x), None)


def _rational_power(q, r) -> int | Fraction | None:
    """q^r when it is a rational number of at most _COEF_BITS bits."""
    if q == 1:
        return q
    size = max(abs(q.numerator).bit_length(), q.denominator.bit_length())
    if size * abs(r.numerator) > r.denominator * _COEF_BITS:
        return None
    if r.denominator == 1:  # an int stays one, and 1/q is a Fraction
        return (q if r > 0 else Fraction(q)) ** r.numerator
    if q <= 0:
        return None
    num = _int_root(q.numerator, r.denominator)
    den = _int_root(q.denominator, r.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** r.numerator


def _ln_lead(a: _Lead | None) -> _Lead | None:
    """Leader of ln x for x led by a: ln x = ln q + p0 ln n + p1 lnln n
    + ... + o(1), led by its first nonzero p_i. None when x does not
    tend to +infinity or 0 (ln x then tends to a constant)."""
    if a is None or a.coef <= 0:
        return None
    for i, p in enumerate(a.exps):
        if p:
            exact = a.exact and a.coef == 1 and i + 1 == len(a.exps)
            return _Lead(p, (0,) * (i + 1) + (1,), exact)
    return None


def _lead(e: Expr) -> _Lead | None:
    """Leading log-power monomial of e, or None when e is outside the
    class: leaders that cancel, an irrational coefficient, exp of an
    argument that does not tend to 0, an unbound parameter. Dispatches
    on the exact node type."""
    t = type(e)
    if t is Const:
        return _Lead(e.value, (), True) if e.value else None
    if t is Var:
        return _N_LEAD
    if t is Add or t is Sub:
        a, b = _lead(e.left), _lead(e.right)
        if a is None or b is None:
            return None
        sign = 1 if t is Add else -1
        pa, pb = _padded(a.exps, b.exps)
        if pa != pb:
            if pa > pb:
                return _Lead(a.coef, a.exps, False)
            return _Lead(sign * b.coef, b.exps, False)
        coef = a.coef + sign * b.coef
        return _Lead(coef, a.exps, a.exact and b.exact) if coef else None
    if t is Mul or t is Div:
        a, b = _lead(e.left), _lead(e.right)
        if a is None or b is None:
            return None
        pa, pb = _padded(a.exps, b.exps)
        if t is Mul:
            coef = a.coef * b.coef
            exps = [x + y if x and y else x or y for x, y in zip(pa, pb)]
        else:
            coef = a.coef if b.coef == 1 else Fraction(a.coef, b.coef)
            exps = [x - y if y else x for x, y in zip(pa, pb)]
        return _monomial(coef, exps, a.exact and b.exact)
    if t is Pow:
        r, a = _const_fold(e.exponent), _lead(e.base)
        coef = None if r is None or a is None else _rational_power(a.coef, r)
        if coef is None:
            return None
        exps = [r if p == 1 else p and r * p for p in a.exps]
        return _monomial(coef, exps, a.exact)
    if t is Exp:
        # exp of a vanishing argument is 1 + o(1)
        a = _lead(e.arg)
        if a is not None and _order(a.exps) < 0:
            return _Lead(1, (), False)
        return None
    if t is IterLn:
        a = _lead(e.arg)
        for _ in range(e.count):
            a = _ln_lead(a)
        return a
    return None


def _monomial_expr(a: _Lead) -> Expr:
    """The leader a as an expression tree."""
    factors = [] if a.coef == 1 else [Const(a.coef)]
    for i, p in enumerate(a.exps):
        if p:
            base = iterln(i, Var())
            factors.append(base if p == 1 else Pow(base, Const(p)))
    out = factors[0] if factors else Const(1)
    for f in factors[1:]:
        out = Mul(out, f)
    return out


def to_log_power(e: Expr) -> _Lead | None:
    """The leader q * n^p0 * (ln n)^p1 * ... of e when its coefficient q
    is a positive rational. Its exact field says whether e equals it
    exactly; if not, e is the leader times 1 + o(1), so ln e is ln of the
    leader plus a part that tends to 0.

    None when e has no such leader (leaders that cancel, exp of an
    argument that does not tend to 0, irrational or non-positive
    coefficients, unbound parameters).
    """
    a = _lead(e)
    return a if a is not None and a.coef > 0 else None


def _rising(e: Expr) -> bool:
    """True when e is non-decreasing in n: a*n + b with a > 0, or an
    iterated log of a rising argument."""
    if isinstance(e, IterLn):
        return _rising(e.arg)
    affine = _affine(e)
    return affine is not None and affine[0] > 0


def _defined(c: Expr) -> bool:
    """True when the n-free subtree c has a value: it folds to a rational,
    or one evaluation succeeds (n^(1/0) has no exponent to prove)."""
    if _const_fold(c) is not None:
        return True
    try:
        eval_expr(c, nm.ONE)
    except (DivisionByZero, DomainError, RangeError, CancellationError,
            UnboundParameterError):
        return False
    return True


def proves_positive(e: Expr) -> bool:
    """True when e > 0 at every real n >= domain_start(e), read from the
    tree alone: a positive constant, n, sums, products and quotients of
    positive parts, a positive base to a defined n-free (any real) power,
    ln(c) for a rational c > 1, and an iterated log of a rising argument,
    which domain_start puts past exp^k(1) * (1 + 1e-6) and which stays
    past it.

    False says nothing: differences, exp, other logs of constants and
    non-positive constants are left to check_positive.
    """
    if isinstance(e, Const):
        return e.value > 0
    if isinstance(e, Var):
        return True
    if isinstance(e, (Add, Mul, Div)):
        return proves_positive(e.left) and proves_positive(e.right)
    if isinstance(e, Pow):
        return (not contains_var(e.exponent) and _defined(e.exponent)
                and proves_positive(e.base))
    if isinstance(e, IterLn):
        if e.count == 1 and isinstance(e.arg, Const):
            return e.arg.value > 1
        return _rising(e.arg)
    return False


# -- log transform ----------------------------------------------------------


def log_transform(e: Expr) -> Expr:
    """Expression for ln(e).

    Precondition: e is positive on its domain. Products, quotients,
    powers, exp, and iterated logs transform exactly; anything else is
    wrapped as ln(subtree), which linearize splits further.
    """
    if isinstance(e, Mul):
        return Add(log_transform(e.left), log_transform(e.right))
    if isinstance(e, Div):
        return Sub(log_transform(e.left), log_transform(e.right))
    if isinstance(e, Pow):
        return Mul(e.exponent, log_transform(e.base))
    if isinstance(e, Exp):
        return e.arg
    if isinstance(e, (Var, IterLn, Const, Param)):
        if isinstance(e, Const) and e.value <= 0:
            raise DomainError("log transform of a non-positive constant")
        return iterln(1, e)
    return IterLn(1, e)


# -- linearization ------------------------------------------------------------

# A sum is rounding noise unless its rounding bound lies at least this
# many bits below the statistic's denominator or the sum itself.
_NOISE_BITS = 20


class LogCombo(NamedTuple):
    """A log-side expression split into exact, residual and vanishing parts.

    value = sum over coeffs of c_k * ln_k(n)   (k = 0 means n itself)
          + const
          + sum over const_logs of q * ln_j(c)
          + sum of residual subexpressions
          + sum of vanishing subexpressions.

    coeffs, const, and const_logs are exact rationals; residuals and
    vanishing parts are expression trees that the numeric sampler
    evaluates pointwise. Vanishing parts tend to 0, so no limit the
    ladder reads depends on them: is_exact and the exact readings
    ignore them. A combo is never changed once built, so the default
    vanishing list can be shared.
    """

    coeffs: dict[int, Fraction]
    const: Fraction
    const_logs: list[tuple[Fraction, int, Fraction]]  # (mult, depth, base)
    residuals: list[Expr]
    vanishing: list[Expr] = []

    @property
    def is_exact(self) -> bool:
        return not self.residuals

    def merged(self, other: "LogCombo", sign: int = 1) -> "LogCombo":
        if sign != 1:
            other = other.scaled(Fraction(sign))
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + v
        return LogCombo(
            {k: v for k, v in coeffs.items() if v != 0},
            self.const + other.const,
            self.const_logs + other.const_logs,
            self.residuals + other.residuals,
            self.vanishing + other.vanishing,
        )

    def scaled(self, q: Fraction) -> "LogCombo":
        if q == 0:
            return LogCombo({}, Fraction(0), [], [])
        return LogCombo(
            {k: v * q for k, v in self.coeffs.items()},
            self.const * q,
            [(m * q, d, b) for (m, d, b) in self.const_logs],
            [Mul(Const(q), r) for r in self.residuals],
            [Mul(Const(q), r) for r in self.vanishing],
        )

    def leading(self) -> tuple[int, Fraction] | None:
        """Shallowest nonzero exact term, as (depth, coefficient)."""
        if not self.coeffs:
            return None
        k = min(self.coeffs)
        return k, self.coeffs[k]

    def const_value(self) -> ExtScalar:
        """Numeric value of the constant parts under the active precision."""
        total = nm.from_value(self.const)
        for mult, depth, base in self.const_logs:
            v = nm.iter_ln(depth, nm.from_value(base))
            total = nm.ext_add(total, nm.ext_mul(nm.from_value(mult), v))
        return total

    def value(self, n: ExtScalar, den: ExtScalar | None = None) -> ExtScalar:
        """Value of the combo at n under the active precision, entered
        once for the whole combo: the constant parts, then c * ln_d(n)
        by depth, then the residual and vanishing parts.

        With den, the denominator the value is divided by, a sum that
        cancels down to its rounding noise raises CancellationError: the
        rounding bound 2^(log2 of the largest addend - bits) must lie far
        below den or below the sum itself.
        """
        with nm._Working():
            terms = [self.const_value()] + [
                nm.ext_mul(nm.from_value(c), n if d == 0 else nm.iter_ln(d, n))
                for d, c in sorted(self.coeffs.items())
            ] + [eval_expr(r, n) for r in self.residuals + self.vanishing]
            total = terms[0]
            for t in terms[1:]:
                total = nm.ext_add(total, t)
            if den is not None:
                noise = nm.ext_mul(
                    max(nm.ext_abs(t) for t in terms),
                    nm.from_value(nm.mp.ldexp(1, _NOISE_BITS - nm._bits())),
                )
                if not (noise < nm.ext_abs(den) or noise < nm.ext_abs(total)):
                    raise CancellationError("sum cancels to rounding noise")
            return total


def _const_fold(e: Expr) -> Fraction | None:
    """Exact rational value of an n-free subtree, when one exists."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Add):
        a, b = _const_fold(e.left), _const_fold(e.right)
        return None if a is None or b is None else a + b
    if isinstance(e, Sub):
        a, b = _const_fold(e.left), _const_fold(e.right)
        return None if a is None or b is None else a - b
    if isinstance(e, Mul):
        a, b = _const_fold(e.left), _const_fold(e.right)
        return None if a is None or b is None else a * b
    if isinstance(e, Div):
        a, b = _const_fold(e.left), _const_fold(e.right)
        if a is None or b is None or b == 0:
            return None
        return Fraction(a, b)
    if isinstance(e, Pow):
        a, b = _const_fold(e.base), _const_fold(e.exponent)
        if a is None or b is None:
            return None
        try:
            return _rational_power(a, b)
        except ZeroDivisionError:  # 0 to a negative power
            return None
    return None


def _lead_combo(a: _Lead, vanishing: list[Expr]) -> LogCombo:
    """ln of the positive leader a = q * n^p0 * (ln n)^p1 * ...:
    p0 ln n + p1 lnln n + ... + ln q, plus the vanishing parts given."""
    return LogCombo(
        {i + 1: Fraction(p) for i, p in enumerate(a.exps) if p},
        Fraction(0),
        [] if a.coef == 1 else [(Fraction(1), 1, a.coef)],
        [],
        vanishing,
    )


def _ln_split(x: Expr) -> LogCombo | None:
    """ln x as the exact LogCombo of the leader of x plus the vanishing
    part ln(x / leader), or None when x has no positive leader."""
    a = _lead(x)
    if a is None or a.coef <= 0:
        return None
    return _lead_combo(
        a, [] if a.exact else [IterLn(1, Div(x, _monomial_expr(a)))]
    )


def _vanishes(e: Expr) -> bool:
    """True when e tends to 0: a log-power subtree led by a decaying
    monomial, or exp of an argument led to -infinity."""
    if isinstance(e, Exp):
        a = _lead(e.arg)
        return a is not None and a.coef < 0 and _order(a.exps) > 0
    a = _lead(e)
    return a is not None and _order(a.exps) < 0


def _opaque(e: Expr) -> LogCombo:
    """A subtree linearize cannot split: vanishing or residual."""
    if _vanishes(e):
        return LogCombo({}, Fraction(0), [], [], [e])
    return LogCombo({}, Fraction(0), [], [e])


def linearize(e: Expr) -> LogCombo:
    """Split a log-side expression into a LogCombo."""
    if isinstance(e, Const):
        return LogCombo({}, Fraction(e.value), [], [])
    if isinstance(e, Var):
        return LogCombo({0: Fraction(1)}, Fraction(0), [], [])
    if isinstance(e, IterLn):
        if isinstance(e.arg, Var):
            return LogCombo({e.count: Fraction(1)}, Fraction(0), [], [])
        if isinstance(e.arg, Const):
            if e.arg.value <= 0 or (e.count >= 2 and e.arg.value <= 1):
                return LogCombo({}, Fraction(0), [], [e])
            if e.arg.value == 1:  # ln 1 = 0, as in ln(1/n^2)
                return LogCombo({}, Fraction(0), [], [])
            return LogCombo(
                {}, Fraction(0), [(Fraction(1), e.count, e.arg.value)], []
            )
        split = _ln_split(iterln(e.count - 1, e.arg))
        return split if split is not None else LogCombo({}, Fraction(0), [], [e])
    if isinstance(e, Add):
        return linearize(e.left).merged(linearize(e.right), 1)
    if isinstance(e, Sub):
        return linearize(e.left).merged(linearize(e.right), -1)
    if isinstance(e, Mul):
        q = _const_fold(e.left)
        if q is not None:
            return linearize(e.right).scaled(q)
        q = _const_fold(e.right)
        if q is not None:
            return linearize(e.left).scaled(q)
        return _opaque(e)
    if isinstance(e, Div):
        q = _const_fold(e.right)
        if q is not None and q != 0:
            return linearize(e.left).scaled(Fraction(1) / q)
        return _opaque(e)
    if isinstance(e, (Pow, Exp)):
        return _opaque(e)
    if isinstance(e, Param):
        return LogCombo({}, Fraction(0), [], [e])
    raise TypeError(f"not an expression node: {e!r}")
