"""Sequence expressions: ast, parser, evaluation, and log-side rewrites.

An expression denotes a function of one positive variable n. The grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' atom)?
    atom   := number | name | 'n' | '(' expr ')' | fn '(' expr ')'
    fn     := 'ln' | 'lnln' | 'lnlnln' | 'lnlnlnln' | 'log_2' .. 'log_9' | 'exp'
    number := digits ['.' digits]

Names other than 'n' and the function names are free parameters, bound to
exact rationals before analysis. Powers are restricted: the exponent must
be free of n, unless the base is free of n (so n^t and 2^n both parse,
while n^n does not).

Two rewrites feed the analysis layer. log_transform maps an expression to
one denoting its logarithm, pushing ln through products, quotients, powers
and exp exactly, and wrapping anything else (sums) in an opaque ln node.
linearize then splits a log-side expression into exact rational multiples
of n and its iterated logarithms, exact constant parts, and leftover
residual subtrees. Statistics are computed from that split so that the
huge leading terms cancel in exact arithmetic instead of floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError, UnboundParameterError
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
    "LogPowerForm",
    "to_log_power",
    "log_transform",
    "LogCombo",
    "linearize",
]


class Expr:
    """Base class for expression nodes. Nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class IterLn(Expr):
    """count-fold iterated natural log of arg."""

    count: int
    arg: Expr


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


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tok = None
        self.val = None
        self.tok_pos = 0
        self.depth = 0
        self.advance()

    def advance(self):
        t = self.text
        i = self.pos
        while i < len(t) and t[i].isspace():
            i += 1
        self.tok_pos = i
        if i >= len(t):
            self.tok, self.val, self.pos = "end", None, i
            return
        c = t[i]
        if c in "+-*/^()":
            self.tok, self.val, self.pos = c, c, i + 1
            return
        if c.isdigit():
            j = i
            while j < len(t) and t[j].isdigit():
                j += 1
            if j < len(t) and t[j] == ".":
                j += 1
                if j >= len(t) or not t[j].isdigit():
                    raise ParseError("digits required after decimal point", j)
                while j < len(t) and t[j].isdigit():
                    j += 1
            self.tok, self.val, self.pos = "number", t[i:j], j
            return
        if c.isalpha() or c == "_":
            j = i
            while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                j += 1
            self.tok, self.val, self.pos = "name", t[i:j], j
            return
        raise ParseError(f"unexpected character {c!r}", i)

    def expect(self, tok: str):
        if self.tok != tok:
            raise ParseError(
                f"expected {tok!r}, found {self.val!r}", self.tok_pos
            )
        v = self.val
        self.advance()
        return v


def parse(text: str) -> Expr:
    """Parse expression text. Raises ParseError with a position."""
    lx = _Lexer(text)
    e = _parse_expr(lx)
    if lx.tok != "end":
        raise ParseError(f"trailing input {lx.val!r}", lx.tok_pos)
    if _depth(e) > _MAX_DEPTH:
        raise ParseError(_TOO_DEEP)
    _validate_powers(e)
    return e


def _depth(e: Expr) -> int:
    """Tree levels of e, counted without recursion."""
    deepest = 0
    stack = [(e, 1)]
    while stack:
        x, d = stack.pop()
        if isinstance(x, IterLn):
            d += x.count - 1
        deepest = max(deepest, d)
        stack.extend(
            (c, d + 1) for c in vars(x).values() if isinstance(c, Expr)
        )
    return deepest


def _parse_expr(lx: _Lexer) -> Expr:
    lx.depth += 1
    if lx.depth > _MAX_DEPTH:
        raise ParseError(_TOO_DEEP, lx.tok_pos)
    negate = False
    if lx.tok == "-":
        lx.advance()
        negate = True
    e = _parse_term(lx)
    if negate:
        if isinstance(e, Const):
            e = Const(-e.value)
        else:
            e = Mul(Const(Fraction(-1)), e)
    while lx.tok in ("+", "-"):
        op = lx.tok
        lx.advance()
        rhs = _parse_term(lx)
        e = Add(e, rhs) if op == "+" else Sub(e, rhs)
    lx.depth -= 1
    return e


def _parse_term(lx: _Lexer) -> Expr:
    e = _parse_factor(lx)
    while lx.tok in ("*", "/"):
        op = lx.tok
        lx.advance()
        rhs = _parse_factor(lx)
        e = Mul(e, rhs) if op == "*" else Div(e, rhs)
    return e


def _parse_factor(lx: _Lexer) -> Expr:
    base = _parse_atom(lx)
    if lx.tok == "^":
        lx.advance()
        exponent = _parse_atom(lx)
        return Pow(base, exponent)
    return base


def _parse_atom(lx: _Lexer) -> Expr:
    if lx.tok == "number":
        v = lx.val
        lx.advance()
        return Const(Fraction(v))
    if lx.tok == "(":
        lx.advance()
        e = _parse_expr(lx)
        lx.expect(")")
        return e
    if lx.tok == "-":
        # Allowed only inside parentheses by the grammar; a bare leading
        # minus is handled in _parse_expr.
        raise ParseError("unexpected '-'", lx.tok_pos)
    if lx.tok == "name":
        name = lx.val
        pos = lx.tok_pos
        lx.advance()
        if lx.tok == "(":
            lx.advance()
            arg = _parse_expr(lx)
            lx.expect(")")
            if name in _FN_LOGS:
                return iterln(_FN_LOGS[name], arg)
            if name in _LOG_BASES:
                base = _LOG_BASES[name]
                return Div(iterln(1, arg), IterLn(1, Const(Fraction(base))))
            if name == "exp":
                return Exp(arg)
            raise ParseError(f"unknown function {name!r}", pos)
        if name == "n":
            return Var()
        if name in _FN_LOGS or name in _LOG_BASES or name == "exp":
            raise ParseError(f"function {name!r} needs an argument", pos)
        return Param(name)
    raise ParseError(f"unexpected token {lx.val!r}", lx.tok_pos)


def contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Const, Param)):
        return False
    if isinstance(e, (Add, Sub, Mul, Div)):
        return contains_var(e.left) or contains_var(e.right)
    if isinstance(e, Pow):
        return contains_var(e.base) or contains_var(e.exponent)
    if isinstance(e, Exp):
        return contains_var(e.arg)
    if isinstance(e, IterLn):
        return contains_var(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def _validate_powers(e: Expr) -> None:
    if isinstance(e, Pow):
        if contains_var(e.exponent) and contains_var(e.base):
            raise ParseError(
                "power needs an n-free exponent or an n-free base"
            )
        _validate_powers(e.base)
        _validate_powers(e.exponent)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        _validate_powers(e.left)
        _validate_powers(e.right)
    elif isinstance(e, (Exp, IterLn)):
        _validate_powers(e.arg)


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
    if isinstance(e, Param):
        return {e.name}
    if isinstance(e, (Const, Var)):
        return set()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_params(e.left) | free_params(e.right)
    if isinstance(e, Pow):
        return free_params(e.base) | free_params(e.exponent)
    if isinstance(e, (Exp, IterLn)):
        return free_params(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


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

    def walk(x: Expr) -> Expr:
        if isinstance(x, Param):
            if x.name in values:
                return Const(values[x.name])
            return x
        if isinstance(x, (Const, Var)):
            return x
        if isinstance(x, Add):
            return Add(walk(x.left), walk(x.right))
        if isinstance(x, Sub):
            return Sub(walk(x.left), walk(x.right))
        if isinstance(x, Mul):
            return Mul(walk(x.left), walk(x.right))
        if isinstance(x, Div):
            return Div(walk(x.left), walk(x.right))
        if isinstance(x, Pow):
            return Pow(walk(x.base), walk(x.exponent))
        if isinstance(x, Exp):
            return Exp(walk(x.arg))
        if isinstance(x, IterLn):
            return IterLn(x.count, walk(x.arg))
        raise TypeError(f"not an expression node: {x!r}")

    return walk(e)


# -- evaluation ---------------------------------------------------------------


def eval_expr(e: Expr, n) -> ExtScalar:
    """Evaluate at n (coerced to ExtScalar) under the active precision.

    Parameters must be bound first (see bind). The working precision is
    entered once for the whole tree; every operation inside computes at
    the same bits as it would on its own.
    """

    def ev(x: Expr) -> ExtScalar:
        if isinstance(x, Const):
            return nm.from_value(x.value)
        if isinstance(x, Var):
            return n
        if isinstance(x, Param):
            raise UnboundParameterError([x.name])
        if isinstance(x, Add):
            return nm.ext_add(ev(x.left), ev(x.right))
        if isinstance(x, Sub):
            return nm.ext_sub(ev(x.left), ev(x.right))
        if isinstance(x, Mul):
            return nm.ext_mul(ev(x.left), ev(x.right))
        if isinstance(x, Div):
            return nm.ext_div(ev(x.left), ev(x.right))
        if isinstance(x, Pow):
            return nm.ext_pow(ev(x.base), ev(x.exponent))
        if isinstance(x, Exp):
            return nm.ext_exp(ev(x.arg))
        if isinstance(x, IterLn):
            return nm.iter_ln(x.count, ev(x.arg))
        raise TypeError(f"not an expression node: {x!r}")

    with nm._Working():
        n = nm.from_value(n)
        return ev(e)


# -- domain inference ---------------------------------------------------------


def _ln_thresholds(e: Expr) -> list[tuple[int, Expr]]:
    """All (count, argument) pairs of iterated-log nodes in e."""
    out = []

    def walk(x: Expr):
        if isinstance(x, IterLn):
            out.append((x.count, x.arg))
            walk(x.arg)
        elif isinstance(x, (Add, Sub, Mul, Div)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, Pow):
            walk(x.base)
            walk(x.exponent)
        elif isinstance(x, Exp):
            walk(x.arg)

    walk(e)
    return out


def _iter_exp_one(k: int) -> ExtScalar:
    v = nm.ONE
    for _ in range(k):
        v = nm.ext_exp(v)
    return v


def domain_start(e: Expr) -> ExtScalar:
    """Smallest integer n at which every iterated log in e clears its
    safety threshold exp^k(1) * (1 + 1e-6).

    For thresholds too large to enumerate integers the real solution is
    returned, rounded up to the representable resolution.
    """
    missing = free_params(e)
    if missing:
        raise UnboundParameterError(missing)
    best = nm.ONE
    for k, arg in _ln_thresholds(e):
        if not contains_var(arg):
            # Constant argument: either always fine or always a domain
            # error; evaluation will report the latter.
            continue
        threshold = nm.ext_mul(
            _iter_exp_one(k), nm.from_value(Fraction(1000001, 1000000))
        )
        n_k = _first_n_reaching(arg, threshold)
        if nm.ext_cmp(n_k, best) > 0:
            best = n_k
    return best


def _eval_or_none(arg: Expr, n: ExtScalar) -> ExtScalar | None:
    from .errors import DivisionByZero

    try:
        return eval_expr(arg, n)
    except (DomainError, DivisionByZero):
        return None


def _first_n_reaching(arg: Expr, threshold: ExtScalar) -> ExtScalar:
    """Minimal integer n >= 1 with arg(n) > threshold, assuming arg is
    eventually increasing (true for the supported expression class)."""
    if isinstance(arg, Var):
        # floor(threshold) + 1; the threshold carries a safety factor so
        # it is never an exact integer of interest.
        t = threshold.as_mpf()
        from mpmath import mp

        if t < 1e15:
            return nm.from_value(int(mp.floor(t)) + 1)
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
    from mpmath import mp

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
            return nm.from_value(n)
    except Exception:
        pass
    return hi


def check_positive(e: Expr, n0: ExtScalar) -> None:
    """Sampled positivity check past n0; raises PositivityViolation."""
    from .errors import (
        CancellationError,
        DivisionByZero,
        PositivityViolation,
        RangeError,
    )

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
    for p in points:
        try:
            v = eval_expr(e, p)
        except (RangeError, CancellationError, DivisionByZero, DomainError):
            continue
        if v.sign <= 0:
            raise PositivityViolation(
                f"term is not positive at n = {nm.fmt(p, 8)}", witness=p
            )


# -- log-power recognition ------------------------------------------------


@dataclass(frozen=True)
class LogPowerForm:
    """c * n^p0 * (ln n)^p1 * ... with exact rational exponents, c > 0."""

    coefficient: object  # positive mpf
    exponents: tuple[Fraction, ...]

    def exponent(self, depth: int) -> Fraction:
        if 0 <= depth < len(self.exponents):
            return self.exponents[depth]
        return Fraction(0)


def to_log_power(e: Expr) -> LogPowerForm | None:
    """Recognize a positive product of powers of n and its iterated logs.

    Returns None when e is outside the class (sums, exp factors, shifted
    log arguments, unbound parameters, non-positive constants).
    """
    exps: dict[int, Fraction] = {}
    consts: list[tuple[Fraction, Fraction]] = []  # (base, power)
    ok = True

    def walk(x: Expr, power: Fraction):
        nonlocal ok
        if not ok:
            return
        if isinstance(x, Const):
            if x.value <= 0:
                ok = False
                return
            consts.append((x.value, power))
            return
        if isinstance(x, Var):
            exps[0] = exps.get(0, Fraction(0)) + power
            return
        if isinstance(x, IterLn) and isinstance(x.arg, Var):
            exps[x.count] = exps.get(x.count, Fraction(0)) + power
            return
        if isinstance(x, Mul):
            walk(x.left, power)
            walk(x.right, power)
            return
        if isinstance(x, Div):
            walk(x.left, power)
            walk(x.right, -power)
            return
        if isinstance(x, Pow):
            q = _const_fold(x.exponent)
            if q is not None:
                walk(x.base, power * q)
                return
        ok = False

    walk(e, Fraction(1))
    if not ok:
        return None
    from mpmath import mp

    with nm._Working():
        c = mp.mpf(1)
        for base, power in consts:
            b = mp.mpf(base.numerator) / mp.mpf(base.denominator)
            p = mp.mpf(power.numerator) / mp.mpf(power.denominator)
            c *= b**p
    top = max((k for k, v in exps.items() if v != 0), default=0)
    tup = tuple(exps.get(i, Fraction(0)) for i in range(top + 1))
    return LogPowerForm(c, tup)


# -- log transform ----------------------------------------------------------


def log_transform(e: Expr) -> tuple[Expr, list[Expr]]:
    """Expression for ln(e), plus the subtrees that stayed opaque.

    Precondition: e is positive on its domain. Products, quotients,
    powers, exp, and iterated logs transform exactly; anything else is
    wrapped as ln(subtree) and reported in the opaque list.
    """
    opaque: list[Expr] = []

    def lt(x: Expr) -> Expr:
        if isinstance(x, Mul):
            return Add(lt(x.left), lt(x.right))
        if isinstance(x, Div):
            return Sub(lt(x.left), lt(x.right))
        if isinstance(x, Pow):
            return Mul(x.exponent, lt(x.base))
        if isinstance(x, Exp):
            return x.arg
        if isinstance(x, (Var, IterLn, Const, Param)):
            if isinstance(x, Const) and x.value <= 0:
                raise DomainError("log transform of a non-positive constant")
            return iterln(1, x)
        opaque.append(x)
        return IterLn(1, x)

    return lt(e), opaque


# -- linearization ------------------------------------------------------------


@dataclass
class LogCombo:
    """A log-side expression split into exact and residual parts.

    value = sum over coeffs of c_k * ln_k(n)   (k = 0 means n itself)
          + const
          + sum over const_logs of q * ln_j(c)
          + sum of residual subexpressions.

    coeffs, const, and const_logs are exact rationals; residuals are
    arbitrary expression trees that the numeric sampler evaluates
    pointwise.
    """

    coeffs: dict[int, Fraction]
    const: Fraction
    const_logs: list[tuple[Fraction, int, Fraction]]  # (mult, depth, base)
    residuals: list[Expr]

    @property
    def is_exact(self) -> bool:
        return not self.residuals

    def merged(self, other: "LogCombo", sign: int = 1) -> "LogCombo":
        s = Fraction(sign)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, Fraction(0)) + s * v
        return LogCombo(
            {k: v for k, v in coeffs.items() if v != 0},
            self.const + s * other.const,
            self.const_logs
            + [(s * m, d, b) for (m, d, b) in other.const_logs],
            self.residuals
            + (
                other.residuals
                if sign == 1
                else [Mul(Const(Fraction(-1)), r) for r in other.residuals]
            ),
        )

    def scaled(self, q: Fraction) -> "LogCombo":
        if q == 0:
            return LogCombo({}, Fraction(0), [], [])
        return LogCombo(
            {k: v * q for k, v in self.coeffs.items()},
            self.const * q,
            [(m * q, d, b) for (m, d, b) in self.const_logs],
            [Mul(Const(q), r) for r in self.residuals],
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
        return a / b
    if isinstance(e, Pow):
        a, b = _const_fold(e.base), _const_fold(e.exponent)
        if a is None or b is None or b.denominator != 1:
            return None
        try:
            return a**b.numerator
        except ZeroDivisionError:
            return None
    return None


def linearize(e: Expr) -> LogCombo:
    """Split a log-side expression into a LogCombo."""
    zero = LogCombo({}, Fraction(0), [], [])
    if isinstance(e, Const):
        return LogCombo({}, e.value, [], [])
    if isinstance(e, Var):
        return LogCombo({0: Fraction(1)}, Fraction(0), [], [])
    if isinstance(e, IterLn):
        if isinstance(e.arg, Var):
            return LogCombo({e.count: Fraction(1)}, Fraction(0), [], [])
        if isinstance(e.arg, Const):
            if e.arg.value <= 0 or (e.count >= 2 and e.arg.value <= 1):
                return LogCombo({}, Fraction(0), [], [e])
            return LogCombo(
                {}, Fraction(0), [(Fraction(1), e.count, e.arg.value)], []
            )
        return LogCombo({}, Fraction(0), [], [e])
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
        return zero.merged(LogCombo({}, Fraction(0), [], [e]), 1)
    if isinstance(e, Div):
        q = _const_fold(e.right)
        if q is not None and q != 0:
            return linearize(e.left).scaled(Fraction(1) / q)
        return zero.merged(LogCombo({}, Fraction(0), [], [e]), 1)
    if isinstance(e, (Pow, Exp, Param)):
        return LogCombo({}, Fraction(0), [], [e])
    raise TypeError(f"not an expression node: {e!r}")
