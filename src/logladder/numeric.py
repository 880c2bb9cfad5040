"""Extended positive-range scalars for statistics on iterated-log scales.

Two representations share one type:

- plain: a sign and an arbitrary-precision float magnitude. The float's
  exponent is an arbitrary integer, so plain form already reaches numbers
  like 10**(10**4000). The practical ceiling is the cost of carrying that
  exponent integer, capped here at 2**14 bits (_EXP_CAP_BITS).

- tower: exp applied `level` times to a float residue. Canonical towers
  keep the residue in [1, e) so that level and residue order values
  lexicographically. Towers are exact under ln (the level just drops) and
  under exp (the level just rises), which is what keeps deep sampling
  grids free of rounding drift.

Negative numbers and zero are always plain. A value that would need a
negative or reciprocal tower raises RangeError instead.

Addition at tower scale is resolution-limited: when one operand cannot
change the other at working precision, the dominant operand is returned
and the event is recorded in the active absorption log. Subtraction of
two towers that agree at working precision raises CancellationError,
since no digits of the true difference are known.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    CancellationError,
    DivisionByZero,
    DomainError,
    ParseError,
    RangeError,
)

__all__ = [
    "ExtScalar",
    "Precision",
    "ZERO",
    "ONE",
    "absorption_log",
    "ext_add",
    "ext_sub",
    "ext_mul",
    "ext_div",
    "ext_pow",
    "ext_neg",
    "ext_abs",
    "ext_ln",
    "ext_exp",
    "ext_cmp",
    "iter_ln",
    "fmt",
    "from_value",
    "default_scalar",
    "to_float",
    "get_precision",
    "local_precision",
    "MAX_TOWER_LEVEL",
    "INT_POWER_LIMIT",
]

_GUARD = 10
_DEFAULT_BITS = 256

# Plain-form exponent integers are capped at this many bits. exp() of an
# argument past the corresponding magnitude returns a tower instead.
_EXP_CAP_BITS = 1 << 14

# How high a tower exp() may build before raising RangeError; a canonical
# tower at the top level is allowed a residue past e so the cap does not
# bite on ordinary deep grids.
MAX_TOWER_LEVEL = 6


# mpmath is imported on first use, by _load: the exact route reads
# Fractions only and never needs it. Until then the names in _LAZY are
# unbound here; other modules read them as attributes of this module
# (nm.mp, nm.ONE), and the module __getattr__ loads them.
_LAZY = frozenset({"mp", "ZERO", "ONE", "_EXP_ARG_CAP", "_FMT_LIMIT",
                   "_FMT_TINY"})
_loaded = False


def _load() -> None:
    """Import mpmath and bind mp, the libmp functions and the mpf
    constants. It calls no other function of this module, so loading
    adds no arithmetic to whatever triggered it."""
    global mp, from_int, from_rational, round_nearest, _EXP_ARG_CAP
    global _FMT_LIMIT, _FMT_TINY, ZERO, ONE, _loaded
    from mpmath import mp
    from mpmath.libmp import from_int, from_rational, round_nearest

    with mp.workprec(64):
        _EXP_ARG_CAP = (mp.mpf("0.693147180559945")
                        * mp.mpf(2) ** _EXP_CAP_BITS)
    _FMT_LIMIT = mp.mpf(2) ** 4096
    _FMT_TINY = mp.mpf(2) ** -4096
    ZERO = ExtScalar(0, 0, mp.mpf(0))
    ONE = ExtScalar(1, 0, mp.mpf(1))
    _loaded = True


def __getattr__(name):
    if name in _LAZY and not _loaded:
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Precision:
    """Working precision for extended arithmetic.

    significand_bits is the mantissa size used by every operation (a few
    guard bits are added internally). Equal bit counts compare equal.
    """

    __slots__ = ("significand_bits",)

    def __init__(self, significand_bits: int = _DEFAULT_BITS):
        if significand_bits < 64:
            raise ValueError("significand_bits must be at least 64")
        self.significand_bits = significand_bits

    def __eq__(self, other):
        if type(other) is not Precision:
            return NotImplemented
        return self.significand_bits == other.significand_bits

    def __hash__(self):
        return hash(self.significand_bits)

    def __repr__(self):
        return f"Precision(significand_bits={self.significand_bits})"


_prec_stack: list[Precision] = [Precision()]


def get_precision() -> Precision:
    return _prec_stack[-1]


class local_precision:
    """Temporarily switch precision. Accepts a Precision or a bit count;
    entering gives the Precision."""

    def __init__(self, precision):
        if isinstance(precision, int):
            precision = Precision(precision)
        self.precision = precision

    def __enter__(self):
        _prec_stack.append(self.precision)
        return self.precision

    def __exit__(self, *exc):
        _prec_stack.pop()


def _bits() -> int:
    return get_precision().significand_bits


class _Working:
    """Run the enclosed mpmath arithmetic at bits + _GUARD.

    mp.prec is switched (and restored on exit) only when it differs from
    that target, so an evaluation that enters the guard once runs every
    operation inside it without another switch. local_precision moves
    the target but never mp.prec itself: code outside the guard, user
    callables included, keeps the ambient mpmath precision.
    """

    __slots__ = ("_saved",)

    def __enter__(self):
        if not _loaded:
            _load()
        target = _prec_stack[-1].significand_bits + _GUARD
        saved = mp.prec
        if saved == target:
            self._saved = None
        else:
            mp.prec = target
            self._saved = saved
        return self

    def __exit__(self, *exc):
        if self._saved is not None:
            mp.prec = self._saved
        return False


_absorb_sinks: list[list[str]] = []


class absorption_log:
    """Collect absorption events from the enclosed operations.

    Entering gives a list that receives one message per absorbed
    operand, in evaluation order. Nesting works; every active log sees
    every event.
    """

    def __enter__(self):
        self.sink = []
        _absorb_sinks.append(self.sink)
        return self.sink

    def __exit__(self, *exc):
        # by identity: an outer log with equal contents is another sink
        _absorb_sinks[:] = [s for s in _absorb_sinks if s is not self.sink]


def _note_absorption(message: str) -> None:
    for sink in _absorb_sinks:
        sink.append(message)


class ExtScalar:
    """One number in plain or tower form. Immutable.

    Do not call the constructor directly; use from_value, the tower
    classmethod, or the module arithmetic.
    """

    __slots__ = ("sign", "level", "mag")

    def __init__(self, sign: int, level: int, mag):
        if level > 0 and sign != 1:
            raise RangeError("tower form must be positive")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "mag", mag)

    def __setattr__(self, name, value):
        raise AttributeError("ExtScalar is immutable")

    # -- construction ---------------------------------------------------

    @classmethod
    def tower(cls, level: int, residue) -> "ExtScalar":
        """exp applied `level` times to residue, canonicalized."""
        if level < 0:
            raise ValueError("tower level must be nonnegative")
        with _Working():
            r = _to_mpf(residue)
            h = level
            while h > 0:
                if r >= _e():
                    r = mp.ln(r)
                    h += 1
                elif r < 1:
                    r = mp.exp(r)
                    h -= 1
                else:
                    break
            if h == 0:
                return _plain(r)
            while h > MAX_TOWER_LEVEL:
                # Fold excess levels into the residue; at the cap the
                # residue may exceed e.
                if r > _EXP_ARG_CAP:
                    raise RangeError(
                        f"tower level {h} exceeds the configured maximum "
                        f"{MAX_TOWER_LEVEL}"
                    )
                r = mp.exp(r)
                h -= 1
            return cls(1, h, r)

    def as_mpf(self):
        """Plain signed value, or RangeError if the tower does not fit."""
        if self.level == 0:
            return self.mag if self.sign >= 0 else -self.mag
        with _Working():
            v = self.mag
            for _ in range(self.level):
                if v > _EXP_ARG_CAP:
                    raise RangeError(
                        "tower form exceeds the plain representable range"
                    )
                v = mp.exp(v)
        return v

    def lowered(self) -> "ExtScalar":
        """Plain-form copy of self (RangeError if infeasible)."""
        if self.level == 0:
            return self
        return _plain(self.as_mpf())

    # -- python protocol -------------------------------------------------

    def __repr__(self):
        return f"ExtScalar({fmt(self)!r})"

    def __str__(self):
        return fmt(self)

    __hash__ = None

    def _compared(self, other, op):
        """op(ext_cmp(self, other), 0), with other coerced from a number;
        NotImplemented for any other type."""
        if not isinstance(other, ExtScalar):
            if not isinstance(other, (int, float, Fraction, type(mp.mpf(1)))):
                return NotImplemented
            other = from_value(other)
        return op(ext_cmp(self, other), 0)

    def __eq__(self, other):
        return self._compared(other, operator.eq)

    def __ne__(self, other):
        return self._compared(other, operator.ne)

    def __lt__(self, other):
        return self._compared(other, operator.lt)

    def __le__(self, other):
        return self._compared(other, operator.le)

    def __gt__(self, other):
        return self._compared(other, operator.gt)

    def __ge__(self, other):
        return self._compared(other, operator.ge)

    def __abs__(self):
        return ext_abs(self)


def _e():
    return mp.e


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def _plain(v) -> ExtScalar:
    if v == 0:
        return ExtScalar(0, 0, mp.mpf(0))
    if v > 0:
        return ExtScalar(1, 0, v)
    return ExtScalar(-1, 0, -v)


_EXACT_INT = 1 << 53


def from_value(x) -> ExtScalar:
    """Coerce an int, float, Fraction, mpf, or decimal string."""
    if isinstance(x, ExtScalar):
        return x
    if not _loaded:
        _load()
    if type(x) is int and -_EXACT_INT < x < _EXACT_INT:
        # exact at every precision, so no working precision and no
        # comparisons of mpf values
        return ExtScalar((x > 0) - (x < 0), 0, mp.make_mpf(from_int(abs(x))))
    if type(x) is Fraction:
        p, q = x.numerator, x.denominator
        bits = _prec_stack[-1].significand_bits + _GUARD
        if p.bit_length() <= bits and q.bit_length() <= bits:
            # p and q are exact at the working precision, so one rounded
            # division gives the bits of mpf(p) / mpf(q) there
            mag = from_rational(abs(p), q, bits, round_nearest)
            return ExtScalar((p > 0) - (p < 0), 0, mp.make_mpf(mag))
    with _Working():
        if not isinstance(x, str):
            return _plain(_to_mpf(x))
        try:
            return _plain(mp.mpf(x.strip()))
        except (ValueError, TypeError):
            raise ParseError(f"not a scalar: {x!r}") from None


def default_scalar(q: Fraction) -> ExtScalar:
    """q as from_value rounds it at the default precision, whatever the
    active one: a constant that keeps its bits at every precision. Like
    _load, it calls no other function of this module."""
    if not _loaded:
        _load()
    p, d = q.numerator, q.denominator
    mag = from_rational(abs(p), d, _DEFAULT_BITS + _GUARD, round_nearest)
    return ExtScalar((p > 0) - (p < 0), 0, mp.make_mpf(mag))


def fmt(x, digits: int | None = None) -> str:
    """Decimal rendering; towers print as exp^h(residue). An exact int
    or Fraction prints as from_value reads it."""
    if not isinstance(x, ExtScalar):
        x = from_value(x)
    if digits is None:
        digits = max(6, int(_bits() * 0.3010) - 2)
    if x.level == 0:
        v = x.mag if x.sign >= 0 else -x.mag
        return mp.nstr(v, digits)
    return f"exp^{x.level}({mp.nstr(x.mag, digits)})"


def to_float(x) -> float:
    """x as a float, +/-inf past the float range; x is an ExtScalar, or
    an exact int or Fraction."""
    if not isinstance(x, ExtScalar):
        try:
            return float(x)
        except OverflowError:
            return float("inf") if x > 0 else float("-inf")
    if x.level > 0:
        return float("inf")
    try:
        return float(x.mag) * x.sign
    except (OverflowError, ValueError):
        return float("inf") * x.sign


# -- comparison ----------------------------------------------------------


def _cmp_mag(x: ExtScalar, y: ExtScalar) -> int:
    """Order the magnitudes of two nonzero scalars."""
    with _Working():
        hx, rx = x.level, x.mag
        hy, ry = y.level, y.mag
        # Strip ln from both sides until one is plain. ln preserves order
        # and is exact on towers.
        while hx > 0 and hy > 0:
            hx -= 1
            hy -= 1
        while hx > 0:
            if ry <= 1:
                return 1
            ry = mp.ln(ry)
            hx -= 1
        while hy > 0:
            if rx <= 1:
                return -1
            rx = mp.ln(rx)
            hy -= 1
        if rx == ry:
            return 0
        return 1 if rx > ry else -1


def ext_cmp(x: ExtScalar, y: ExtScalar) -> int:
    """Three-way compare at working precision."""
    if x.sign != y.sign:
        return 1 if x.sign > y.sign else -1
    if x.sign == 0:
        return 0
    c = _cmp_mag(x, y)
    return c if x.sign > 0 else -c


# -- addition core -------------------------------------------------------


def _log_gap_exceeds(big: ExtScalar, small: ExtScalar, bits: int) -> bool:
    """True if ln(big) - ln(small) is provably larger than bits * ln 2.

    Both arguments are positive magnitudes with big >= small.
    """
    lb = ext_ln(big)
    ls = ext_ln(small)
    sgn, gap = _add_pairs(lb.sign, ext_abs(lb), -ls.sign, ext_abs(ls))
    if sgn <= 0:
        return False
    if gap.level > 0:
        return True
    with _Working():
        return gap.mag > mp.mpf(bits) * mp.ln(2)


# Absorption messages print their numbers to this many significant
# digits at any working precision, and a magnitude past _FMT_LIMIT, or
# below _FMT_TINY (2^4096 and 2^-4096, bound by _load), as
# exp(<ln value>): the decimal digits of a number that large or that
# small take about a second each.
_WARN_DIGITS = 8


def _fmt_addend(v) -> str:
    if not v or _FMT_TINY <= abs(v) <= _FMT_LIMIT:
        return fmt(_plain(v), _WARN_DIGITS)
    text = f"exp({fmt(_plain(mp.ln(abs(v))), _WARN_DIGITS)})"
    return text if v > 0 else "-" + text


def _fmt_magnitude(x: ExtScalar) -> str:
    return fmt(x, _WARN_DIGITS) if x.level else _fmt_addend(x.mag)


def _add_plain(sx: int, xv, sy: int, yv):
    """Signed plain add with absorption detection. Returns an ExtScalar."""
    a = xv if sx > 0 else -xv
    b = yv if sy > 0 else -yv
    s = a + b
    if s == a and sy != 0:
        _note_absorption(
            f"term {_fmt_addend(b)} absorbed into {_fmt_addend(a)}"
        )
    elif s == b and sx != 0:
        _note_absorption(
            f"term {_fmt_addend(a)} absorbed into {_fmt_addend(b)}"
        )
    return _plain(s)


def _add_pairs(sx: int, xm: ExtScalar, sy: int, ym: ExtScalar):
    """Add two signed magnitudes. Returns (sign, magnitude) without
    materializing a possibly negative tower."""
    if sx == 0 or xm.sign == 0:
        return sy, ym
    if sy == 0 or ym.sign == 0:
        return sx, xm

    prec = _bits()
    with _Working():
        lx = None
        ly = None
        if xm.level > 0:
            try:
                xm = xm.lowered()
            except RangeError:
                lx = True
        if ym.level > 0:
            try:
                ym = ym.lowered()
            except RangeError:
                ly = True

        if lx is None and ly is None:
            r = _add_plain(sx, xm.mag, sy, ym.mag)
            return r.sign, ext_abs(r)

        # At least one operand is a tower beyond plain range.
        c = _cmp_mag(xm, ym)
        if c == 0:
            if sx == sy:
                _note_absorption(
                    f"equal-magnitude term folded into {fmt(xm, _WARN_DIGITS)}"
                )
                return sx, xm
            raise CancellationError(
                "difference of tower forms that agree at working precision"
            )
        if c > 0:
            sb, big, ss, small = sx, xm, sy, ym
        else:
            sb, big, ss, small = sy, ym, sx, xm
        if _log_gap_exceeds(big, small, prec + 2):
            _note_absorption(
                f"term {_fmt_magnitude(small)} absorbed into "
                f"{fmt(big, _WARN_DIGITS)}"
            )
            return sb, big
        if sb == ss:
            # The smaller term matters in value but not at the resolution
            # of a tower this size: ln(big + small) differs from ln(big)
            # by less than one ulp of the residue.
            _note_absorption(
                f"term {_fmt_magnitude(small)} below log resolution of "
                f"{fmt(big, _WARN_DIGITS)}"
            )
            return sb, big
        raise CancellationError(
            "difference of comparable tower-range values cannot be resolved"
        )


def _materialize(sign: int, mag: ExtScalar) -> ExtScalar:
    if sign == 0 or mag.sign == 0:
        return ZERO
    if mag.level > 0:
        if sign < 0:
            raise RangeError("negative values must fit plain form")
        return mag
    return ExtScalar(sign, 0, mag.mag)


def ext_add(x: ExtScalar, y: ExtScalar) -> ExtScalar:
    s, m = _add_pairs(x.sign, ext_abs(x), y.sign, ext_abs(y))
    return _materialize(s, m)


def ext_sub(x: ExtScalar, y: ExtScalar) -> ExtScalar:
    s, m = _add_pairs(x.sign, ext_abs(x), -y.sign, ext_abs(y))
    return _materialize(s, m)


def ext_neg(x: ExtScalar) -> ExtScalar:
    if x.sign == 0:
        return ZERO
    if x.level > 0:
        raise RangeError("negative values must fit plain form")
    return ExtScalar(-x.sign, 0, x.mag)


def ext_abs(x: ExtScalar) -> ExtScalar:
    if x.sign >= 0:
        return x
    return ExtScalar(1, x.level, x.mag)


# -- multiplication ------------------------------------------------------


def _product(x: ExtScalar, y: ExtScalar, power: int) -> ExtScalar:
    """x * y^power for nonzero x and y and power = 1 or -1."""
    sign = x.sign * y.sign
    if x.level == 0 and y.level == 0:
        with _Working():
            m = x.mag * y.mag if power > 0 else x.mag / y.mag
            return _materialize(sign, _plain(m))
    # Tower involved: multiply on the log side. Exponent arithmetic there
    # is an add, which carries its own absorption reporting.
    lx = ext_ln(ext_abs(x))
    ly = ext_ln(ext_abs(y))
    s, m = _add_pairs(lx.sign, ext_abs(lx), power * ly.sign, ext_abs(ly))
    return _materialize(sign, ext_exp(_materialize(s, m)))


def ext_mul(x: ExtScalar, y: ExtScalar) -> ExtScalar:
    if x.sign == 0 or y.sign == 0:
        return ZERO
    return _product(x, y, 1)


def ext_div(x: ExtScalar, y: ExtScalar) -> ExtScalar:
    if y.sign == 0:
        raise DivisionByZero("division by zero")
    if x.sign == 0:
        return ZERO
    return _product(x, y, -1)


# A plain base to an integer power of at most this magnitude is
# multiplied out; any other power is exp(y * ln x).
INT_POWER_LIMIT = 4096


def ext_pow(x: ExtScalar, y: ExtScalar) -> ExtScalar:
    if y.sign == 0:
        return ONE
    if x.sign == 0:
        if y.sign > 0:
            return ZERO
        raise DivisionByZero("zero raised to a negative power")
    if x.sign < 0:
        if y.level != 0 or not mp.isint(y.mag):
            raise DomainError(
                "non-integer power of a negative value"
            )
        # the parity of the integer man * 2^exp, read without forming
        # it: a plain y may have billions of digits
        man, exp = y.mag.man_exp
        sign = -1 if exp <= 0 and man >> -exp & 1 else 1
        mag = ext_pow(ext_abs(x), y)
        return _materialize(sign, mag)
    if (x.level == 0 and y.level == 0 and mp.isint(y.mag)
            and y.mag <= INT_POWER_LIMIT):
        with _Working():
            return _plain(x.mag ** (int(y.mag) * y.sign))
    return ext_exp(ext_mul(y, ext_ln(x)))


# -- exponentials and logarithms ------------------------------------------


def ext_ln(x: ExtScalar) -> ExtScalar:
    if x.sign <= 0:
        raise DomainError("ln of a non-positive value")
    if x.level > 0:
        if x.level == 1:
            return _plain(x.mag)
        return ExtScalar(1, x.level - 1, x.mag)
    with _Working():
        return _plain(mp.ln(x.mag))


def ext_exp(x: ExtScalar) -> ExtScalar:
    if x.sign == 0:
        return ONE
    if x.level > 0:
        # x is a positive tower; exp raises the level by one.
        if x.level + 1 > MAX_TOWER_LEVEL:
            raise RangeError(
                f"tower level {x.level + 1} exceeds the configured maximum "
                f"{MAX_TOWER_LEVEL}"
            )
        return ExtScalar(1, x.level + 1, x.mag)
    with _Working():
        v = x.mag if x.sign > 0 else -x.mag
        if abs(v) <= _EXP_ARG_CAP:
            return _plain(mp.exp(v))
        if v > 0:
            return ExtScalar.tower(1, v)
        raise RangeError("exp underflows the plain representable range")


def iter_ln(k: int, x: ExtScalar) -> ExtScalar:
    """k-fold iterated ln; k = 0 returns x unchanged."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    for _ in range(k):
        x = ext_ln(x)
    return x

