"""Exception types shared across the package.

Everything raised on purpose derives from LogLadderError so callers can
catch the package's failures with one except clause.
"""

from __future__ import annotations


class LogLadderError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LogLadderError):
    """An operation was applied outside its mathematical domain.

    Examples: ln of a non-positive value, a fractional power of a negative
    value, evaluating a sequence below its domain start.
    """


class DivisionByZero(LogLadderError):
    """Division or negative power of an exact zero."""


class RangeError(LogLadderError):
    """A value left the representable range of the extended scalars.

    Raised for negatives or reciprocals of tower-form magnitudes that do
    not fit plain form, and for exp of very negative arguments whose result
    underflows every supported representation.
    """


class CancellationError(LogLadderError):
    """A subtraction lost so much significance the result is unusable.

    Raised instead of returning a value that would be dominated by
    rounding noise, e.g. the difference of two tower forms that agree at
    working precision, or a finite-difference of a custom scale function
    that cancels past the safety margin.
    """


class ParseError(LogLadderError):
    """Sequence expression text failed to parse.

    The message names the character position of the failure when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnboundParameterError(LogLadderError):
    """An expression was evaluated or analyzed with free parameters left."""

    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(
            "unbound parameter(s): " + ", ".join(self.names)
        )


class PositivityViolation(LogLadderError):
    """A sequence produced a non-positive term where positivity is required."""


class AssumptionViolation(LogLadderError):
    """A scale function failed one of its structural assumptions.

    which: 'a' for monotone growth to infinity with a usable inverse,
    'b' for the slow-variation requirement w(x+y)/w(x) -> 1.
    """

    def __init__(self, message: str, which: str):
        super().__init__(message)
        self.which = which


class BudgetExceededError(LogLadderError):
    """A summation or search would exceed its term budget."""
