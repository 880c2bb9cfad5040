"""Terms whose verdict is known without the ladder, shared by the tests.

bertrand(ps, shift) writes the Bertrand tuple n^p0 (ln n)^p1 (lnln n)^p2
..., in n + shift when shift is not 0, and classical_verdict(ps) gives
its verdict: the first exponent away from -1 decides, and all -1
diverges (Bertrand, by the integral test).

FAMILIES holds harder terms, each with its verdict by the integral test,
by Cauchy condensation or by comparison, and with a float callable that
computes the same term. With t = ln_j n, the sum of
f(ln_j n)/(n ln n ... ln_{j-1} n) behaves like the integral of f(t) dt,
which settles each exp-log family below.

MutatedTerm wraps a term source and overrides finitely many leading
terms; the ladder never samples them, so no verdict may move.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from logladder import criteria as cr
from logladder import numeric as nm
from logladder.errors import PositivityViolation

EXPONENTS = tuple(
    Fraction(v) for v in ("-2", "-3/2", "-1", "-1/2", "0", "1")
)


def bertrand(ps, shift=0) -> str:
    """n^(p0)*(ln(n))^(p1)*(ln(ln(n)))^(p2)..., in (n+shift) if shift."""
    var = f"(n+{shift})" if shift else "n"
    factors = []
    for k, p in enumerate(ps):
        base = var if k == 0 else "(" + "ln(" * k + var + ")" * k + ")"
        factors.append(f"{base}^({p})")
    return "*".join(factors)


def bertrand_tuples(depths=(1, 2, 3)) -> list:
    """Every tuple of EXPONENTS of each length in depths."""
    return [ps for m in depths
            for ps in itertools.product(EXPONENTS, repeat=m)]


def classical_verdict(ps) -> str:
    """First exponent away from -1 decides; all -1 diverges."""
    for p in ps:
        if p != -1:
            return "converges" if p < -1 else "diverges"
    return "diverges"


class MutatedTerm(cr.TermSource):
    """A source with finitely many overridden leading terms.

    Overrides are restricted to indices 1..100 and positive values;
    grids start at index 101 or later, so every limit statistic sees
    the base sequence unchanged.
    """

    def __init__(self, base: cr.TermSource, overrides: dict):
        self.base = base
        self.overrides = {}
        for k, v in overrides.items():
            k = int(k)
            if not 1 <= k <= 100:
                raise ValueError("term overrides are limited to indices 1..100")
            val = nm.from_value(v)
            if not val.sign > 0:
                raise PositivityViolation(f"override at n={k} is not positive")
            self.overrides[k] = val
        self.text = base.text + " [mutated prefix]"

    @property
    def n_start(self):
        return self.base.n_start

    def term(self, n):
        if n.level == 0:
            v = n.as_mpf()
            if abs(v) <= 100 and v == int(v) and int(v) in self.overrides:
                return self.overrides[int(v)]
        return self.base.term(n)

    def log_combo(self):
        return self.base.log_combo()

    def sampled_log_combo(self):
        return self.base.sampled_log_combo()


class Known(NamedTuple):
    """One term: its text, its verdict and its float twin."""

    expression: str
    verdict: str
    twin: Callable[[int], float]


def _lns(x: float, j: int) -> list:
    """[x, ln x, ..., ln_j x]."""
    out = [x]
    for _ in range(j):
        out.append(math.log(out[-1]))
    return out


def _irrational_powers():
    # n^(-p) and 1/(n (ln n)^p) converge exactly when p > 1; here
    # p = 1 -/+ sqrt(2)/2^k, an irrational exponent near the boundary.
    for k, s in itertools.product((1, 2, 3), (1, -1)):
        d = s * math.sqrt(2) / 2 ** k
        sign = "+" if s > 0 else "-"
        yield Known(
            f"n^(-1{sign}2^(1/2)/2^{k})",
            "diverges" if s > 0 else "converges",
            lambda n, d=d: n ** (-1 + d),
        )
        yield Known(
            f"1/(n*(ln(n))^(1{sign}2^(1/2)/2^{k}))",
            "converges" if s > 0 else "diverges",
            lambda n, d=d: 1 / (n * math.log(n) ** (1 + d)),
        )


def _exp_of_log_power():
    # exp(-/+ t^a) over n ln n ... ln_{j-1} n with t = ln_j n: the
    # integral of exp(-t^a) is finite for every a > 0, that of exp(t^a)
    # is not.
    for j, a, s in itertools.product((1, 2, 3), ("1/4", "1/2", "1"),
                                     (-1, 1)):
        logs = ["n"] + ["ln" * i + "(n)" for i in range(1, j)]
        inner = "ln" * j + "(n)"
        sign = "-" if s < 0 else ""

        def twin(n, j=j, a=float(Fraction(a)), s=s):
            lns = _lns(n, j)
            return math.exp(s * lns[j] ** a) / math.prod(lns[:j])

        yield Known(
            f"exp({sign}({inner})^({a}))/({'*'.join(logs)})",
            "converges" if s < 0 else "diverges", twin,
        )


def _exp_of_log_over_lnln():
    # exp(c ln n/lnln n) = n^(c/lnln n) lies between every power of ln n
    # and every power n^e: over n^2 it converges for either sign; over n
    # the plus sign diverges and the minus sign converges (with t = ln n
    # the integrand exp(-c t/ln t) is below t^-2 eventually).
    for c, s, p in itertools.product((1, 2), (1, -1), (1, 2)):
        sign = "-" if s < 0 else ""
        coef = "" if c == 1 else f"{c}*"
        den = "n" if p == 1 else f"n^{p}"
        yield Known(
            f"exp({sign}{coef}ln(n)/lnln(n))/{den}",
            "diverges" if p == 1 and s > 0 else "converges",
            lambda n, c=c, s=s, p=p: (
                math.exp(s * c * math.log(n) / math.log(math.log(n)))
                / n ** p
            ),
        )


def _pre_asymptotic():
    # exp(-/+ (ln n)^(1/2)) n^(-1 +/- e): with t = ln n the exponent is
    # +/- e t -/+ t^(1/2), so the power decides, but only past
    # t = 1/e^2 when the two signs disagree.
    for e, s, q in itertools.product(("1/100", "1/1000"), (-1, 1), (-1, 1)):
        sign = "-" if s < 0 else ""
        pm = "+" if q > 0 else "-"
        yield Known(
            f"exp({sign}(ln(n))^(1/2))*n^(-1{pm}{e})",
            "diverges" if q > 0 else "converges",
            lambda n, s=s, d=q * float(Fraction(e)): (
                math.exp(s * math.log(n) ** 0.5) * n ** (-1 + d)
            ),
        )


def _cancelling():
    # Differences whose leading parts cancel; the verdict is that of the
    # first surviving term of the expansion in 1/n.
    return (
        Known("ln(n+1)-ln(n)", "diverges",  # ~ 1/n
              lambda n: math.log(n + 1) - math.log(n)),
        Known("(ln(n+1)-ln(n))^2", "converges",  # ~ 1/n^2
              lambda n: (math.log(n + 1) - math.log(n)) ** 2),
        Known("(ln(n+1)-ln(n))/ln(n)", "diverges",  # ~ 1/(n ln n)
              lambda n: (math.log(n + 1) - math.log(n)) / math.log(n)),
        Known("(ln(n+1)-ln(n))/ln(n)^2", "converges",  # ~ 1/(n ln^2 n)
              lambda n: (math.log(n + 1) - math.log(n)) / math.log(n) ** 2),
        Known("exp(1/n)-1", "diverges",  # ~ 1/n
              lambda n: math.exp(1 / n) - 1),
        Known("1/n-1/(n+1)", "converges",  # = 1/(n(n+1))
              lambda n: 1 / n - 1 / (n + 1)),
        Known("(n+1)^2-n^2", "diverges",  # = 2n+1
              lambda n: (n + 1) ** 2 - n ** 2),
        Known("1/((n+1)^2-n^2)", "diverges",  # = 1/(2n+1)
              lambda n: 1 / ((n + 1) ** 2 - n ** 2)),
    )


def _oscillating():
    # (2+(-1)^n)/b lies between 1/b and 3/b, so by comparison it has
    # the verdict of its base b.
    bases = (
        ("n^2", "converges", lambda n: n ** 2),
        ("n^(3/2)", "converges", lambda n: n ** 1.5),
        ("n^(1/2)", "diverges", lambda n: n ** 0.5),
        ("n", "diverges", lambda n: n),
        ("(n*ln(n)^2)", "converges", lambda n: n * math.log(n) ** 2),
        ("(n*ln(n))", "diverges", lambda n: n * math.log(n)),
        ("(n*ln(n)*lnln(n)^2)", "converges",
         lambda n: n * math.log(n) * math.log(math.log(n)) ** 2),
        ("(n*ln(n)*lnln(n))", "diverges",
         lambda n: n * math.log(n) * math.log(math.log(n))),
    )
    for text, verdict, base in bases:
        yield Known(f"(2+(-1)^n)/{text}", verdict,
                    lambda n, base=base: (2 + (-1) ** n) / base(n))


FAMILIES = (
    *_irrational_powers(),
    *_exp_of_log_power(),
    *_exp_of_log_over_lnln(),
    *_pre_asymptotic(),
    *_cancelling(),
    *_oscillating(),
)
