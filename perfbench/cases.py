"""Seeded inputs and their references for the three benchmark workloads.

Standard library only: the set-up probe imports this module in a fresh
interpreter, and set-up time must not pay for numpy or mpmath.

Every reference here is independent of logladder:
- ladder cases carry the classical Bertrand verdict of the exponent tuple
  (the first exponent that is not -1 decides; all -1 diverges), which a
  shift n -> n+c does not change;
- power sums carry (s, first index, last index), checked afterwards
  against Hurwitz zeta windows computed by mpmath;
- verify cases are rate claims known to hold, so each must pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("ladder-exact", "ladder-sampled", "oracle")

EXPONENTS = tuple(Fraction(v) for v in ("-2", "-3/2", "-1", "-1/2", "0", "1"))
SHIFTS = (1, 2, 3)

ORACLE_TOP = 10**8
TAIL_FROM = 10**4
# One oracle pass sums one power of each (kind, exponent class) pair. Integer
# exponents and fractional ones run at different speeds, so every pass holds
# both and the seed only orders the values within a class.
SUM_EXPONENTS = {
    ("partial", "integer"): ("2", "3"),
    ("partial", "fraction"): ("1/2", "3/4", "5/4", "3/2", "7/4", "5/2"),
    ("tail", "integer"): ("2", "3"),
    ("tail", "fraction"): ("5/4", "3/2", "7/4", "5/2"),
}
VERIFY_CLAIMS = (
    "1/(n*ln(n))",
    "(ln(n))^(-2)/n",
    "1/(n^2+1)",
    "n^(-1/2)",
    "n^(-3/2)",
    "1/(n*ln(n+1))",
)
ORACLE_PASSES = 12

# Wrong-side verdicts of the numeric backend on shifted Bertrand tuples, as
# measured on the seed code (ROADMAP open item 1), keyed by (shift, tuple).
# They are counted and listed in every run; only a wrong verdict outside this
# list makes a run incorrect.
KNOWN_WRONG = frozenset(
    (c, tuple(Fraction(p) for p in ps.split()))
    for c, ps in (
        (1, "-1 -1/2"),
        (1, "-1 -1 -1"),
        (1, "-1 -1 -1/2"),
        (1, "-1 -1/2 0"),
        (1, "-1 -1/2 1"),
        (2, "-1 -1/2"),
        (2, "-1 -2 -2"),
        (2, "-1 -3/2 -2"),
        (2, "-1 -1 -1"),
        (2, "-1 -1 -1/2"),
        (2, "-1 -1/2 0"),
        (2, "-1 -1/2 1"),
        (3, "-1 -1/2"),
        (3, "-1 -2 -2"),
        (3, "-1 -2 -3/2"),
        (3, "-1 -3/2 -2"),
        (3, "-1 -3/2 -3/2"),
        (3, "-1 -1 -2"),
        (3, "-1 -1 -3/2"),
        (3, "-1 -1 -1"),
        (3, "-1 -1 -1/2"),
        (3, "-1 -1/2 0"),
        (3, "-1 -1/2 1"),
    )
)


@dataclass(frozen=True)
class Case:
    """One CLI call and the reference its output is checked against.

    kind is 'analyze', 'sum' or 'verify'. For 'analyze', expect is the
    classical verdict and tuple/shift identify the Bertrand case; for 'sum',
    (s, lo, hi) describe the window of n^(-s) being summed.
    """

    argv: tuple
    kind: str
    expect: str | None = None
    ps: tuple = ()
    shift: int = 0
    s: Fraction | None = None
    lo: int = 0
    hi: int = 0

    @property
    def expression(self) -> str:
        return self.argv[1]

    @property
    def known_wrong(self) -> bool:
        return (self.shift, self.ps) in KNOWN_WRONG


def bertrand_expression(ps, shift: int = 0) -> str:
    """n^p0*(ln(n))^p1*..., written in n+shift when shift is nonzero."""
    var = "n" if shift == 0 else f"(n+{shift})"
    factors = []
    for k, p in enumerate(ps):
        base = var if k == 0 else "(" + "ln(" * k + var + ")" * k + ")"
        factors.append(f"{base}^({p})")
    return "*".join(factors)


def classical_verdict(ps) -> str:
    for p in ps:
        if p != -1:
            return "converges" if p < -1 else "diverges"
    return "diverges"


def _tuples(max_m: int):
    for m in range(1, max_m + 1):
        yield from itertools.product(EXPONENTS, repeat=m)


def _ladder_case(ps, shift: int) -> Case:
    return Case(
        argv=("analyze", bertrand_expression(ps, shift), "--json"),
        kind="analyze",
        expect=classical_verdict(ps),
        ps=tuple(ps),
        shift=shift,
    )


def ladder_exact(rng: random.Random) -> list:
    """All 1554 Bertrand tuples with m <= 4, in seeded order."""
    cases = [_ladder_case(ps, 0) for ps in _tuples(4)]
    rng.shuffle(cases)
    return cases


def ladder_sampled(rng: random.Random) -> list:
    """All 258 tuples with m <= 3, each in n+c with c drawn per tuple."""
    tuples = list(_tuples(3))
    rng.shuffle(tuples)
    return [_ladder_case(ps, rng.choice(SHIFTS)) for ps in tuples]


def _sum_case(kind: str, s_text: str) -> Case:
    expr = f"n^(-{s_text})"
    if kind == "partial":
        argv = ("sum", expr, str(ORACLE_TOP), "--json")
        lo = 1
    else:
        argv = ("sum", expr, str(ORACLE_TOP), "--tail-from", str(TAIL_FROM),
                "--json")
        lo = TAIL_FROM
    return Case(argv=argv, kind="sum", s=Fraction(s_text), lo=lo,
                hi=ORACLE_TOP)


def oracle(rng: random.Random) -> list:
    """Passes of four power sums and the six verify claims, each shuffled.

    Each exponent class is walked in a seeded order, so a run of a few
    passes sees most of its values whatever the seed.
    """
    walks = {}
    for key, values in SUM_EXPONENTS.items():
        walks[key] = list(values)
        rng.shuffle(walks[key])
    cases = []
    for k in range(ORACLE_PASSES):
        one = [
            _sum_case(kind, walk[k % len(walk)])
            for (kind, _cls), walk in walks.items()
        ]
        one += [
            Case(argv=("verify", e, "--json"), kind="verify")
            for e in VERIFY_CLAIMS
        ]
        rng.shuffle(one)
        cases += one
    return cases


def generate(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {
        "ladder-exact": ladder_exact,
        "ladder-sampled": ladder_sampled,
        "oracle": oracle,
    }[workload](rng)
