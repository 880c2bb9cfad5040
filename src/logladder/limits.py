"""Sampling grids and the sequence-limit estimator.

Statistics are sampled along deterministic grids and handed to the
estimator, which decides between a finite limit, divergence to an
infinity, and "no stable limit visible".

A statistic on the boundary of a scale converges logarithmically, like
the next term of the log hierarchy, and no accelerator works on every
logarithmically converging sequence (Delahaye & Germain-Bonne, Numer.
Math. 35, 1980). So the estimator does not accelerate; it fits and can
refuse. It fits a + b1*e1 + b2*e2 by least squares over the trailing
samples, where e1 and e2 are the statistic's own drift terms, and
reports a with the uncertainty |b1*e1 + b2*e2| at the last point plus
the largest residual. A residual above tolerance means the samples do
not follow the model: no limit. Samples that grow geometrically, or
leave the plain range at the end, diverge. Callers decide a side only
when the limit clears the margin by more than the uncertainty.

Without drift terms, estimate_limit models the error in the sample
position j, as 1/j and 1/j^2; estimate_limsup_liminf fits the suffix
envelopes of oscillating samples that way.
"""

from __future__ import annotations

import math

from . import numeric as nm
from .errors import RangeError
from .numeric import ExtScalar

__all__ = [
    "Geometric",
    "TowerGeometric",
    "make_grid",
    "LimitEstimate",
    "estimate_limit",
    "estimate_limsup_liminf",
]


class Geometric:
    """Points start * ratio^j for j = 0 .. count-1."""

    __slots__ = ("start", "ratio", "count")

    def __init__(self, start, ratio, count: int):
        if count < 1:
            raise ValueError("count must be at least 1")
        if not float(ratio) > 1:
            raise ValueError("ratio must exceed 1")
        if not float(start) >= 1:
            raise ValueError("start must be at least 1")
        self.start, self.ratio, self.count = start, ratio, count


class TowerGeometric:
    """Points whose level-fold iterated log moves on an exact arithmetic
    grid: exp^level(start + j * step) for j = 0 .. count-1."""

    __slots__ = ("level", "start", "step", "count")

    def __init__(self, level: int, start, step, count: int):
        if count < 1:
            raise ValueError("count must be at least 1")
        if level < 1:
            raise ValueError("level must be at least 1")
        if not float(step) > 0:
            raise ValueError("step must be positive")
        # exp^level(start) is below 1 only at level 1 with start < 0.
        if level == 1 and float(start) < 0:
            raise ValueError("start must be at least 0 at level 1, "
                             "so that exp(start) is at least 1")
        self.level, self.start, self.step = level, start, step
        self.count = count


def make_grid(schedule) -> list[ExtScalar]:
    """The points of a schedule, a list of schedules, or of points."""
    if isinstance(schedule, ExtScalar):
        return [schedule]
    if isinstance(schedule, (list, tuple)):
        pts: list[ExtScalar] = []
        for s in schedule:
            pts.extend(make_grid(s))
        return pts
    if isinstance(schedule, Geometric):
        start = nm.from_value(schedule.start)
        ratio = nm.from_value(schedule.ratio)
        pts = []
        p = start
        for _ in range(schedule.count):
            pts.append(p)
            p = nm.ext_mul(p, ratio)
        return pts
    if isinstance(schedule, TowerGeometric):
        with nm._Working():
            start = nm.mp.mpf(str(schedule.start))
            step = nm.mp.mpf(str(schedule.step))
            return [
                ExtScalar.tower(schedule.level, start + j * step)
                for j in range(schedule.count)
            ]
    raise TypeError(f"not a grid schedule: {schedule!r}")


class LimitEstimate:
    """Outcome of estimate_limit.

    status is 'converged', 'diverged', or 'not_converged'. value and
    uncertainty are set when converged; direction is +1 or -1 when
    diverged. method records which stage produced the answer ('exact' is
    used by symbolic callers that bypass sampling: their value is a
    Fraction, or an ExtScalar for a constant with logs, and their
    uncertainty is 0).
    """

    __slots__ = ("status", "value", "uncertainty", "method", "samples_used",
                 "direction")

    def __init__(self, status: str, value=None, uncertainty=None,
                 method: str = "none", samples_used: int = 0,
                 direction: int = 0):
        self.status, self.value, self.uncertainty = status, value, uncertainty
        self.method, self.samples_used = method, samples_used
        self.direction = direction

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if type(other) is not LimitEstimate:
            return NotImplemented
        return self._values() == other._values()

    @classmethod
    def exact(cls, value) -> "LimitEstimate":
        return cls("converged", value, 0, "exact", 0)

    @classmethod
    def exact_infinite(cls, direction: int) -> "LimitEstimate":
        return cls("diverged", None, None, "exact", 0, direction)


# Relative tolerance of the fit residual: the double nearest 0.001. The
# fit multiplies it into an mpf, which reads a float exactly.
_REL_TOL = 0.001
# The fit skips the leading 1/_LEAD_SHARE of the samples, where terms
# beyond the drift model still weigh.
_LEAD_SHARE = 4


def _to_working_floats(values):
    """Map samples to mpf, using None for tower-range magnitudes."""
    xs = []
    for v in values:
        try:
            xs.append(None if v is None else nm.from_value(v).as_mpf())
        except RangeError:
            xs.append(None)
    return xs


def _diverging(xs):
    tail = xs[-4:]
    signs = {1 if t > 0 else -1 for t in tail if t != 0}
    if len(signs) != 1 or any(t == 0 for t in tail):
        return None
    for a, b in zip(tail, tail[1:]):
        if not abs(b) >= nm.mp.mpf("1.8") * abs(a):
            return None
    early = sorted(abs(t) for t in xs[: max(4, len(xs) // 2)] if t is not None)
    anchor = early[len(early) // 2] if early else nm.mp.mpf(0)
    if abs(tail[-1]) < 100 * (anchor + 1):
        return None
    return LimitEstimate(
        "diverged", None, None, "fit", len(xs), direction=signs.pop()
    )


def _least_squares(xs, eps):
    """Fit xs ~ a + b1*e1 + b2*e2 in closed form, the centred samples
    in floats. Returns (a, b1, b2, the largest residual); e2 is dropped
    (b2 = 0) if the window cannot tell it from e1."""
    k = len(xs)
    mx = sum(xs) / k
    ys = [float(x - mx) for x in xs]
    m1 = sum(e[0] for e in eps) / k
    m2 = sum(e[1] for e in eps) / k
    u = [e[0] - m1 for e in eps]
    v = [e[1] - m2 for e in eps]
    s11, s12, s22, s1y, s2y = (
        math.fsum(p * q for p, q in zip(a, b))
        for a, b in ((u, u), (u, v), (v, v), (u, ys), (v, ys))
    )
    det = s11 * s22 - s12 * s12
    b1 = b2 = 0.0
    if det > 1e-12 * s11 * s22:
        b1 = (s22 * s1y - s12 * s2y) / det
        b2 = (s11 * s2y - s12 * s1y) / det
    elif s11 > 0:
        b1 = s1y / s11
    resid = max(abs(y - b1 * p - b2 * q) for y, p, q in zip(ys, u, v))
    return mx - (b1 * m1 + b2 * m2), b1, b2, resid


def estimate_limit(values, eps=None) -> LimitEstimate:
    """Estimate the limit of samples whose error follows the drift terms.

    values: at least 8 samples, in grid order (ExtScalar, mpf or float;
    tower-range entries read as off-scale large). eps: one pair
    (e1, e2) of drift terms per sample, each tending to 0 along the
    grid; None models the error in the sample position j, as 1/j and
    1/j^2. The limit a of the least-squares fit a + b1*e1 + b2*e2 over
    the trailing samples is reported with the uncertainty |fitted drift
    at the last point| + largest residual; a residual above tolerance
    means the samples do not follow the model.
    """
    values = list(values)
    if len(values) < 8:
        raise ValueError("estimate_limit needs at least 8 samples")
    if eps is None:
        eps = [(1 / j, 1 / j**2) for j in range(1, len(values) + 1)]
    with nm._Working():
        pairs = list(zip(_to_working_floats(values), eps))
        # Off-scale samples: diverged if they dominate the tail.
        if all(x is None for x, _ in pairs[-3:]):
            return LimitEstimate(
                "diverged", None, None, "fit", len(pairs), direction=1
            )
        pairs = [(x, e) for x, e in pairs if x is not None]
        if len(pairs) < 8:
            return LimitEstimate("not_converged", samples_used=len(values))
        xs = [x for x, _ in pairs]
        if est := _diverging(xs):
            return est
        tail = pairs[len(pairs) // _LEAD_SHARE:]
        a, b1, b2, resid = _least_squares(*zip(*tail))
        e1, e2 = tail[-1][1]
        drift = b1 * e1 + b2 * e2
        if not resid <= _REL_TOL * max(abs(a), 1):
            return LimitEstimate("not_converged", samples_used=len(values))
        unc = abs(drift) + resid
        if drift * (tail[-1][0] - tail[-2][0]) > 0:
            # The fit puts the limit behind the last sample, against
            # the samples' last step: mirror the interval past it.
            unc += abs(drift)
        return LimitEstimate("converged", nm.from_value(a),
                             nm.from_value(unc), "fit", len(xs))


def estimate_limsup_liminf(values):
    """Limits of the suffix maxima and minima of the samples.

    Returns (limsup_estimate, liminf_estimate). Useful for statistics
    that oscillate: the suffix envelopes are monotone, so the ordinary
    estimator applies to them. Off-scale samples make the upper
    envelope diverge.
    """
    values = list(values)
    if len(values) < 8:
        raise ValueError("estimate_limsup_liminf needs at least 8 samples")
    with nm._Working():
        xs = _to_working_floats(values)
        finite = [x for x in xs if x is not None]
        sups, infs = [], []
        for x in reversed(finite):
            sups.append(max(x, sups[-1]) if sups else x)
            infs.append(min(x, infs[-1]) if infs else x)
        # Envelope entries near the end come from suffixes too short to
        # see a full oscillation; drop them.
        trim = max(min(max(2, len(finite) // 8), len(finite) - 8), 0)
        head, tail = finite[:len(finite) - trim], finite[len(finite) - trim:]

        def run(seq, beyond):
            seq = seq[trim:][::-1]
            if len(seq) < 8 or beyond:
                # an extreme reached only in the trimmed tail makes the
                # envelope flat at it: the statistic is still moving
                return LimitEstimate("not_converged", samples_used=len(xs))
            # The envelope moves in stairs; collapse the flats so the
            # fit sees the underlying monotone decay.
            flat = [x for i, x in enumerate(seq) if i == 0 or x != seq[i - 1]]
            use = flat if len(flat) >= 8 else seq
            return estimate_limit([nm.from_value(x) for x in use])

        if len(finite) < len(xs):
            sup = LimitEstimate(
                "diverged", None, None, "fit", len(xs), direction=1
            )
        else:
            sup = run(sups, bool(tail) and max(tail) > max(head))
        return sup, run(infs, bool(tail) and min(tail) < min(head))
