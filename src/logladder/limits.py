"""Sampling grids and the sequence-limit estimator.

Statistics are sampled along deterministic grids and handed to
estimate_limit, which decides between a finite limit, divergence to an
infinity, and "no stable limit visible". The estimator runs three stages:

1. plateau: the last window has stopped moving, with a geometric
   projection of the remaining change below tolerance;
2. Aitken delta-squared acceleration of the whole sample sequence,
   re-checked with the plateau rule;
3. polynomial extrapolation in 1/index through the accelerated tail
   (Richardson-style), accepted when two nested extrapolants agree.

Acceleration is only trusted when the recent first differences keep one
sign. Oscillating sequences (for one-sided statistics) go through the
suffix-envelope helper estimate_limsup_liminf instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

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


@dataclass(frozen=True)
class Geometric:
    """Points start * ratio^j for j = 0 .. count-1."""

    start: object
    ratio: object
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not float(self.ratio) > 1:
            raise ValueError("ratio must exceed 1")
        if not float(self.start) >= 1:
            raise ValueError("start must be at least 1")


@dataclass(frozen=True)
class TowerGeometric:
    """Points whose level-fold iterated log moves on an exact arithmetic
    grid: exp^level(start + j * step) for j = 0 .. count-1."""

    level: int
    start: object
    step: object
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.level < 1:
            raise ValueError("level must be at least 1")
        if not float(self.step) > 0:
            raise ValueError("step must be positive")
        # exp^level(start) is below 1 only at level 1 with start < 0.
        if self.level == 1 and float(self.start) < 0:
            raise ValueError("start must be at least 0 at level 1, "
                             "so that exp(start) is at least 1")


def make_grid(schedule) -> list[ExtScalar]:
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
            start = mp.mpf(str(schedule.start))
            step = mp.mpf(str(schedule.step))
            return [
                ExtScalar.tower(schedule.level, start + j * step)
                for j in range(schedule.count)
            ]
    raise TypeError(f"not a grid schedule: {schedule!r}")


@dataclass(frozen=True)
class LimitEstimate:
    """Outcome of estimate_limit.

    status is 'converged', 'diverged', or 'not_converged'. value and
    uncertainty are set when converged; direction is +1 or -1 when
    diverged. method records which stage produced the answer ('exact' is
    used by symbolic callers that bypass sampling).
    """

    status: str
    value: ExtScalar | None = None
    uncertainty: ExtScalar | None = None
    method: str = "none"
    samples_used: int = 0
    direction: int = 0

    @classmethod
    def exact(cls, value) -> "LimitEstimate":
        v = nm.from_value(value)
        return cls("converged", v, nm.ZERO, "exact", 0)

    @classmethod
    def exact_infinite(cls, direction: int) -> "LimitEstimate":
        return cls("diverged", None, None, "exact", 0, direction)


# Relative tolerance of every plateau and extrapolation check: the
# double nearest 0.001.
_REL_TOL = mp.mpf(0.001)


def _to_working_floats(values):
    """Map samples to mpf, using None for tower-range magnitudes."""
    xs = []
    for v in values:
        if isinstance(v, ExtScalar):
            try:
                xs.append(v.as_mpf())
            except RangeError:
                xs.append(None)
        elif v is None:
            xs.append(None)
        else:
            xs.append(mp.mpf(v))
    return xs


def _plateau(xs, method, count):
    scale = max(abs(xs[-1]), mp.mpf(1))
    window = xs[-min(len(xs), 6):]
    diffs = [abs(b - a) for a, b in zip(window, window[1:])]
    tiny = scale * mp.mpf(2) ** (-nm.get_precision().significand_bits // 2)
    if all(d <= tiny for d in diffs):
        return LimitEstimate(
            "converged",
            nm.from_value(xs[-1]),
            nm.from_value(sum(diffs)),
            method,
            count,
        )
    dmax = max(diffs)
    if dmax > _REL_TOL * scale:
        return None
    moving = [d for d in diffs if d > tiny]
    signed = [
        d for d in (b - a for a, b in zip(window, window[1:]))
        if abs(d) > tiny
    ]
    monotone = all(d > 0 for d in signed) or all(d < 0 for d in signed)
    if len(moving) >= 2 and monotone:
        # Project the remaining change as a geometric tail; refuse when
        # the decay is too slow to extrapolate from a flat-looking window.
        rho = max(b / a for a, b in zip(moving, moving[1:]))
        if rho >= mp.mpf("0.9"):
            return None
        projected = dmax * rho / (1 - rho)
        if projected > _REL_TOL * scale:
            return None
    elif len(moving) >= 2:
        # Sign changes inside a narrow window: the samples are rattling
        # at a noise floor around the limit, not drifting toward it.
        span = max(window) - min(window)
        if span > 2 * _REL_TOL * scale:
            return None
        return LimitEstimate(
            "converged",
            nm.from_value((max(window) + min(window)) / 2),
            nm.from_value(span),
            method,
            count,
        )
    else:
        projected = dmax
    return LimitEstimate(
        "converged",
        nm.from_value(xs[-1]),
        nm.from_value(projected + dmax),
        method,
        count,
    )


def _diverging(xs):
    tail = xs[-4:]
    signs = {1 if t > 0 else -1 for t in tail if t != 0}
    if len(signs) != 1 or any(t == 0 for t in tail):
        return None
    for a, b in zip(tail, tail[1:]):
        if not abs(b) >= mp.mpf("1.8") * abs(a):
            return None
    early = sorted(abs(t) for t in xs[: max(4, len(xs) // 2)] if t is not None)
    anchor = early[len(early) // 2] if early else mp.mpf(0)
    if abs(tail[-1]) < 100 * (anchor + 1):
        return None
    return LimitEstimate(
        "diverged", None, None, "plateau", len(xs), direction=signs.pop()
    )


def _aitken(xs):
    ys = []
    scale = max(max(abs(x) for x in xs), mp.mpf(1))
    floor = scale * mp.mpf(2) ** (-nm.get_precision().significand_bits - 5)
    for j in range(len(xs) - 2):
        d1 = xs[j + 1] - xs[j]
        d2 = xs[j + 2] - 2 * xs[j + 1] + xs[j]
        if abs(d2) <= floor:
            ys.append(xs[j + 2])
        else:
            ys.append(xs[j] - d1 * d1 / d2)
    return ys


def _neville_at_zero(points):
    """Polynomial extrapolation to h = 0 for [(h_i, y_i)]."""
    hs = [p[0] for p in points]
    table = [p[1] for p in points]
    m = len(points)
    for stage in range(1, m):
        nxt = []
        for i in range(m - stage):
            num = hs[i] * table[i + 1] - hs[i + stage] * table[i]
            nxt.append(num / (hs[i] - hs[i + stage]))
        table = nxt
    return table[0]


def estimate_limit(values) -> LimitEstimate:
    """Estimate the limit of a sampled sequence.

    values: at least 8 samples, in grid order. Accepts ExtScalar, mpf, or
    float entries; tower-range entries are treated as off-scale large.
    """
    values = list(values)
    if len(values) < 8:
        raise ValueError("estimate_limit needs at least 8 samples")
    with nm._Working():
        xs = _to_working_floats(values)
        n_off = sum(1 for x in xs if x is None)
        if n_off:
            # Off-scale samples: diverged if they dominate the tail.
            if all(x is None for x in xs[-3:]):
                return LimitEstimate(
                    "diverged", None, None, "plateau", len(xs), direction=1
                )
            xs = [x for x in xs if x is not None]
            if len(xs) < 8:
                return LimitEstimate("not_converged", samples_used=len(values))

        est = _plateau(xs, "plateau", len(xs))
        if est:
            return est
        est = _diverging(xs)
        if est:
            return est

        window = xs[-min(len(xs), 9):]
        diffs = [b - a for a, b in zip(window, window[1:])]
        nonzero = [d for d in diffs if d != 0]
        if len(nonzero) < 3 or not (
            all(d > 0 for d in nonzero) or all(d < 0 for d in nonzero)
        ):
            return LimitEstimate("not_converged", samples_used=len(values))

        ys = _aitken(xs)
        if len(ys) >= 3:
            est = _plateau(ys, "aitken", len(xs))
            if est:
                return est
        if len(ys) >= 4:
            m = min(7, len(ys))
            pts = [
                (mp.mpf(1) / (len(ys) - m + i + 1), ys[len(ys) - m + i])
                for i in range(m)
            ]
            e1 = _neville_at_zero(pts)
            e2 = _neville_at_zero(pts[1:])
            scale = max(abs(e1), mp.mpf(1))
            if abs(e1 - e2) <= _REL_TOL * scale:
                return LimitEstimate(
                    "converged",
                    nm.from_value(e1),
                    nm.from_value(abs(e1 - e2) * 2),
                    "richardson",
                    len(xs),
                )
        return LimitEstimate("not_converged", samples_used=len(values))


def estimate_limsup_liminf(values):
    """Limits of the suffix maxima and minima of the samples.

    Returns (limsup_estimate, liminf_estimate). Useful for statistics
    that oscillate: the suffix envelopes are monotone, so the ordinary
    estimator applies to them.
    """
    values = list(values)
    if len(values) < 8:
        raise ValueError("estimate_limsup_liminf needs at least 8 samples")
    with nm._Working():
        xs = _to_working_floats(values)
        if any(x is None for x in xs):
            sup = LimitEstimate(
                "diverged", None, None, "plateau", len(xs), direction=1
            )
            finite = [x for x in xs if x is not None]
            if len(finite) >= 8:
                _, inf = estimate_limsup_liminf(
                    [nm.from_value(x) for x in finite]
                )
            else:
                inf = LimitEstimate("not_converged", samples_used=len(xs))
            return sup, inf
        sup_seq = []
        inf_seq = []
        cur_max = None
        cur_min = None
        for x in reversed(xs):
            cur_max = x if cur_max is None else max(cur_max, x)
            cur_min = x if cur_min is None else min(cur_min, x)
            sup_seq.append(cur_max)
            inf_seq.append(cur_min)
        sup_seq.reverse()
        inf_seq.reverse()
        # Envelope entries near the end come from suffixes too short to
        # see a full oscillation; drop them.
        trim = max(2, len(xs) // 8)
        trim = min(trim, len(xs) - 8)
        if trim > 0:
            sup_seq = sup_seq[:-trim]
            inf_seq = inf_seq[:-trim]

        def run(seq):
            # The envelope moves in stairs; collapse the flats so the
            # accelerator sees the underlying monotone decay.
            compressed = [seq[0]]
            for x in seq[1:]:
                if x != compressed[-1]:
                    compressed.append(x)
            use = compressed if len(compressed) >= 8 else seq
            return estimate_limit([nm.from_value(x) for x in use])

        return run(sup_seq), run(inf_seq)
