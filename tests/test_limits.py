"""Limit estimation from samples and sampling grids."""

import math

import pytest

from logladder import criteria as cr
from logladder import limits as lm
from logladder import numeric as nm
from logladder import scale as sc


def _vals(xs):
    return [nm.from_value(x) for x in xs]


def test_converging_sequence():
    est = lm.estimate_limit(_vals([-1 + 3 / j for j in range(1, 65)]))
    assert est.status == "converged"
    assert nm.to_float(est.value) == pytest.approx(-1, abs=1e-3)


def test_exact_plateau():
    est = lm.estimate_limit(_vals([2.5] * 12))
    assert est.status == "converged"
    assert nm.to_float(est.value) == 2.5


def test_too_few_samples():
    with pytest.raises(ValueError):
        lm.estimate_limit(_vals([1.0] * 5))


def test_diverging_sequence():
    est = lm.estimate_limit(_vals([2.0**j for j in range(1, 20)]))
    assert est.status == "diverged"
    assert est.direction > 0


def test_diverging_negative():
    est = lm.estimate_limit(_vals([-(2.0**j) for j in range(1, 20)]))
    assert est.status == "diverged"
    assert est.direction < 0


def test_oscillation_not_converged():
    est = lm.estimate_limit(_vals([(-1) ** j for j in range(40)]))
    assert est.status == "not_converged"


def test_noise_floor_accepted():
    # flat window rattling by ~1e-9 in both directions around -2
    base = [-2 + 1e-9 * s for s in (1, -1, 1, -1, 0, 1, -1, 1, -1, 0, 1, -1)]
    est = lm.estimate_limit(_vals(base))
    assert est.status == "converged"
    assert nm.to_float(est.value) == pytest.approx(-2, abs=1e-6)


def test_slow_monotone_drift_refused():
    # unbounded log drift must not be mistaken for a plateau
    vals = [math.log(k) for k in range(3, 70)]
    est = lm.estimate_limit(_vals(vals))
    assert est.status != "converged"


def test_limsup_liminf_alternating():
    xs = [(-1) ** j * (1 + 1 / j) for j in range(1, 80)]
    sup, inf = lm.estimate_limsup_liminf(_vals(xs))
    assert sup.status == "converged"
    assert inf.status == "converged"
    assert nm.to_float(sup.value) == pytest.approx(1, abs=1e-2)
    assert nm.to_float(inf.value) == pytest.approx(-1, abs=1e-2)


def test_exact_helpers():
    e = lm.LimitEstimate.exact(nm.from_value(3))
    assert e.status == "converged" and nm.to_float(e.value) == 3.0
    d = lm.LimitEstimate.exact_infinite(-1)
    assert d.status == "diverged" and d.direction == -1


def test_geometric_grid():
    grid = lm.make_grid(lm.Geometric(101, 10, 5))
    floats = [nm.to_float(g) for g in grid]
    assert floats == [101, 1010, 10100, 101000, 1010000]


def test_tower_grid_is_increasing_and_huge():
    grid = lm.make_grid(lm.TowerGeometric(2, 3, 1, 6))
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # deep entries leave float range entirely
    assert math.isinf(nm.to_float(grid[-1]))


def test_grid_validation():
    with pytest.raises(ValueError):
        lm.Geometric(10, 1, 5)  # ratio must exceed 1
    with pytest.raises(ValueError):
        lm.TowerGeometric(0, 3, 1, 5)  # level must be >= 1


def test_envelope_with_extreme_in_trimmed_tail_is_not_converged():
    # the scaled-log statistic of (2+(-1)^n)/sqrt(n) at w = ln oscillates
    # while it grows: every suffix maximum is the last peak, and a flat
    # upper envelope must not read as a converged limsup
    term = cr.CallableTerm(lambda n: (2 + (-1) ** n) / n ** 0.5, n_start=2)
    stat = cr._quotient_statistic(term, sc.IterLog(1), 0)
    samples = cr._measure(stat, cr.AnalysisPolicy()).samples
    xs = [nm.to_float(v) for v in samples]
    assert max(xs) == max(xs[-2:]) > max(xs[:-2])
    sup, inf = lm.estimate_limsup_liminf(samples)
    assert sup.status == "not_converged"
    assert inf.status == "not_converged"


def test_envelope_with_extreme_in_head_still_converges():
    xs = [(-1) ** j * 0.5 / j - 1 for j in range(1, 41)]
    sup, inf = lm.estimate_limsup_liminf(_vals(xs))
    assert sup.status == "converged" and inf.status == "converged"
    assert nm.to_float(sup.value) == pytest.approx(-1, abs=0.02)
    assert nm.to_float(inf.value) == pytest.approx(-1, abs=0.02)
