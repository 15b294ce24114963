"""Tests for damped-qudit correction curves."""

from __future__ import annotations

import math
import time

import pytest

from epops.apps import correction_tradeoff, haar_average_fidelity
from epops.apps.correction import damped_profile, round_probability, uniform_levels


def test_damped_profile_is_geometric_and_normalized():
    d, mu = 7, 0.3
    p = damped_profile(d, mu)
    assert p.support == tuple(range(1, d + 1))
    assert math.fsum(p.weight(n) for n in p.support) == pytest.approx(1.0, abs=1e-12)
    for n in range(1, d):
        assert p.weight(n + 1) / p.weight(n) == pytest.approx(mu, rel=1e-12)


def test_uniform_levels_labels():
    q = uniform_levels(5)
    assert q.support == (1, 2, 3, 4, 5)
    assert q.weight(3) == pytest.approx(0.2, abs=1e-15)


def test_haar_map_fixed_points():
    assert haar_average_fidelity(1.0, 9) == pytest.approx(1.0, abs=1e-15)
    d = 11
    assert haar_average_fidelity(1.0 / d, d) == pytest.approx(2.0 / (d + 1), abs=1e-15)
    with pytest.raises(ValueError):
        haar_average_fidelity(0.5, 0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        correction_tradeoff(1, 0.5, 3)
    with pytest.raises(ValueError):
        correction_tradeoff(5, 0.0, 3)
    with pytest.raises(ValueError):
        correction_tradeoff(5, 1.0, 3)


def test_sector_fidelities_follow_closed_form():
    d, mu = 7, 0.3
    res = correction_tradeoff(d, mu, d)
    run_fidelities = [
        haar_average_fidelity((d + 1 - k) / d, d) for k in range(1, d + 1)
    ]
    # Cumulative averages of those per-round values, weighted by the
    # closed-form probabilities, reproduce the averaged curve.
    probs = [round_probability(d, mu, k) for k in range(1, d + 1)]
    for idx, pt in enumerate(res.average_curve.points):
        total = math.fsum(probs[: idx + 1])
        want = (
            math.fsum(p * f for p, f in zip(probs[: idx + 1], run_fidelities))
            / total
        )
        assert pt.F_recursive == pytest.approx(want, abs=1e-10)
        assert pt.p_succ == pytest.approx(total, abs=1e-10)


def test_final_round_reaches_haar_floor():
    d, mu = 9, 0.5
    res = correction_tradeoff(d, mu, d)
    last_sector = res.sector_curve.points[-1]
    assert last_sector.p_succ == pytest.approx(1.0, abs=1e-10)
    # The last round alone has sector fidelity 1/d, mapping to 2/(d+1).
    assert haar_average_fidelity(1.0 / d, d) == pytest.approx(2.0 / (d + 1))


def test_probability_anchors():
    res = correction_tradeoff(100, 0.9, 100)
    p1 = res.sector_curve.points[0].p_succ
    closed = 0.9**99 * 0.1 * 100 / (1.0 - 0.9**100)
    assert p1 == pytest.approx(closed, rel=1e-10)
    assert p1 == pytest.approx(3e-4, rel=0.02)
    assert res.sector_curve.points[67].p_succ == pytest.approx(0.14, abs=0.01)


def test_average_curve_is_affine_image_of_sector_curve():
    d = 12
    res = correction_tradeoff(d, 0.7, d)
    for raw, avg in zip(res.sector_curve.points, res.average_curve.points):
        assert avg.p_succ == raw.p_succ
        assert avg.F_recursive == pytest.approx(
            haar_average_fidelity(raw.F_recursive, d), abs=1e-14
        )
        assert avg.F_coarse == pytest.approx(
            haar_average_fidelity(raw.F_coarse, d), abs=1e-14
        )


def test_large_dimension_stays_fast():
    # Every column is a prefix sum over the ratio-sorted levels, so a
    # 1600-level curve costs milliseconds; the per-round dict engine it
    # replaced took 16 s at d = 400.
    start = time.perf_counter()
    res = correction_tradeoff(1600, 0.9, 1600)
    assert time.perf_counter() - start < 2.0
    assert len(res.sector_curve.points) == 1600
    assert res.sector_curve.points[-1].p_succ == pytest.approx(1.0, abs=1e-10)
