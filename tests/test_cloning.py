"""Tests for the spin-ensemble cloning curves."""

from __future__ import annotations

import math

import pytest

from epops.apps import cloning_tradeoff, first_round_fidelity
from epops.coarse import tradeoff_curve
from epops.errors import ParityMismatch
from epops.spectra import binomial_profile


def test_parity_mismatch_rejected():
    with pytest.raises(ParityMismatch):
        cloning_tradeoff(3, 4, 5)
    with pytest.raises(ParityMismatch):
        first_round_fidelity(2, 5)


def test_shrinking_rejected():
    with pytest.raises(ValueError):
        cloning_tradeoff(6, 4, 5)


def test_zero_spins_rejected():
    with pytest.raises(ValueError, match="must be positive"):
        cloning_tradeoff(0, 2, 1)


def test_equal_sizes_give_trivial_curve():
    curve = cloning_tradeoff(5, 5, 10)
    assert len(curve.points) == 1
    pt = curve.points[0]
    assert pt.p_succ == pytest.approx(1.0, abs=1e-12)
    assert pt.F_recursive == pytest.approx(1.0, abs=1e-12)
    assert pt.F_coarse == pytest.approx(1.0, abs=1e-12)


def test_two_into_four_by_hand():
    # Magnetization weights: input {1/4, 1/2, 1/4}, target
    # {1/16, 4/16, 6/16, 4/16, 1/16}; ratios 1 on m = +-2 and 4/3 on m = 0.
    curve = cloning_tradeoff(2, 4, 10)
    assert len(curve.points) == 2
    first, second = curve.points
    assert first.F_recursive == pytest.approx(14.0 / 16.0, abs=1e-12)
    assert first.p_succ == pytest.approx(14.0 / 16.0, abs=1e-12)
    assert second.p_succ == pytest.approx(1.0, abs=1e-12)
    assert first_round_fidelity(2, 4) == pytest.approx(14.0 / 16.0, abs=1e-12)


def test_first_round_fidelity_matches_curve():
    curve = cloning_tradeoff(10, 20, 3)
    assert curve.points[0].F_recursive == pytest.approx(
        first_round_fidelity(10, 20), rel=1e-10
    )


def test_wide_target_keeps_fidelity_near_one():
    f = first_round_fidelity(80, 400)
    assert 0.0 < 1.0 - f < 1e-4


def test_superreplication_probability_anchor():
    curve = cloning_tradeoff(80, 400, 40)
    p1 = curve.points[0].p_succ
    assert abs(math.log(p1) - math.log(6e-20)) <= math.log(1.5)


def test_cumulative_probability_anchor_at_step_31():
    curve = cloning_tradeoff(80, 400, 40)
    assert curve.points[30].p_succ == pytest.approx(0.23, abs=0.02)


def test_monotone_tradeoff():
    curve = cloning_tradeoff(80, 400, 41)
    pts = curve.points
    assert len(pts) == 41
    assert all(b.p_succ > a.p_succ for a, b in zip(pts, pts[1:]))
    assert all(b.F_recursive < a.F_recursive for a, b in zip(pts, pts[1:]))
    for pt in pts:
        assert pt.F_coarse >= pt.F_recursive - 1e-12


@pytest.mark.parametrize("N, M", [(1, 1), (5, 5), (2, 4), (10, 12), (80, 400), (3, 3001),
                                  (1000, 1500), (1100, 1100), (1100, 1102)])
def test_curve_equals_the_curve_on_the_whole_binomial_target(N, M):
    # The curve reads the whole binomial target; every bit must stay.
    # At M = 3001 and 1500 the far tails of the target underflow to 0,
    # and at N = 1100 so do shared sectors, which both profiles drop.
    whole = tradeoff_curve(binomial_profile(N), binomial_profile(M), 64)
    assert cloning_tradeoff(N, M, 64) == whole
