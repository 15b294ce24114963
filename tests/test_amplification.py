"""Tests for coherent-amplitude amplification curves and their audits."""

from __future__ import annotations

import math

import pytest

from epops.apps import amplification_tradeoff
from epops.apps.amplification import fidelity_floor, tail_deficit
from epops.errors import CutoffTooSmall
from epops.spectra import poisson_profile, ratio_table


def test_cutoff_must_clear_target_mean():
    with pytest.raises(CutoffTooSmall):
        amplification_tradeoff(1.0, 1.5, 2, 5)


def test_amplitude_validation():
    with pytest.raises(ValueError):
        amplification_tradeoff(-0.1, 1.0, 10, 5)
    with pytest.raises(ValueError):
        amplification_tradeoff(1.5, 1.0, 10, 5)
    with pytest.raises(ValueError):
        amplification_tradeoff(0.0, 0.0, 10, 5)


@pytest.mark.parametrize("r1, r2", [
    (math.nan, 1.5), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf),
])
def test_non_finite_amplitudes_are_invalid(r1, r2):
    with pytest.raises(ValueError, match="must both be finite"):
        amplification_tradeoff(r1, r2, 80, 81)


def test_equal_amplitudes_are_trivial():
    res = amplification_tradeoff(1.2, 1.2, 20, 5)
    assert len(res.curve.points) == 1
    pt = res.curve.points[0]
    assert pt.p_succ == pytest.approx(1.0, abs=1e-12)
    assert pt.F_recursive == pytest.approx(1.0, abs=1e-12)
    assert res.audits[0].closed_form == pytest.approx(1.0, abs=1e-12)


def test_ratio_table_is_geometric_with_singleton_groups():
    r1, r2, cutoff = 0.8, 1.3, 25
    table = ratio_table(poisson_profile(r1, cutoff), poisson_profile(r2, cutoff))
    assert table.length == cutoff + 1
    assert table.ends == tuple(range(1, len(table.order) + 1))
    scale = math.exp(r2 * r2 - r1 * r1)
    base = (r1 / r2) ** 2
    expected = sorted(scale * base**n for n in range(cutoff + 1))
    for got, want in zip(table.ratios, expected):
        assert got == pytest.approx(want, rel=1e-10)


def test_full_scale_curve_endpoints():
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    last = res.curve.points[-1]
    assert last.p_succ == pytest.approx(1.0, abs=1e-10)
    assert last.F_recursive == pytest.approx(0.499, abs=0.002)
    assert last.F_coarse == pytest.approx(math.exp(-0.25), abs=0.0005)


def test_full_scale_coarse_interior_point():
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    best = min(res.curve.points, key=lambda pt: abs(pt.p_succ - 0.796))
    assert best.p_succ == pytest.approx(0.796, abs=0.005)
    assert best.F_coarse == pytest.approx(0.839, abs=0.003)


def test_closed_form_probabilities_track_engine():
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    assert res.max_probability_deviation <= 1e-8
    res_small = amplification_tradeoff(0.5, 1.0, 30, 31)
    assert res_small.max_probability_deviation <= 1e-8


def test_closed_form_uses_truncated_normalizers():
    # At cutoff 10 the untruncated normalization e^(r2^2 - r1^2) is off by
    # the Poisson mass above 10, about 1e-8 relative.
    res = amplification_tradeoff(0.0, 1.0, 10, 11)
    assert len(res.audits) == 1
    assert res.audits[0].probability == pytest.approx(1.0, abs=1e-15)
    assert res.max_probability_deviation <= 1e-14


def test_fidelity_floor_behaviour():
    assert fidelity_floor(1.5, 2) is None
    floor = fidelity_floor(1.5, 40)
    assert floor is not None and 0.999 < floor <= 1.0
    assert 0.0 < tail_deficit(1.5, 40) < 1e-30


def test_fidelities_monotone_up_to_float_ties():
    # The first rounds sit within one ulp of 1.0, so the decrease is
    # only non-strict at the start of the curve.
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    fids = [a.fidelity for a in res.audits]
    assert all(b <= a for a, b in zip(fids, fids[1:]))
    assert fids[-1] < fids[0]
    probs = [pt.p_succ for pt in res.curve.points]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_tail_bound_reported():
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    assert 0.0 < res.tail_bound < 1e-30
