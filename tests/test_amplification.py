"""Tests for coherent-amplitude amplification curves.

The generic engine on two ``poisson_profile``s is the second route to the
closed-form curve; ``engine_run`` runs it.
"""

from __future__ import annotations

import math

import pytest

from epops.apps import amplification_tradeoff
from epops.apps.amplification import fidelity_floor, tail_deficit
from epops.coarse import tradeoff_curve
from epops.errors import BelowDoubleRange, CutoffTooSmall, RatioOverflow
from epops.recursive import run_protocol
from epops.spectra import poisson_profile, ratio_table

#: The engine-versus-closed-form tolerances: relative, or on the log of
#: values below TINY.
REL_TOL, LOG_TOL, TINY = 1e-8, 1e-6, 1e-15


def deviation(engine, closed):
    """The gap between two routes: on the log below TINY, else relative."""
    if min(engine, closed) < TINY:
        return abs(math.log(engine) - math.log(closed)), LOG_TOL
    return abs(engine - closed) / closed, REL_TOL


def engine_run(r1, r2, cutoff, K):
    return run_protocol(poisson_profile(r1, cutoff), poisson_profile(r2, cutoff), K)


def assert_matches_engine(r1, r2, cutoff, K):
    """Each printed column of the app within the tolerances of the engine's,
    and, where every group is one sector, each round probability too."""
    app = amplification_tradeoff(r1, r2, cutoff, K).curve.points
    run = engine_run(r1, r2, cutoff, K)
    engine = tradeoff_curve(run.input, run.target, K).points
    assert len(app) == len(engine)
    for a, e in zip(app, engine):
        for name in ("p_succ", "F_recursive", "F_coarse"):
            gap, tol = deviation(getattr(e, name), getattr(a, name))
            assert gap <= tol, (a.T, name, getattr(e, name), getattr(a, name))
    if run.table.ends == tuple(range(1, len(app) + 1)):
        cumulative = [0.0] + [pt.p_succ for pt in app]
        probabilities = [b - a for a, b in zip(cumulative, cumulative[1:])]
        for k, (e, c) in enumerate(zip(run.probabilities, probabilities), start=1):
            gap, tol = deviation(e, c)
            assert gap <= tol, (k, e, c)


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
    assert_matches_engine(1.0, 1.5, 80, 81)
    assert_matches_engine(0.5, 1.0, 30, 31)


def test_closed_form_uses_truncated_normalizers():
    # At cutoff 10 the untruncated normalization e^(r2^2 - r1^2) is off by
    # the Poisson mass above 10, about 1e-8 relative.
    pt, = amplification_tradeoff(0.0, 1.0, 10, 11).curve.points
    run = engine_run(0.0, 1.0, 10, 11)
    assert pt.p_succ == 1.0
    assert pt.F_recursive == pytest.approx(run.fidelities[0], rel=1e-14)
    assert pt.F_recursive == pytest.approx(1.0 / math.fsum(
        1.0 / math.factorial(n) for n in range(11)), rel=1e-14)


#: r1 = 0, r1 = r2, near-tied amplitudes grouped (5, 5, 1) and (5, 5, 3),
#: and cutoffs up to the last one (174) at which the engine's Poisson
#: weights stay normal.
ENGINE_GRID = [
    (0.0, 1.0, 10), (0.0, 2.5, 40), (1.2, 1.2, 20), (1.0, 1.0 + 1e-10, 10),
    (0.5, 0.5 * (1.0 + 1e-10), 12), (0.8, 1.3, 25), (1.0, 2.0, 60), (3.0, 5.0, 100),
    (1.0, 1.5, 174), (0.01, 1.0, 30),
]


@pytest.mark.parametrize("r1, r2, cutoff", ENGINE_GRID)
def test_curve_matches_engine_route(r1, r2, cutoff):
    assert_matches_engine(r1, r2, cutoff, cutoff + 1)
    assert_matches_engine(r1, r2, cutoff, 3)


@pytest.mark.parametrize("r1, r2, cutoff", ENGINE_GRID)
def test_engine_rounds_keep_the_poisson_tail_floor(r1, r2, cutoff):
    run = engine_run(r1, r2, cutoff, cutoff + 1)
    starts = (0,) + run.table.ends
    for fidelity, start in zip(run.fidelities, starts):
        floor = fidelity_floor(r2, run.table.order[start])
        assert floor is None or fidelity >= floor - 1e-12


def test_near_tied_amplitudes_print_the_engine_groups():
    run = engine_run(1.0, 1.0000000001, 10, 11)
    assert run.table.ends == (5, 10, 11)
    assert len(amplification_tradeoff(1.0, 1.0000000001, 10, 11).curve.points) == 3


@pytest.mark.parametrize("cutoff", [175, 320])
def test_cutoffs_past_the_engine_give_its_curve_shape(cutoff):
    # Past cutoff 174 the engine's smallest weights are subnormal.  The
    # last rows erode the same low sectors at every cutoff, and the
    # Poisson mass above 80 is below 1e-90, so they match cutoff 80's.
    points = amplification_tradeoff(1.0, 1.5, cutoff, cutoff + 1).curve.points
    tail = amplification_tradeoff(1.0, 1.5, 80, 81).curve.points[-20:]
    for a, b in zip(points[-20:], tail):
        assert a.p_succ == pytest.approx(b.p_succ, rel=1e-9)
        assert a.F_coarse == pytest.approx(b.F_coarse, rel=1e-9)


def test_first_row_below_the_double_range_is_refused():
    with pytest.raises(BelowDoubleRange, match="row 1 has p_succ 10\\^-2563"):
        amplification_tradeoff(1.0, 30.0, 1000, 81)
    with pytest.raises(BelowDoubleRange, match="row 1 has p_succ 10\\^-450"):
        amplification_tradeoff(1.0, 1.5, 1280, 1281)
    with pytest.raises(BelowDoubleRange, match="row 1"):
        amplification_tradeoff(1e-200, 1.0, 2, 3)


def test_ratio_past_the_double_range_is_refused():
    # q_0 = e^-(r2^2) / ... is below 1e-308, so the ratio p_0 / q_0 overflows.
    with pytest.raises(RatioOverflow):
        amplification_tradeoff(0.0, 27.0, 800, 5)
    with pytest.raises(RatioOverflow):
        amplification_tradeoff(34.64, 44.72, 2001, 2002)


def test_fidelity_floor_behaviour():
    assert fidelity_floor(1.5, 2) is None
    floor = fidelity_floor(1.5, 40)
    assert floor is not None and 0.999 < floor <= 1.0
    assert 0.0 < tail_deficit(1.5, 40) < 1e-30


def test_fidelities_monotone_up_to_float_ties():
    # The first rounds sit within one ulp of 1.0, so the decrease is
    # only non-strict at the start of the curve.
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    fids = [pt.F_recursive for pt in res.curve.points]
    assert all(b <= a for a, b in zip(fids, fids[1:]))
    assert fids[-1] < fids[0]
    probs = [pt.p_succ for pt in res.curve.points]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_tail_bound_reported():
    res = amplification_tradeoff(1.0, 1.5, 80, 81)
    assert 0.0 < res.tail_bound < 1e-30


def test_target_amplitude_whose_square_underflows_gives_a_curve():
    # r2 * r2 is 0.0 here, so its log would be a domain error.
    res = amplification_tradeoff(0.0, 1e-200, 3, 4)
    assert len(res.curve.points) == 1
    assert math.isfinite(res.tail_bound) and res.tail_bound >= 0.0
    # At m = 1 the bound is about r2^2 e, 5.3e-324 here: one subnormal step.
    assert tail_deficit(1.4e-162, 1) == 5e-324
