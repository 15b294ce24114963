"""Tests for damped-qudit correction curves."""

from __future__ import annotations

import math
import time

import pytest

from epops.apps import correction_tradeoff, haar_average_fidelity
from epops.apps.correction import damped_profile, round_probability, uniform_levels
from epops.coarse import tradeoff_curve
from epops.errors import BelowDoubleRange
from epops.recursive import run_protocol

#: The engine-versus-closed-form tolerance, relative.
CLOSED_TOL = 1e-10


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
    # Each row is three geometric series, so a 1600-row curve costs
    # milliseconds.
    start = time.perf_counter()
    res = correction_tradeoff(1600, 0.9, 1600)
    assert time.perf_counter() - start < 2.0
    assert len(res.sector_curve.points) == 1600
    assert res.sector_curve.points[-1].p_succ == pytest.approx(1.0, abs=1e-10)


def test_closed_forms_are_evaluated_once_per_group(monkeypatch):
    # At mu = 1 - 1e-11 a ratio group spans about 100 levels: three setup
    # calls, then p(U) and the sqrt(pq) sum once per group, not per level.
    from epops.apps import correction

    calls = []
    original = correction._log_one_minus_exp

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(correction, "_log_one_minus_exp", counted)
    rows = len(correction_tradeoff(20_000, 1.0 - 1e-11, 10**6).sector_curve.points)
    assert 1 < rows < 1000
    assert len(calls) <= 3 + 2 * rows


#: Plain and near-1 damping, mu = 1 - 1e-13 (every ratio in one group),
#: mu = 1 - 1e-11 (groups of about 100 levels) and a strong damping whose
#: first p_succ is near 1e-190.
ENGINE_GRID = [(100, 0.9), (6, 0.5), (12, 0.7), (7, 0.3), (400, 0.999), (1600, 0.9),
               (50, 1.0 - 1e-13), (1000, 1.0 - 1e-13), (2000, 1.0 - 1e-11), (20, 1e-10)]


@pytest.mark.parametrize("d, mu", ENGINE_GRID)
def test_curve_matches_engine_route(d, mu):
    for K in (d, 3):
        res = correction_tradeoff(d, mu, K)
        engine = tradeoff_curve(damped_profile(d, mu), uniform_levels(d), K).points
        assert len(res.sector_curve.points) == len(engine)
        for a, e in zip(res.sector_curve.points, engine):
            for name in ("p_succ", "F_recursive", "F_coarse"):
                assert getattr(a, name) == pytest.approx(getattr(e, name), rel=CLOSED_TOL)


@pytest.mark.parametrize("d, mu", [(d, mu) for d, mu in ENGINE_GRID if mu < 0.9999])
def test_engine_rounds_follow_closed_forms(d, mu):
    # Every ratio is its own group here, so round k erodes level d + 1 - k.
    run = run_protocol(damped_profile(d, mu), uniform_levels(d), d)
    assert run.table.length == d
    for r in run.rounds:
        cp = round_probability(d, mu, r.k)
        assert abs(r.probability - cp) <= CLOSED_TOL * max(cp, 1.0)
        assert abs(r.fidelity - (d + 1 - r.k) / d) <= CLOSED_TOL


@pytest.mark.parametrize("d, mu, log10", [
    (25600, 0.9, "-1167"), (2000, 0.5, "-598"), (2000, 1e-300, "-599697"),
    (3, 1e-200, "-399"), (100, 5e-324, "-32005"), (2, 1e-310, "-309"),
])
def test_first_row_below_the_double_range_is_refused(d, mu, log10):
    with pytest.raises(BelowDoubleRange, match=f"row 1 has p_succ 10\\^{log10}"):
        correction_tradeoff(d, mu, 32)


def test_request_at_the_cap_is_fast():
    start = time.perf_counter()
    res = correction_tradeoff(2_000_000, 0.999999, 64)
    assert time.perf_counter() - start < 0.5
    assert len(res.average_curve.points) == 64
