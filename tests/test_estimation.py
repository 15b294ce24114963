"""Tests for phase-estimation gains over the protocol engine."""

from __future__ import annotations

import math
import time
from decimal import Decimal
from itertools import accumulate

import numpy as np
import pytest

from epops.apps import (
    asymptotic_gain,
    deterministic_gain,
    estimation_profiles,
    estimation_tradeoff,
    holevo_gain,
)
from epops.apps.estimation import _dense_amplitudes
from epops.errors import NotNormalized, NotOdd
from epops.recursive import run_protocol
from epops.spectra import sine_profile
from reference_routes import decimal_gains, merged_amplitudes, round_output


def test_single_amplitude_gives_coin_flip_gain():
    assert holevo_gain([1.0]) == pytest.approx(0.5, abs=1e-15)


def test_uniform_amplitudes_match_inverse_level_count():
    N = 61
    a = np.full(N, 1.0 / math.sqrt(N))
    assert holevo_gain(a) == pytest.approx(1.0 - 1.0 / (2 * N), abs=1e-12)


def test_gain_accepts_any_sequence_of_amplitudes():
    a = _dense_amplitudes(sine_profile(12))
    expected = holevo_gain(a)
    assert holevo_gain(tuple(a)) == expected
    assert holevo_gain(np.array(a)) == expected
    assert holevo_gain(x for x in a) == expected


def test_sine_amplitudes_reach_heisenberg_scaling():
    M = 61
    gain = holevo_gain(_dense_amplitudes(sine_profile(M)))
    deficit = 1.0 - gain
    predicted = math.pi**2 / (4.0 * (M + 1) ** 2)
    assert abs(deficit - predicted) <= 0.1 * predicted


def test_gain_rejects_unnormalized_amplitudes():
    with pytest.raises(NotNormalized):
        holevo_gain([0.5, 0.5])
    with pytest.raises(NotNormalized):
        holevo_gain([])


def test_gain_rejects_negative_amplitudes():
    with pytest.raises(ValueError):
        holevo_gain([0.8, -0.6])


def test_hole_in_the_amplitudes_kills_adjacency():
    a = [math.sqrt(0.5), 0.0, math.sqrt(0.5)]
    assert holevo_gain(a) == pytest.approx(0.5, abs=1e-15)


def test_profiles_maxcoh_shapes():
    p, q = estimation_profiles("maxcoh", 61)
    assert p.support == tuple(range(61))
    assert q.support == tuple(range(1, 61))
    assert math.fsum(q.weight(i) for i in q.support) == pytest.approx(1.0)


def test_profiles_qubits_shapes():
    N = 8
    p, q = estimation_profiles("qubits", N)
    assert p.support == tuple(range(N + 1))
    assert p.weight(0) == pytest.approx(2.0**-N, rel=1e-12)
    assert p.weight(N // 2) == pytest.approx(math.comb(N, N // 2) / 2.0**N, rel=1e-12)
    assert q.support == tuple(range(1, N + 1))


def test_profiles_validation():
    with pytest.raises(ValueError):
        estimation_profiles("maxcoh", 1)
    with pytest.raises(ValueError):
        estimation_profiles("squeezed", 10)


def test_deterministic_gain_closed_form():
    N = 61
    assert deterministic_gain("maxcoh", N) == pytest.approx(
        1.0 - 1.0 / (2 * N), abs=1e-12
    )


def test_first_round_reaches_sine_gain():
    N = 61
    pts = estimation_tradeoff("maxcoh", N, 5)
    sine_gain = 0.5 + 0.5 * math.cos(math.pi / N)
    assert pts[0].gain_recursive == pytest.approx(sine_gain, abs=1e-12)
    assert pts[0].gain_coarse == pytest.approx(sine_gain, abs=1e-12)
    assert pts[0].p_succ == pytest.approx(
        0.5 / math.cos(math.pi / (2 * N)) ** 2, abs=1e-12
    )


def test_gains_stay_in_physical_range():
    for mode, N in (("maxcoh", 35), ("qubits", 8)):
        for pt in estimation_tradeoff(mode, N, 50):
            assert 0.5 <= pt.gain_recursive <= 1.0 + 1e-12
            assert 0.5 <= pt.gain_coarse <= 1.0 + 1e-12


@pytest.mark.parametrize("N", [35, 61])
def test_coarse_gain_dominates_for_wide_profiles(N):
    pts = estimation_tradeoff("maxcoh", N, 40)
    for pt in pts:
        assert pt.gain_coarse >= pt.gain_recursive - 1e-12


def test_probability_increases_and_tops_at_common_mass():
    N = 61
    pts = estimation_tradeoff("maxcoh", N, 100)
    assert len(pts) == 30
    probs = [pt.p_succ for pt in pts]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert probs[-1] == pytest.approx((N - 1) / N, abs=1e-10)


def test_qubit_curve_terminates_at_common_mass():
    N = 8
    pts = estimation_tradeoff("qubits", N, 100)
    assert pts[-1].p_succ == pytest.approx(1.0 - 2.0**-N, abs=1e-10)


def test_asymptotic_expansion_tracks_engine():
    N = 101
    pts = estimation_tradeoff("maxcoh", N, 6)
    for T in range(1, 6):
        gain, prob = asymptotic_gain(N, T)
        window = 5.0 * (T / N) ** 3
        assert abs(gain - pts[T - 1].gain_recursive) <= window
        assert abs(prob - pts[T - 1].p_succ) <= window


def test_asymptotic_validation():
    with pytest.raises(NotOdd):
        asymptotic_gain(60, 2)
    with pytest.raises(ValueError):
        asymptotic_gain(61, 61)
    with pytest.raises(ValueError):
        asymptotic_gain(0, 1)


def _run(mode, N, K):
    return run_protocol(*estimation_profiles(mode, N), K)


#: Every round of the smaller cases, the first 64 of the larger ones.
ROUTE_CASES = [("maxcoh", N, 10**6) for N in (2, 3, 35, 61, 400)] + [
    ("qubits", N, 10**6) for N in (2, 8, 100)] + [("qubits", N, 64) for N in (1000, 1060)]


@pytest.mark.parametrize("mode, N, K", ROUTE_CASES)
def test_pair_sum_gains_match_the_per_sector_route(mode, N, K):
    # The second route builds each round's output profile and each merged
    # filter's amplitudes sector by sector and scores them with holevo_gain.
    run = _run(mode, N, K)
    points = estimation_tradeoff(mode, N, K)
    assert len(points) == len(run.fidelities)
    round_gains = [holevo_gain(_dense_amplitudes(round_output(run, r.k))) for r in run.rounds]
    weighted = accumulate(pr * g for pr, g in zip(run.probabilities, round_gains))
    for pt, g_sum in zip(points, weighted):
        assert pt.gain_recursive == pytest.approx(g_sum / pt.p_succ, rel=1e-12, abs=0.0)
        merged = holevo_gain(merged_amplitudes(run, pt.T))
        assert pt.gain_coarse == pytest.approx(merged, rel=1e-12, abs=0.0)


#: Worst error of each column against the 40-digit reference over
#: DECIMAL_CASES, whose ``qubits`` N = 1060 starts at a subnormal p_succ
#: (4.9e-312).  The route takes the merged mass to be 1 (it raises beyond
#: 1e-10), so the mass error is the exact mass's distance from 1.
DECIMAL_BOUNDS = {"gain_recursive": 1e-15, "gain_coarse": 1e-15, "mass": 1e-14}
DECIMAL_CASES = [("maxcoh", 61, 10**6), ("maxcoh", 400, 10**6), ("maxcoh", 2000, 32),
                 ("qubits", 8, 10**6), ("qubits", 100, 10**6), ("qubits", 1000, 32),
                 ("qubits", 1060, 32), ("qubits", 1082, 32)]
#: Cases whose merged mass is itself off, because the binomial weights are
#: subnormal (1.9e-11 from 1 at ``qubits`` N = 1082): their gains are held
#: to DECIMAL_BOUNDS, and their mass to the 1e-10 the route admits.
SUBNORMAL_MASS = {("qubits", 1082, 32): 1e-10}


def test_gain_columns_against_a_decimal_reference():
    worst = dict.fromkeys(DECIMAL_BOUNDS, 0.0)
    for case in DECIMAL_CASES:
        run = _run(*case)
        mass_bound = SUBNORMAL_MASS.get(case)
        for pt, (g_rec, g_coarse, mass) in zip(estimation_tradeoff(*case), decimal_gains(run)):
            for name, value, exact in (("gain_recursive", pt.gain_recursive, g_rec),
                                       ("gain_coarse", pt.gain_coarse, g_coarse),
                                       ("mass", 1.0, mass)):
                error = abs(float(Decimal(value) - exact))
                if name == "mass" and mass_bound is not None:
                    assert error <= mass_bound, (case, pt.T, error)
                else:
                    worst[name] = max(worst[name], error)
    assert all(worst[name] <= bound for name, bound in DECIMAL_BOUNDS.items()), worst


@pytest.mark.parametrize("N", [1065, 1070, 1075])
def test_admitted_qubit_counts_have_unit_mass_and_the_reference_gains(N):
    # Subnormal binomial weights, yet the exact merged mass is within 1e-10
    # of 1, so the check admits these N, and every printed gain is exact.
    run = _run("qubits", N, 32)
    for pt, (g_rec, g_coarse, mass) in zip(estimation_tradeoff("qubits", N, 32),
                                          decimal_gains(run)):
        assert abs(mass - 1) <= 1e-10
        assert "%.6g" % pt.gain_recursive == "%.6g" % g_rec
        assert "%.6g" % pt.gain_coarse == "%.6g" % g_coarse


def _best_of_3(call):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def test_estimate_cost_is_linear_in_the_level_count():
    # O(N + L) gives about 4x from N = 500 to 2000 at every round, and an
    # O(L N) route about 16x.
    small = _best_of_3(lambda: estimation_tradeoff("maxcoh", 500, 500))
    large = _best_of_3(lambda: estimation_tradeoff("maxcoh", 2000, 2000))
    assert large < 8 * small, (small, large)
