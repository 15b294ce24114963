"""Tests for phase-estimation gains over the protocol engine."""

from __future__ import annotations

import math

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
from epops.spectra import sine_profile


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
