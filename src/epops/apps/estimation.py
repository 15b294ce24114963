"""Phase estimation gain of clock states under probabilistic filtering.

The average estimation gain (1 + cos(error))/2 of a state with
nonnegative amplitudes a_n on consecutive number sectors is
1/2 + 1/2 sum a_n a_{n+1}, so every tradeoff computed by the protocol
engine translates directly into a gain-versus-probability curve.  Two
input families are supported: the maximally coherent (flat) state and the
symmetric ensemble of N qubits; both are steered toward the sine state of
matching range, whose gain is optimal for its size.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import List, NamedTuple, Sequence, Tuple

from ..coarse import coarse_filter, curve_from_run
from ..errors import NotNormalized, NotOdd
from ..recursive import run_protocol
from ..spectra import (
    EnergyProfile,
    binomial_profile,
    sine_profile,
    uniform_profile,
)

_NORM_TOL = 1e-10

MODES = ("maxcoh", "qubits")


class GainPoint(NamedTuple):
    """Fidelities and estimation gains after T rounds, averaged and coarse-grained."""

    T: int
    p_succ: float
    F_recursive: float
    F_coarse: float
    gain_recursive: float
    gain_coarse: float


def holevo_gain(amplitudes: Sequence[float]) -> float:
    """Average gain of a phase estimate from consecutive-sector amplitudes.

    ``amplitudes`` are the nonnegative amplitudes a_n on a dense run of
    number sectors (insert zeros for missing sectors); their squares must
    sum to one within 1e-10.
    """
    a = [float(x) for x in amplitudes]
    if not a:
        raise NotNormalized("no amplitudes given")
    if any(x < -1e-12 for x in a):
        raise ValueError("amplitudes must be nonnegative")
    total = math.fsum(x * x for x in a)
    if abs(total - 1.0) > _NORM_TOL:
        raise NotNormalized(f"squared amplitudes sum to {total}, expected 1")
    return 0.5 + 0.5 * math.fsum(x * y for x, y in zip(a, a[1:]))


def _dense_amplitudes(profile: EnergyProfile) -> List[float]:
    lo, hi = profile.support[0], profile.support[-1]
    a = [0.0] * (hi - lo + 1)
    for i, w in zip(profile.support, profile.weights):
        a[i - lo] = math.sqrt(w)
    return a


def estimation_profiles(mode: str, N: int) -> Tuple[EnergyProfile, EnergyProfile]:
    """Input and target profiles of an estimation mode.

    ``maxcoh`` filters the flat N-level clock toward the sine state on
    1..N-1; ``qubits`` filters the binomial excitation profile of N
    qubits toward the sine state on 1..N.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if mode == "maxcoh":
        return uniform_profile(N), sine_profile(N - 1)
    if mode == "qubits":
        # Excitation numbers n = (m + N)/2 of N symmetric qubits along x.
        spins = binomial_profile(N)
        n = [(m + N) // 2 for m in spins.support]
        return EnergyProfile(n, [float(k) for k in n], spins.weights), sine_profile(N)
    raise ValueError(f"unknown estimation mode {mode!r}; pick one of {MODES}")


def deterministic_gain(mode: str, N: int) -> float:
    """Gain of the unfiltered input state (1 - 1/(2N) for ``maxcoh``)."""
    p, _ = estimation_profiles(mode, N)
    return holevo_gain(_dense_amplitudes(p))


def estimation_tradeoff(mode: str, N: int, K: int) -> List[GainPoint]:
    """Fidelity and gain against success probability for T = 1..min(K, L).

    The recursive gain averages the per-round output gains with the round
    probabilities; the coarse gain is that of the merged filter's output
    state.
    """
    p, q = estimation_profiles(mode, N)
    run = run_protocol(p, q, K)
    round_gains = [holevo_gain(_dense_amplitudes(r.output)) for r in run.rounds]
    weighted = accumulate(pr * g for pr, g in zip(run.probabilities, round_gains))
    lo, hi = p.support[0], p.support[-1]
    points = []
    for cp, g_sum in zip(curve_from_run(run).points, weighted):
        x = coarse_filter(run, cp.T).coefficients
        merged = [0.0] * (hi - lo + 1)
        for i, w in zip(p.support, p.weights):
            merged[i - lo] = math.sqrt(w * x[i] / cp.p_succ)
        points.append(
            GainPoint(
                T=cp.T,
                p_succ=cp.p_succ,
                F_recursive=cp.F_recursive,
                F_coarse=cp.F_coarse,
                gain_recursive=g_sum / cp.p_succ,
                gain_coarse=holevo_gain(merged),
            )
        )
    return points


def asymptotic_gain(N: int, T: int) -> Tuple[float, float]:
    """Large-N expansion of the ``maxcoh`` tradeoff after T rounds.

    Returns the predicted cumulative gain and success probability
    through third order in 1/N, leaving O((T/N)^4-scale) remainders.
    Round k > 1 succeeds with probability of order (k-1)/N^2 while its
    output gain deficit stays at order 1/N, so the success probability
    grows quadratically with T but the quadratic terms cancel in the
    probability-weighted gain, which stays at the round-one value
    1 - pi^2/(4N^2) up to a cubic correction.  The pairing of sectors
    n and N-n that underlies the expansion needs an odd level count.
    """
    if N < 1 or T < 1:
        raise ValueError("N and T must be positive")
    if T >= N:
        raise ValueError("the expansion needs T well below N")
    if N % 2 == 0:
        raise NotOdd("the level count N must be odd")
    pi2 = math.pi * math.pi
    scale = pi2 / (N * N)
    cubic = pi2 / (N * N * N)
    gain = 1.0 - 0.25 * scale - cubic * T * (T - 1)
    probability = (
        0.5
        + scale * (0.5 * T * (T - 1) + 0.125)
        - cubic * (2.0 / 3.0) * T * (T - 1) * (2 * T - 1)
    )
    return gain, probability
