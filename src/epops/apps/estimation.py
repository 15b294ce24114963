"""Phase estimation gain of clock states under probabilistic filtering.

The average estimation gain (1 + cos(error))/2 of a state with
nonnegative amplitudes a_n on consecutive number sectors is
1/2 + 1/2 sum a_n a_{n+1}, so every tradeoff computed by the protocol
engine translates directly into a gain-versus-probability curve.  Two
input families are supported: the maximally coherent (flat) state and the
symmetric ensemble of N qubits; both are steered toward the sine state of
matching range, whose gain is optimal for its size.

The gain reads adjacent sector pairs only: every round and merged filter
is scored from pair sums updated round by round, O(N + L) after the sort.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import itemgetter
from typing import List, NamedTuple, Sequence, Tuple

from ..coarse import _points
from ..errors import NotNormalized, NotOdd, TooLarge
from ..recursive import _round_count, _rounds
from ..spectra import (
    EnergyProfile,
    _column_groups,
    _integer,
    _ratio_columns,
    binomial_profile,
    sine_profile,
    uniform_profile,
)

_NORM_TOL = 1e-10
#: Largest level or qubit count N: ``maxcoh`` at it takes about 0.6 s at 32 rounds.
_LEVEL_CAP = 100_000

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
    N = _integer(N, "N=")
    if N < 2:
        raise ValueError("N must be at least 2")
    if N > _LEVEL_CAP:
        raise TooLarge(f"N={N} exceeds the cap {_LEVEL_CAP}")
    if mode == "maxcoh":
        return uniform_profile(N), sine_profile(N - 1)
    if mode == "qubits":
        # Excitation numbers n = (m + N)/2 of N symmetric qubits along x.
        spins = binomial_profile(N)
        n = [(m + N) // 2 for m in spins.support]
        return EnergyProfile(n, spins.weights), sine_profile(N)
    raise ValueError(f"unknown estimation mode {mode!r}; pick one of {MODES}")


def deterministic_gain(mode: str, N: int) -> float:
    """Gain of the unfiltered input state (1 - 1/(2N) for ``maxcoh``)."""
    p, _ = estimation_profiles(mode, N)
    return holevo_gain(_dense_amplitudes(p))


def _exact(x: float, e: int) -> int:
    """``x`` in units of 2^-e as an ``int``, which it must be: sums of these are exact."""
    num, den = x.as_integer_ratio()
    return num << (e + 1 - den.bit_length())


def estimation_tradeoff(mode: str, N: int, K: int) -> List[GainPoint]:
    """Fidelity and gain against success probability for T = 1..min(K, L).

    Round k outputs the target renormalized outside U_(k-1), with gain
    1/2 + OO / (2 Q) before round k; the recursive gain averages these with
    the round probabilities.  The merged filter of rounds 1..T outputs
    sqrt(p_n / p_succ) on U_T and sqrt(r_T q_n / p_succ) on the rest: gain
    1/2 + (UU + sqrt(r_T) UO + r_T OO) / (2 p_succ) after round T, and mass
    p(U_T) / p_succ + r_T q_rest / p_succ, which must be 1 within 1e-10 or
    :class:`NotNormalized` is raised; here p_succ is the protocol's running
    sum, and a row prints the merged filter's own.

    Over adjacent common sectors i, j: UU sums sqrt(p_i) sqrt(p_j) with both
    eroded, UO sqrt(p_i) sqrt(q_j) with only i, OO sqrt(q_i) sqrt(q_j) with
    neither; Q is the target weight not eroded.  Each root is rounded once
    and kept exact (the root of a product can underflow).  e >= 54 is the
    least at which the roots, the weights q_i, the doubles r_T, sqrt(r_T),
    the round probabilities and p_succ, and each rounded round gain in
    [1/2, 1] are integers in units of 2^-e; so Q is an exact integer in
    units of 2^-e, the pair sums in 2^-2e, and every gain an exact integer
    ratio, rounded once by its one division.
    """
    p, q = estimation_profiles(mode, N)
    cols = _ratio_columns(p, q)
    rounds = list(islice(_rounds(cols.q_from[0], _column_groups(cols)), _round_count(K)))
    ratios = [row[0] for row, _, _, _ in rounds]
    fractions = [list(map(float.as_integer_ratio, column)) for column in (
        map(itemgetter(1), rounds), ratios, map(math.sqrt, ratios), map(itemgetter(2), rounds),
        cols.qw, map(math.sqrt, cols.pw), map(math.sqrt, cols.qw))]
    e = max(max([den for column in fractions for _, den in column]).bit_length() - 1, 54)
    pr_x, r_x, root_x, s_x, q_x, root_p, root_q = [
        [num << (e + 1 - den.bit_length()) for num, den in column] for column in fractions]
    root_p, root_q = dict(zip(cols.order, root_p)), dict(zip(cols.order, root_q))
    uu = uo = weighted = 0
    oo = sum([root_q[i] * root_q[i + 1] for i in root_q if i + 1 in root_q])
    q_left, eroded, points, a = sum(q_x), set(), [], 0
    for cp, ((r, p_u, _, q_u, b), _, total, _), pr, r_e, root_r, s in zip(
            _points(rounds).points, rounds, pr_x, r_x, root_x, s_x):
        mass = p_u / total + r / total * q_u
        if not abs(mass - 1.0) <= _NORM_TOL:
            raise NotNormalized(
                f"the merged filter of rounds 1..{cp.T} has success probability "
                f"{mass!r} times p_succ, expected 1"
            )
        weighted += pr * _exact(((q_left << e) + oo) / (q_left << (e + 1)), e)
        for i in cols.order[a:b]:
            for j in (i - 1, i + 1):
                if j in eroded:
                    uo -= root_p[j] * root_q[i]
                    uu += root_p[i] * root_p[j]
                elif j in root_q:
                    oo -= root_q[i] * root_q[j]
                    uo += root_p[i] * root_q[j]
            eroded.add(i)
        q_left, a = q_left - sum(q_x[a:b]), b
        pairs = (uu << e) + root_r * uo + r_e * oo
        # The curve row's four columns, then the two gains.
        points.append(GainPoint(*cp, weighted / (s << e),
                                ((s << 2 * e) + pairs) / (s << (2 * e + 1))))
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
    N, T = _integer(N, "N="), _integer(T, "T=")
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
