"""Probabilistic cloning of phase-covariant spin ensembles.

Turning N spins pointing along an unknown equatorial direction into M > N
such spins is, sector by sector, the conversion of one binomial
magnetization profile into a wider one.  The deterministic fidelity of
that conversion is tiny (the profiles barely overlap), but the recursive
protocol trades probability for fidelity along the full curve.
"""

from __future__ import annotations

import math
from itertools import chain, takewhile

from ..coarse import TradeoffCurve, tradeoff_curve
from ..errors import ParityMismatch, TooLarge
from ..spectra import EnergyProfile, _binomial_weight, _integer, binomial_profile

#: Largest spin count N or M: a call at it runs for about 10 s.
_SPIN_CAP = 3_000_000


def _validate(N: int, M: int) -> None:
    _integer(N, "N=")
    _integer(M, "M=")
    if N < 1 or M < 1:
        raise ValueError("N and M must be positive")
    if M < N:
        raise ValueError(f"cannot clone {N} spins down to {M}")
    if M > _SPIN_CAP:
        raise TooLarge(f"spin count {M} exceeds the cap {_SPIN_CAP}")
    if (M - N) % 2 != 0:
        raise ParityMismatch(
            f"magnetization parities differ for N={N}, M={M}; "
            "the profiles share no sectors"
        )


def first_round_fidelity(N: int, M: int) -> float:
    """Fidelity of the first protocol round, 2^-M sum_n C(M, (M-n)/2).

    The sum runs over the magnetization sectors of the N-spin input; it
    is also the best fidelity any filter can reach.  Evaluated in the
    log domain so wide-M tails come out right.
    """
    _validate(N, M)
    weight = _binomial_weight(M)
    return math.fsum([weight((M - n) // 2) for n in range(-N, N + 1, 2)])


def _binomial_total(weight, M: int) -> float:
    """``fsum`` of ``weight(k)`` over k = 0..M, walked outward from k = M // 2
    up to the first 0.0 on each side.  The log-weight is concave, so every
    weight past it is 0.0 too, and ``fsum`` is exact, so those add nothing."""
    below = takewhile(bool, map(weight, range(M // 2, -1, -1)))
    above = takewhile(bool, map(weight, range(M // 2 + 1, M + 1)))
    return math.fsum(chain(below, above))


def _shared_target(N: int, M: int) -> EnergyProfile:
    """The M-spin target on the N + 1 sectors it shares with the input.

    Each shared weight has the bits ``binomial_profile(M)`` gives it: the
    same weight over the same ``fsum`` of all M + 1 weights, and a weight
    that underflows to 0.0 is dropped as there.  The weight left over sits
    on sector N + 2, which the curve, reading the common spectrum only,
    never reads.
    """
    weight = _binomial_weight(M)
    total = _binomial_total(weight, M)
    shared = [(m, weight((M - m) // 2)) for m in range(-N, N + 1, 2)]
    shared = [(m, w) for m, w in shared if w > 0.0]
    support = [m for m, _ in shared]
    weights = [w / total for _, w in shared]
    rest = 1.0 - math.fsum(weights)
    if rest > 0.0:
        support.append(N + 2)
        weights.append(rest)
    return EnergyProfile(support, [float(m) for m in support], weights)


def cloning_tradeoff(N: int, M: int, K: int) -> TradeoffCurve:
    """Fidelity-probability curve for cloning N spins into M."""
    _validate(N, M)
    return tradeoff_curve(binomial_profile(N), _shared_target(N, M), K)
