"""Probabilistic cloning of phase-covariant spin ensembles.

Turning N spins pointing along an unknown equatorial direction into M > N
such spins is, sector by sector, the conversion of one binomial
magnetization profile into a wider one.  The deterministic fidelity of
that conversion is tiny (the profiles barely overlap), but the recursive
protocol trades probability for fidelity along the full curve.
"""

from __future__ import annotations

import math

from ..coarse import TradeoffCurve, tradeoff_curve
from ..errors import ParityMismatch
from ..spectra import binomial_profile


def _validate(N: int, M: int) -> None:
    if N < 1 or M < 1:
        raise ValueError("N and M must be positive")
    if M < N:
        raise ValueError(f"cannot clone {N} spins down to {M}")
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
    log_half_m = -M * math.log(2.0)
    total = 0.0
    for n in range(-N, N + 1, 2):
        k = (M - n) // 2
        total += math.exp(
            log_half_m + math.lgamma(M + 1)
            - math.lgamma(k + 1) - math.lgamma(M - k + 1)
        )
    return total


def cloning_tradeoff(N: int, M: int, K: int) -> TradeoffCurve:
    """Fidelity-probability curve for cloning N spins into M."""
    _validate(N, M)
    p = binomial_profile(N)
    q = binomial_profile(M)
    return tradeoff_curve(p, q, K)
