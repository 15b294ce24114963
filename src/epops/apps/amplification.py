"""Probabilistic amplification of truncated coherent states.

Raising a coherent amplitude r1 to r2 > r1 converts one truncated Poisson
number profile into another: weights r^(2n)/(n! Z(r)) on n = 0..cutoff,
with Z(r) the truncated normalizer (close to e^(r^2)).  The weight ratios
(Z(r2)/Z(r1)) (r1/r2)^(2n) are geometric, so the ratio order is n =
cutoff, ..., 0.  A sector's row is its ratio and Poisson sums with every
term from the log domain: p(U) and the sqrt(pq) sum over the sectors from
the top down to it, and q(rest) from n = 0 up; ``_ratio_groups`` groups them.
:func:`fidelity_floor` bounds each round's fidelity by the Poisson tail.
The generic engine on two ``poisson_profile``s is the second route to
these curves, and the floor a check on them, in the tests.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import List, NamedTuple, Optional

from ..coarse import TradeoffCurve, closed_form_curve
from ..errors import CutoffTooSmall, RatioOverflow, TooLarge
from ..spectra import _integer, _log_factorials, _ratio_groups

#: Largest number cutoff: it bounds the rows a curve can print.  A run at
#: it that prints all 2,000,001 rows (r1 = 1, r2 = 1.0001) takes 9.3 s and
#: peaks at 0.66 GB on a 2-core machine.
_CUTOFF_CAP = 2_000_000


class AmplificationResult(NamedTuple):
    r1: float
    r2: float
    cutoff: int
    curve: TradeoffCurve
    tail_bound: float


def tail_deficit(r2: float, m: int) -> float:
    """Chernoff bound e^(-r2^2) (r2^2 e / m)^m on the Poisson mass above m;
    where r2^2 underflows to 0.0 its log is taken as 2 log r2."""
    r2_sq = r2 * r2
    log_r2_sq = math.log(r2_sq) if r2_sq else 2.0 * math.log(r2)
    return math.exp(-r2_sq + m * (log_r2_sq + 1.0 - math.log(m)))


def fidelity_floor(r2: float, remaining: int) -> Optional[float]:
    """Poisson-tail lower bound on a round fidelity.

    ``remaining`` is the highest surviving number sector; the floor only
    binds once it exceeds r2^2.  Near the start of the curve the deficit
    sits far below one ulp, so the floor evaluates to exactly 1.0.
    """
    if remaining <= r2 * r2:
        return None
    return 1.0 - tail_deficit(r2, remaining)


def _log_normalizer(r: float, log_factorials: List[float]) -> float:
    """log of sum_{n <= cutoff} r^(2n)/n!, the truncated Poisson normalizer,
    from the log n! for n = 0..cutoff."""
    if r == 0.0:
        return 0.0
    log_r = math.log(r)
    terms = [2.0 * n * log_r - lf for n, lf in enumerate(log_factorials)]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _poisson_groups(lf: List[float], lr1: float, lr2: float, lz1: float, lz2: float):
    """Per ratio group T: r_T, p(U_T), the sqrt(pq) sum over U_T and q(rest),
    from the log n!, the logs of r1 and r2 and of their normalizers."""
    cutoff = len(lf) - 1
    top = range(cutoff, -1, -1)
    # q(rest) once the top sectors down to n are eroded is q_head[n].
    q_head = list(accumulate(
        (math.exp(2.0 * n * lr2 - lf[n] - lz2) for n in range(cutoff)), initial=0.0))
    yield from _ratio_groups(zip(
        (math.exp(lz2 - lz1 + 2.0 * n * (lr1 - lr2)) for n in top),
        accumulate(math.exp(2.0 * n * lr1 - lf[n] - lz1) for n in top),
        accumulate(math.exp(n * (lr1 + lr2) - lf[n] - 0.5 * (lz1 + lz2)) for n in top),
        reversed(q_head)))


def amplification_tradeoff(
    r1: float, r2: float, cutoff: int, K: int
) -> AmplificationResult:
    """Tradeoff curve for amplifying amplitude r1 to r2 at a number cutoff.

    One row per ratio group up to K.  A curve whose first p_succ lies
    below the double range raises :class:`~epops.errors.BelowDoubleRange`,
    and one that reaches a ratio p/q past it :class:`RatioOverflow`.
    """
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError(f"r1={r1} and r2={r2} must both be finite")
    if r1 < 0.0:
        raise ValueError("r1 must be nonnegative")
    if r2 < r1:
        raise ValueError("r2 must be at least r1")
    if r2 == 0.0:
        raise ValueError("r2 must be positive")
    cutoff = _integer(cutoff, "cutoff=")
    if cutoff > _CUTOFF_CAP:
        raise TooLarge(f"cutoff {cutoff} exceeds the cap {_CUTOFF_CAP}")
    if cutoff <= r2 * r2:
        raise CutoffTooSmall(
            f"cutoff {cutoff} does not exceed r2^2 = {r2 * r2:g}; "
            "the truncated target would miss its own bulk"
        )
    lf = _log_factorials(cutoff)
    lz1, lz2 = _log_normalizer(r1, lf), _log_normalizer(r2, lf)
    try:
        if r1 == 0.0:
            # The input is sector 0 alone, transmitted whole in one round.
            q0 = math.exp(-lz2)
            curve = closed_form_curve(0.0, q0, [(math.exp(lz2), 1.0, math.sqrt(q0), 0.0)], K)
        else:
            lr1, lr2 = math.log(r1), math.log(r2)
            curve = closed_form_curve(lz2 - lz1 + 2.0 * cutoff * (lr1 - lr2), 1.0,
                                      _poisson_groups(lf, lr1, lr2, lz1, lz2), K)
    except OverflowError:
        raise RatioOverflow(
            f"a weight ratio p/q within the first {K} rounds is past the double range"
        ) from None
    return AmplificationResult(
        r1=r1,
        r2=r2,
        cutoff=cutoff,
        curve=curve,
        tail_bound=tail_deficit(r2, cutoff),
    )
