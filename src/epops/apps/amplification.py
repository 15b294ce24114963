"""Probabilistic amplification of truncated coherent states.

Raising a coherent amplitude r1 to r2 > r1 converts one truncated Poisson
number profile into another.  The weight ratios form a geometric sequence
(Z(r2)/Z(r1)) (r1/r2)^(2n), with Z(r) = sum_{n <= cutoff} r^(2n)/n! the
truncated normalizer (close to e^(r^2)), so every sector is its own ratio
group and the protocol runs for cutoff+1 rounds.  Each round's probability has a closed
form, and each round's fidelity obeys an explicit Poisson-tail floor; both
are checked against the generic engine on every call, and a failed check
raises :class:`~epops.errors.ConsistencyError`.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Optional, Tuple

from ..coarse import TradeoffCurve, curve_from_run
from ..errors import ConsistencyError, CutoffTooSmall, TooLarge
from ..recursive import run_protocol
from ..spectra import EnergyProfile, _log_factorials, poisson_profile

_REL_TOL = 1e-8
_LOG_TOL = 1e-6
_TINY = 1e-15
#: Largest number cutoff: a call at it runs for about 10 s.
_CUTOFF_CAP = 2_000_000


class RoundAudit(NamedTuple):
    """One protocol round next to its closed-form prediction."""

    k: int
    probability: float
    closed_form: float
    fidelity: float
    floor: Optional[float]


class AmplificationResult(NamedTuple):
    r1: float
    r2: float
    cutoff: int
    curve: TradeoffCurve
    audits: Tuple[RoundAudit, ...]
    tail_bound: float

    @property
    def max_probability_deviation(self) -> float:
        """Largest engine-versus-closed-form gap, relative or in the log."""
        worst = 0.0
        for a in self.audits:
            worst = max(worst, _deviation(a.probability, a.closed_form))
        return worst


def _deviation(engine: float, closed: float) -> float:
    if engine == 0.0 and closed == 0.0:
        return 0.0
    if min(engine, closed) < _TINY:
        return abs(math.log(engine) - math.log(closed))
    return abs(engine - closed) / closed


def tail_deficit(r2: float, m: int) -> float:
    """Chernoff bound e^(-r2^2) (r2^2 e / m)^m on the Poisson mass above m."""
    return math.exp(-r2 * r2 + m * (math.log(r2 * r2) + 1.0 - math.log(m)))


def fidelity_floor(r2: float, remaining: int) -> Optional[float]:
    """Poisson-tail lower bound on a round fidelity.

    ``remaining`` is the highest surviving number sector; the floor only
    binds once it exceeds r2^2.  Near the start of the curve the deficit
    sits far below one ulp, so the floor evaluates to exactly 1.0.
    """
    if remaining <= r2 * r2:
        return None
    return 1.0 - tail_deficit(r2, remaining)


def _log_normalizer(r: float, cutoff: int) -> float:
    """log of sum_{n <= cutoff} r^(2n)/n!, the truncated Poisson normalizer."""
    if r == 0.0:
        return 0.0
    log_r = math.log(r)
    terms = [2.0 * n * log_r - lf for n, lf in enumerate(_log_factorials(cutoff))]
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def _closed_rounds(
    p: EnergyProfile, q: EnergyProfile, r1: float, r2: float, cutoff: int, K: int
) -> list:
    """Per-round (probability, fidelity floor) from the geometric ratios.

    The ratios are (Z(r2)/Z(r1)) (r1/r2)^(2n), with Z the normalizer of
    the Poisson weights truncated at ``cutoff``.  Round k erodes the k-th
    largest common sector, so the fidelities are suffix sums of the target
    weights over the descending sector list.
    """
    common = sorted(
        (n for n in p.support if q.weight(n) > 0.0), reverse=True
    )
    if r1 == r2:
        return [(1.0, fidelity_floor(r2, common[0]))]
    scale = math.exp(_log_normalizer(r2, cutoff) - _log_normalizer(r1, cutoff))
    base = (r1 / r2) ** 2
    # tails[k-1] is the target weight on common[k-1:], summed from n = 0 up.
    tails = list(accumulate(q.weight(m) for m in reversed(common)))[::-1]
    rows = []
    for k, n in enumerate(common[: min(K, len(common))], start=1):
        f = tails[k - 1]
        prev = scale * base ** common[k - 2] if k >= 2 else 0.0
        rows.append(((scale * base**n - prev) * f, fidelity_floor(r2, n)))
    return rows


def amplification_tradeoff(
    r1: float, r2: float, cutoff: int, K: int
) -> AmplificationResult:
    """Tradeoff curve for amplifying amplitude r1 to r2 at a number cutoff.

    Runs the generic protocol on the two Poisson profiles, then checks
    every round probability against the geometric closed form (relative
    1e-8, or 1e-6 on the logarithm below 1e-15) and every round fidelity
    against its Poisson-tail floor, raising ConsistencyError on a miss.
    """
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise ValueError(f"r1={r1} and r2={r2} must both be finite")
    if r1 < 0.0:
        raise ValueError("r1 must be nonnegative")
    if r2 < r1:
        raise ValueError("r2 must be at least r1")
    if r2 == 0.0:
        raise ValueError("r2 must be positive")
    if cutoff > _CUTOFF_CAP:
        raise TooLarge(f"cutoff {cutoff} exceeds the cap {_CUTOFF_CAP}")
    if cutoff <= r2 * r2:
        raise CutoffTooSmall(
            f"cutoff {cutoff} does not exceed r2^2 = {r2 * r2:g}; "
            "the truncated target would miss its own bulk"
        )
    p = poisson_profile(r1, cutoff)
    q = poisson_profile(r2, cutoff)
    run = run_protocol(p, q, K)
    closed = _closed_rounds(p, q, r1, r2, cutoff, K)
    if len(closed) != len(run.rounds):
        raise ConsistencyError("round count", len(run.rounds), len(closed), 0)
    audits = []
    for r, (cp, floor) in zip(run.rounds, closed):
        limit = _LOG_TOL if min(r.probability, cp) < _TINY else _REL_TOL
        if _deviation(r.probability, cp) > limit:
            raise ConsistencyError(
                f"round {r.k} probability, engine vs closed form",
                r.probability, cp, limit,
            )
        if floor is not None and r.fidelity < floor - 1e-12:
            raise ConsistencyError(
                f"round {r.k} fidelity vs its Poisson-tail floor",
                r.fidelity, floor, 1e-12,
            )
        audits.append(
            RoundAudit(
                k=r.k,
                probability=r.probability,
                closed_form=cp,
                fidelity=r.fidelity,
                floor=floor,
            )
        )
    return AmplificationResult(
        r1=r1,
        r2=r2,
        cutoff=cutoff,
        curve=curve_from_run(run),
        audits=tuple(audits),
        tail_bound=tail_deficit(r2, cutoff),
    )
