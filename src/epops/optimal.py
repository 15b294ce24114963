"""Single-shot optima: the ultimate fidelity point and the Lagrange tradeoff.

Removing the probability constraint, the best reachable fidelity is

    F_max = sum over common sectors of q_E,

attained with success probability p_max = (min_E p_E/q_E) F_max by the
filter x_E = (min ratio) q_E / p_E.

At a fixed success probability the optimal filter maximizes
sum_E sqrt(x_E p_E q_E) subject to sum_E p_E x_E = p_succ and
0 <= x_E <= 1.  The objective is concave and the constraints are linear,
so the KKT conditions are sufficient, and stationarity gives
x_E = min(1, c q_E/p_E).  The fully transmitted set S0 = {E : p_E/q_E <= c}
is therefore a prefix of the ratio order, and the rest S1 is filtered in
proportion to q_E/p_E.  With S0 the first k sectors of that order, p_succ
is reachable iff

    p(S0) <= p_succ <= B_k = p(S0) + (p/q)_{k+1} q(S1),

and the optimum takes the smallest k with B_k >= p_succ: a bisection on
the running maximum of B_k, with no cap on the spectrum size.  Its
fidelity is Omega^2 / p_succ with

    Omega[S0] = sum_{S0} sqrt(p_E q_E) + sqrt((p_succ - p(S0)) q(S1)).

The second route, an exhaustive search over every subset S0, is
``oracle.exhaustive_tradeoff``, which the tests and ``epops verify`` run;
the tests also build the filter of any given S0 from
``_two_regime_columns`` and compare the optimum with it bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain, repeat
from operator import mul, truediv
from typing import NamedTuple, Tuple

from .channels import SectorFilter
from .errors import InfeasibleProbability, NoFeasiblePartition
from .spectra import EnergyProfile, RatioColumns, _ratio_columns, _segment_fidelity

_SLACK = 1e-12
_MODES = ("exhaustive", "ratio-family")


class TradeoffPoint(NamedTuple):
    """One point of the fidelity-probability tradeoff.

    ``s0`` is the fully transmitted sector set; the filter follows the
    two-regime structure (x_E = 1 on s0, x_E proportional to q_E/p_E off
    it) and reproduces ``p_succ`` within 1e-10.
    """

    p_succ: float
    fidelity: float
    filter: SectorFilter
    s0: Tuple[int, ...]


def ultimate_optimum(
    p: EnergyProfile, q: EnergyProfile
) -> Tuple[float, float, SectorFilter]:
    """Maximum fidelity, its maximum success probability, and the filter.

    F_max equals the target weight on the common spectrum; the filter
    transmits each common sector with x_E = (min ratio) q_E/p_E, which is
    exactly 1 at the ratio-minimizing sector.
    """
    cols = _ratio_columns(p, q)
    f_max = math.fsum(cols.qw)
    r_min = cols.ratios[0]
    coeffs = {i: r_min * b / a for i, a, b in zip(cols.order, cols.pw, cols.qw)}
    return f_max, r_min * f_max, SectorFilter(coeffs)


def _two_regime_columns(p0, q0, s1, p1, q1, p_succ: float) -> Tuple[list, float]:
    """The two-regime filter from weight columns: (x on s1, Omega).

    x_E = 1 on s0 (weights ``p0``, ``q0``) and x_E = c q_E/p_E on the
    sectors ``s1`` (weights ``p1``, ``q1``), c = (p_succ - p(s0)) / q(s1).
    Every sum is an ``fsum``, so the column order does not matter.
    """
    p_s0 = math.fsum(p0)
    q_s1 = math.fsum(q1)
    excess = p_succ - p_s0
    if excess < -_SLACK * max(1.0, p_succ):
        raise InfeasibleProbability(
            f"requested p_succ={p_succ} is below the weight {p_s0} of s0"
        )
    if not s1 and abs(excess) > 1e-10:
        raise InfeasibleProbability(
            f"s0 covers the whole common spectrum but transmits {p_s0}, "
            f"not the requested {p_succ}"
        )
    c = max(excess, 0.0) / q_s1 if s1 else 0.0
    xs = list(map(truediv, map(mul, repeat(c), q1), p1))
    if xs and max(xs) > 1.0:
        for i, x in zip(s1, xs):
            if x > 1.0 + _SLACK:
                raise InfeasibleProbability(
                    f"coefficient {x} at sector {i} exceeds 1; "
                    f"p_succ={p_succ} is not reachable with this partition"
                )
        xs = [min(x, 1.0) for x in xs]
    aligned = math.fsum(map(math.sqrt, map(mul, p0, q0)))
    return xs, aligned + math.sqrt(max(excess, 0.0) * q_s1)


def _beyond_common(
    p: EnergyProfile, order, pw, qw, p_succ: float, excess: float
) -> TradeoffPoint:
    """The optimum above p(common): x = 1 on the common spectrum and
    x = excess / p(input-only) on every sector of ``p`` outside it."""
    common = set(order)
    extra = {i: w for i, w in p._by_index.items() if i not in common}
    p_extra = math.fsum(extra.values())
    if excess > p_extra * (1.0 + _SLACK):
        raise NoFeasiblePartition(
            f"p_succ={p_succ} exceeds the weight of the common spectrum plus "
            f"the {p_extra} of the input-only sectors"
        )
    x = min(excess / p_extra, 1.0)
    coeffs = dict.fromkeys(order, 1.0)
    coeffs.update(dict.fromkeys(extra, x))
    om = math.fsum(map(math.sqrt, map(mul, pw, qw)))
    achieved = math.fsum(chain(pw, (w * x for w in extra.values())))
    return TradeoffPoint(
        achieved, om * om / p_succ, SectorFilter(coeffs), tuple(sorted(order))
    )


class Frontier(NamedTuple):
    """The optimal fidelity of one pair at every success probability."""

    cols: RatioColumns

    def fidelity(self, p_succ: float) -> float:
        """(A_k + sqrt((p_succ - P_k) Q_k))^2 / p_succ on the segment k that
        holds p_succ, found by bisection in O(log n); :meth:`point` is exact."""
        if not 0.0 < p_succ <= 1.0 + _SLACK:
            raise ValueError("p_succ must lie in (0, 1]")
        c = self.cols
        k = bisect_left(c.b_max, p_succ)
        return _segment_fidelity(c.aligned[k], c.p_before[k], c.q_from[k], p_succ)

    def point(self, p_succ: float) -> TradeoffPoint:
        """Best fidelity point at ``p_succ``.  Where a boundary sector sits at
        x = 1 exactly (p_succ = B_k, or p_succ = 1), the prefixes with and
        without it describe the same filter; the shorter one is returned
        unless rounding puts that sector's coefficient above 1.  If no B_k
        reaches ``p_succ``, the whole common spectrum is transmitted: at
        p_succ = p(common) within 1e-10 alone, and above it together with
        the sectors of ``p`` outside ``q``, which add probability but no
        overlap."""
        if not 0.0 < p_succ <= 1.0 + _SLACK:
            raise ValueError("p_succ must lie in (0, 1]")
        order, pw, qw = self.cols.order, self.cols.pw, self.cols.qw
        k = bisect_left(self.cols.b_max, p_succ)
        if k == len(order):
            excess = p_succ - math.fsum(pw)
            if excess > 1e-10:
                return _beyond_common(self.cols.p, order, pw, qw, p_succ, excess)
            if excess < -1e-10:
                raise NoFeasiblePartition(
                    f"no partition of the common spectrum admits p_succ={p_succ}"
                )
        try:
            xs, om = _two_regime_columns(pw[:k], qw[:k], order[k:], pw[k:], qw[k:], p_succ)
        except InfeasibleProbability:
            # At p_succ = B_k the next sector sits at x = 1, and rounding can
            # put it above 1 when its weight is small; the next prefix holds
            # it at exactly 1.
            k += 1
            xs, om = _two_regime_columns(pw[:k], qw[:k], order[k:], pw[k:], qw[k:], p_succ)
        coeffs = dict(zip(order, chain(repeat(1.0, k), xs)))
        achieved = math.fsum(chain(pw[:k], map(mul, pw[k:], xs)))
        return TradeoffPoint(
            achieved, om * om / p_succ, SectorFilter(coeffs), tuple(sorted(order[:k]))
        )


def frontier(p: EnergyProfile, q: EnergyProfile) -> Frontier:
    """The optimal frontier of ``p`` to ``q``, read off one ratio sort."""
    return Frontier(_ratio_columns(p, q))


def optimal_tradeoff_point(
    p: EnergyProfile, q: EnergyProfile, p_succ: float, mode: str = "exhaustive"
) -> TradeoffPoint:
    """``frontier(p, q).point(p_succ)``.  ``mode`` is kept for compatibility:
    ``"exhaustive"`` and ``"ratio-family"`` both read the frontier."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return frontier(p, q).point(p_succ)
