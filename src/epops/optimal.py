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

and B_k never decreases in k, so the optimum takes the smallest k with
B_k >= p_succ: a single scan, with no cap on the spectrum size.  Its
fidelity is Omega^2 / p_succ with

    Omega[S0] = sum_{S0} sqrt(p_E q_E) + sqrt((p_succ - p(S0)) q(S1)).

The second route, an exhaustive search over every subset S0, is
``oracle.exhaustive_tradeoff``, which the tests and ``epops verify`` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .channels import SectorFilter, filter_success_probability
from .errors import (
    DisjointSpectra,
    InfeasibleProbability,
    InvalidPartition,
    NoFeasiblePartition,
)
from .spectra import EnergyProfile, common_support, ratio_table

_SLACK = 1e-12
_MODES = ("exhaustive", "ratio-family")


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the fidelity-probability tradeoff.

    ``s0`` is the fully transmitted sector set; the filter follows the
    two-regime structure (x_E = 1 on s0, x_E proportional to q_E/p_E off
    it) and reproduces ``p_succ`` within 1e-10.
    """

    p_succ: float
    fidelity: float
    filter: SectorFilter
    s0: Tuple[int, ...]

    def to_json_dict(self) -> dict:
        doc = {
            "p_succ": self.p_succ,
            "fidelity": self.fidelity,
            "s0": list(self.s0),
        }
        doc.update(self.filter.to_json_dict())
        return doc


def ultimate_optimum(
    p: EnergyProfile, q: EnergyProfile
) -> Tuple[float, float, SectorFilter]:
    """Maximum fidelity, its maximum success probability, and the filter.

    F_max equals the target weight on the common spectrum; the filter
    transmits each common sector with x_E = (min ratio) q_E/p_E, which is
    exactly 1 at the ratio-minimizing sector.
    """
    common = common_support(p, q)
    if not common:
        raise DisjointSpectra("input and target profiles share no sector")
    f_max = math.fsum(q.weight(i) for i in common)
    r_min = min(p.weight(i) / q.weight(i) for i in common)
    p_max = r_min * f_max
    coeffs = {i: r_min * q.weight(i) / p.weight(i) for i in common}
    return f_max, p_max, SectorFilter(coeffs)


def _coefficient(
    p: EnergyProfile, q: EnergyProfile, s0: Iterable[int], p_succ: float
) -> Tuple[Tuple[int, ...], Tuple[int, ...], float]:
    """Validate the partition and return (s0, s1, c) with x_E = c q_E/p_E on s1."""
    common = common_support(p, q)
    s0_set = set(s0)
    s0_t = tuple(sorted(s0_set))
    if not s0_set.issubset(common):
        raise InvalidPartition(f"s0 {s0_t} is not a subset of the common spectrum")
    s1 = tuple(i for i in common if i not in s0_set)
    p_s0 = math.fsum(p.weight(i) for i in s0_t)
    q_s1 = math.fsum(q.weight(i) for i in s1)
    excess = p_succ - p_s0
    if excess < -_SLACK * max(1.0, p_succ):
        raise InfeasibleProbability(
            f"requested p_succ={p_succ} is below the weight {p_s0} of s0"
        )
    if not s1:
        if abs(excess) > 1e-10:
            raise InfeasibleProbability(
                f"s0 covers the whole common spectrum but transmits {p_s0}, "
                f"not the requested {p_succ}"
            )
        return s0_t, s1, 0.0
    c = max(excess, 0.0) / q_s1
    return s0_t, s1, c


def lagrange_filter(
    p: EnergyProfile, q: EnergyProfile, s0: Iterable[int], p_succ: float
) -> SectorFilter:
    """The two-regime optimal filter for the partition ``s0`` at ``p_succ``.

    x_E = 1 on s0 and x_E = c q_E/p_E on the rest of the common spectrum,
    with c chosen so the success probability equals ``p_succ``.
    """
    s0_t, s1, c = _coefficient(p, q, s0, p_succ)
    coeffs = {i: 1.0 for i in s0_t}
    for i in s1:
        x = c * q.weight(i) / p.weight(i)
        if x > 1.0 + _SLACK:
            raise InfeasibleProbability(
                f"coefficient {x} at sector {i} exceeds 1; "
                f"p_succ={p_succ} is not reachable with this partition"
            )
        coeffs[i] = min(x, 1.0)
    return SectorFilter(coeffs)


def omega(
    p: EnergyProfile, q: EnergyProfile, s0: Iterable[int], p_succ: float
) -> float:
    """The quantity Omega[S0] whose square over p_succ is the fidelity."""
    s0_t, s1, c = _coefficient(p, q, s0, p_succ)
    for i in s1:
        if c * q.weight(i) / p.weight(i) > 1.0 + _SLACK:
            raise InfeasibleProbability(
                f"coefficient at sector {i} exceeds 1 for this partition"
            )
    aligned = math.fsum(math.sqrt(p.weight(i) * q.weight(i)) for i in s0_t)
    q_s1 = math.fsum(q.weight(i) for i in s1)
    p_s0 = math.fsum(p.weight(i) for i in s0_t)
    return aligned + math.sqrt(max(p_succ - p_s0, 0.0) * q_s1)


def optimal_tradeoff_point(
    p: EnergyProfile,
    q: EnergyProfile,
    p_succ: float,
    mode: str = "exhaustive",
) -> TradeoffPoint:
    """Best fidelity point at success probability ``p_succ``.

    One scan over the ratio order: S0 is the shortest prefix whose
    boundary probability B_k reaches ``p_succ``.  Where a boundary sector
    sits at x = 1 exactly (p_succ = B_k, or p_succ = 1), the prefixes with
    and without it describe the same filter; the shorter one is returned
    unless rounding puts that sector's coefficient above 1.  If no B_k
    reaches ``p_succ``, the request is feasible only as the whole common
    spectrum at p_succ = p(common) within 1e-10.

    ``mode`` is accepted for compatibility: ``"exhaustive"`` and
    ``"ratio-family"`` both run this scan, and any other name raises
    ``ValueError``.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 < p_succ <= 1.0 + _SLACK:
        raise ValueError("p_succ must lie in (0, 1]")
    order = ratio_table(p, q).order
    pw = np.array([p.weight(i) for i in order])
    qw = np.array([q.weight(i) for i in order])
    # B_j for j = 0..n-1: p of the first j sectors plus the (j+1)-th ratio
    # times q of sectors j+1..n (summed from the tail, as in ratio_table).
    p_before = np.cumsum(np.append(0.0, pw[:-1]))
    q_from = np.cumsum(qw[::-1])[::-1]
    reached = np.flatnonzero(p_before + pw / qw * q_from >= p_succ)
    if reached.size:
        k = int(reached[0])
    elif abs(p_succ - math.fsum(pw)) <= 1e-10:
        k = len(order)
    else:
        raise NoFeasiblePartition(
            f"no partition of the common spectrum admits p_succ={p_succ}"
        )
    s0 = order[:k]
    try:
        filt = lagrange_filter(p, q, s0, p_succ)
    except InfeasibleProbability:
        # At p_succ = B_k the next sector sits at x = 1, and rounding can
        # put it above 1 when its weight is small; the next prefix holds
        # it at exactly 1.
        s0 = order[: k + 1]
        filt = lagrange_filter(p, q, s0, p_succ)
    om = omega(p, q, s0, p_succ)
    achieved = filter_success_probability(p, filt)
    return TradeoffPoint(
        p_succ=achieved, fidelity=om * om / p_succ, filter=filt, s0=tuple(sorted(s0))
    )
