"""Coherent coarse-graining of the recursive protocol.

Merging the first T rounds into a single filter keeps the same success
probability but pays no averaging penalty: the merged filter transmits the
already-eroded sectors fully (x_E = 1 on U_T) and the rest at r_T q_E/p_E,
and its fidelity is at least the cumulative fidelity of the T separate
rounds.  Sweeping T traces the practical tradeoff curve, with the
round-by-round and merged fidelities side by side.

The merged filter and its fidelity are evaluated in closed form only,
from the prefix sums of the ratio table.  Their second routes (summing the
round filters, the generic filter fidelity and success probability) are
compared in the tests and by ``epops verify``.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from .channels import SectorFilter
from .recursive import ProtocolRun, run_protocol
from .spectra import EnergyProfile, RatioTable


class CurvePoint(NamedTuple):
    """One cut of the tradeoff curve at termination round T."""

    T: int
    p_succ: float
    F_recursive: float
    F_coarse: float


class TradeoffCurve(NamedTuple):
    """Tradeoff points for T = 1..K, ordered by increasing probability."""

    points: Tuple[CurvePoint, ...]

    def to_csv(self) -> str:
        """Render as CSV with six significant digits per value."""
        rows = map("%d,%.6g,%.6g,%.6g".__mod__, self.points)
        return "\n".join(["T,p_succ,F_recursive,F_coarse", *rows]) + "\n"


def coarse_filter(run: ProtocolRun, T: int) -> SectorFilter:
    """The single filter equivalent to keeping rounds 1..T.

    Transmits U_T fully and every other input sector at r_T q_E/p_E.
    """
    run.check_round(T)
    u_t = set(run.table.prefix(T))
    r_t = run.table.ratios[T - 1]
    return SectorFilter(
        {
            i: 1.0 if i in u_t else r_t * run.target.weight(i) / w
            for i, w in zip(run.input.support, run.input.weights)
        }
    )


def _merged_fidelities(table: RatioTable, n: int) -> List[float]:
    """Merged-filter fidelities for T = 1..n.

    (sqrt(p q) summed over U_T + sqrt(r_T) q_rest)^2 / (p(U_T) + r_T q_rest),
    where q_rest is the target weight left outside U_T.
    """
    out = []
    for r, aligned, eroded, rest in zip(
        table.ratios[:n], table.aligned[1:], table.p_eroded[1:], table.q_remaining[1:]
    ):
        numerator = aligned + math.sqrt(r) * rest
        out.append(numerator * numerator / (eroded + r * rest))
    return out


def coarse_fidelity(run: ProtocolRun, T: int) -> float:
    """Fidelity of the merged filter for rounds 1..T, in closed form."""
    run.check_round(T)
    return _merged_fidelities(run.table, T)[T - 1]


def curve_from_run(run: ProtocolRun) -> TradeoffCurve:
    """Recursive and merged fidelities of ``run`` against success probability."""
    f_coarse = _merged_fidelities(run.table, len(run.fidelities))
    rounds = range(1, len(f_coarse) + 1)
    return TradeoffCurve(
        points=tuple(list(map(CurvePoint, rounds, run.p_succ, run.f_recursive, f_coarse)))
    )


def tradeoff_curve(p: EnergyProfile, q: EnergyProfile, K: int) -> TradeoffCurve:
    """Recursive and coarse fidelities against success probability.

    One point per termination round T up to min(K, L); the merged filter
    has the cumulative recursive success probability by construction.
    """
    return curve_from_run(run_protocol(p, q, K))
