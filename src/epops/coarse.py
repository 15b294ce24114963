"""Coherent coarse-graining of the recursive protocol.

Merging the first T rounds into a single filter keeps the same success
probability but pays no averaging penalty: the merged filter transmits the
already-eroded sectors fully (x_E = 1 on U_T) and the rest at r_T q_E/p_E,
and its fidelity is at least the cumulative fidelity of the T separate
rounds.  Sweeping T traces the practical tradeoff curve, with the
round-by-round and merged fidelities side by side.

The merged filter of rounds 1..T is the optimal filter at its own success
probability s = p(U_T) + r_T q_rest (the KKT conditions in ``optimal``),
so its fidelity is the frontier's segment expression at s, read off the
ratio table's group-end sums.  s is p_succ up to rounding and to the
spread of a grouped ratio tie, which the root of p_succ - p(U_T) would
amplify.  The merged filter itself is built only by
``oracle.coarse_filter``, for ``oracle.merge_residuals``, which compares
it with the round filter weights summed over rounds 1..T and checks its
generic fidelity and success probability.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from .recursive import ProtocolRun, run_protocol
from .spectra import EnergyProfile, _segment_fidelity


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


def curve_from_run(run: ProtocolRun) -> TradeoffCurve:
    """Recursive and merged fidelities of ``run`` against success probability."""
    table, n = run.table, len(run.fidelities)
    cut = slice(1, n + 1)
    f_coarse = [_segment_fidelity(a, p, q, p + r * q) for r, a, p, q in zip(
        table.ratios, table.aligned[cut], table.p_eroded[cut], table.q_remaining[cut])]
    return TradeoffCurve(points=tuple(list(
        map(CurvePoint, range(1, n + 1), run.p_succ, run.f_recursive, f_coarse)
    )))


def tradeoff_curve(p: EnergyProfile, q: EnergyProfile, K: int) -> TradeoffCurve:
    """Recursive and coarse fidelities against success probability.

    One point per termination round T up to min(K, L); the merged filter
    has the cumulative recursive success probability by construction.
    """
    return curve_from_run(run_protocol(p, q, K))
