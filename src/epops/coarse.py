"""Coherent coarse-graining of the recursive protocol.

Merging the first T rounds into a single filter keeps the same success
probability but pays no averaging penalty: the merged filter transmits the
already-eroded sectors fully (x_E = 1 on U_T) and the rest at r_T q_E/p_E,
and its fidelity is at least the cumulative fidelity of the T separate
rounds.  Sweeping T traces the practical tradeoff curve, with the
round-by-round and merged fidelities side by side.

One loop writes every curve: ``tradeoff_curve``, ``apps.estimation`` and
the closed-form apps feed their first K ratio groups through the round
recursion ``recursive._rounds``, and ``_points`` turns each group and its
round numbers into a row; none builds a ``RatioTable`` or ``ProtocolRun``.
A row's p_succ is the merged filter's own success probability
s = p(U_T) + r_T q_rest; the running sum of the round probabilities (``recursive.cumulative``) differs
from it only by rounding and by the spread of a ratio tie grouped within
1e-9.  The merged filter is the optimal filter at s (the KKT conditions in
``optimal``), so ``F_coarse`` is the frontier's segment expression at s.
The merged filter itself is built only by ``oracle._filter_arrays``, for
``epops verify``, whose ``_merge_gaps`` compares it with the round filter
weights summed over rounds 1..T, its generic fidelity with the row of
``tradeoff_curve`` and its success probability with the running sum.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Iterable, NamedTuple, Tuple

from .errors import BelowDoubleRange
from .recursive import _round_count, _rounds
from .spectra import EnergyProfile, _column_groups, _ratio_columns, _segment_fidelity

#: log of the smallest normal double; a row below it is refused, never printed.
_LOG_MIN = math.log(sys.float_info.min)


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


def _points(rounds: Iterable[tuple]) -> TradeoffCurve:
    """The curve of the ``recursive._rounds`` items, one row per group T:
    p_succ is the merged filter's p(U_T) + r_T q(rest), F_recursive the
    item's own, F_coarse the segment expression at p_succ."""
    points = []
    for T, ((r, p_u, a_u, q_u, *_), _, _, f_recursive) in enumerate(rounds, 1):
        s = p_u + r * q_u
        points.append(CurvePoint(T, s, f_recursive, _segment_fidelity(a_u, p_u, q_u, s)))
    return TradeoffCurve(tuple(points))


def tradeoff_curve(p: EnergyProfile, q: EnergyProfile, K: int) -> TradeoffCurve:
    """Recursive and coarse fidelities against success probability.

    One point per termination round T up to min(K, L), at the merged
    filter's success probability; only the first K ratio groups are read.
    """
    cols = _ratio_columns(p, q)
    return _points(islice(_rounds(cols.q_from[0], _column_groups(cols)), _round_count(K)))


def closed_form_curve(log_first: float, q_common: float,
                      groups: Iterable[Tuple[float, float, float, float]],
                      K: int) -> TradeoffCurve:
    """The first K rows of a curve whose ratio groups are known in closed
    form, with no profile, sort or protocol run.

    ``groups`` yields per group T its ratio r_T, p(U_T), the sqrt(pq) sum
    over U_T and q(rest) outside U_T; ``q_common`` is q of the common
    spectrum.  The rows are the engine's, from its one round loop.  Their
    p_succ grow from about e^log_first, the least ratio times ``q_common``,
    so if that is below the normal double range :class:`BelowDoubleRange`
    names row 1 before any group is read.
    """
    K = _round_count(K)
    if log_first < _LOG_MIN:
        raise BelowDoubleRange(
            f"row 1 has p_succ 10^{log_first / math.log(10):.6g}, below the normal "
            f"double range ({sys.float_info.min!r}); no row is printed"
        )
    return _points(islice(_rounds(q_common, groups), K))
