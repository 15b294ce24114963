"""Round-by-round probabilistic conversion driven by the ratio table.

Each round applies the best fidelity-first filter to whatever the previous
round left behind.  Round k erodes exactly the sectors whose input/target
weight ratio sits in the k-th ratio group, so after L rounds (L the number
of distinct ratios) nothing is left to remove and the protocol terminates.

Every column comes from the prefix sums of the ratio table.  The round
fidelity is the target weight remaining on the uneroded spectrum, and the
round success probability is the ratio increment r_k - r_{k-1} times that
fidelity; the cumulative probability and fidelity are their running sums.
``_rounds`` is this recursion, one loop over the group rows that gives
``run_protocol`` its columns and every curve of ``coarse`` and
``apps.estimation`` its rows, with no ``ProtocolRun``; a curve row prints
the merged filter's probability, not this running sum.  A round is a
record of these numbers only.  ``oracle._filter_arrays`` builds the round
filters' weights m_E per input sector, their second route, which ``epops
verify`` compares with a matrix simulation and the merged filters.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import islice
from typing import Iterable, NamedTuple, Tuple

from .errors import RoundOutOfRange
from .spectra import EnergyProfile, Frozen, RatioTable, _integer, ratio_table


class ProtocolRound(NamedTuple):
    """One protocol round: its index k, fidelity and success probability."""

    k: int
    fidelity: float
    probability: float


class ProtocolRun(Frozen):
    """A protocol execution: the ratio table and the first K rounds.

    ``fidelities`` and ``probabilities`` hold the per-round values;
    ``p_succ[T-1]`` and ``f_recursive[T-1]`` the success probability and
    fidelity after keeping rounds 1..T.
    """

    def __init__(self, input: EnergyProfile, target: EnergyProfile, table: RatioTable,
                 fidelities: Tuple[float, ...], probabilities: Tuple[float, ...],
                 p_succ: Tuple[float, ...], f_recursive: Tuple[float, ...]) -> None:
        self._init(input=input, target=target, table=table, fidelities=fidelities,
                   probabilities=probabilities, p_succ=p_succ, f_recursive=f_recursive)

    @cached_property
    def rounds(self) -> Tuple[ProtocolRound, ...]:
        return tuple([
            ProtocolRound(k, f, pr)
            for k, (f, pr) in enumerate(zip(self.fidelities, self.probabilities), start=1)
        ])

    def check_round(self, T: int) -> None:
        """Raise :class:`RoundOutOfRange` unless 1 <= T <= the rounds run;
        a T that is not an integer raises ``ValueError``."""
        if not 1 <= _integer(T, "round T=") <= len(self.fidelities):
            raise RoundOutOfRange(f"T={T} outside 1..{len(self.fidelities)}")


def _round_count(K) -> int:
    """``K`` as an ``int`` of at least 1, capped at ``sys.maxsize`` (``islice``'s
    limit, and more rows than any curve has); else ``ValueError``."""
    K = _integer(K, "round count K=")
    if K < 1:
        raise ValueError("K must be at least 1")
    return min(K, sys.maxsize)


def _rounds(q_common: float, groups: Iterable[tuple]):
    """Yield each group row r_T, p(U_T), the sqrt(pq) sum over U_T, q(rest),
    ... with its round probability (r_T - r_(T-1)) Q_(T-1), their running sum
    and the running weighted mean of the Q_(T-1) (Q_0 = ``q_common``, Q_T the
    q(rest) of row T); no round probability is -0.0, so 0.0 + x == x."""
    r, q, p_succ, weighted = 0.0, q_common, 0.0, 0.0
    for row in groups:
        probability = (row[0] - r) * q
        p_succ, weighted = p_succ + probability, weighted + probability * q
        yield row, probability, p_succ, weighted / p_succ
        r, q = row[0], row[3]


def run_protocol(p: EnergyProfile, q: EnergyProfile, K: int) -> ProtocolRun:
    """Execute min(K, L) rounds of the recursive conversion protocol.

    Round k transmits the previously eroded sectors untouched and filters
    the remainder down by r_k q_E / p_E relative to the original weights,
    which erodes the k-th ratio group completely.  ``K`` must be an integer
    of at least 1; a bool, float or string raises ``ValueError``.
    """
    table = ratio_table(p, q)
    n = min(_round_count(K), table.length)
    rows = zip(table.ratios, table.p_eroded[1:], table.aligned[1:], table.q_remaining[1:])
    _, probabilities, p_succ, f_recursive = zip(
        *list(islice(_rounds(table.q_remaining[0], rows), n)))
    return ProtocolRun(p, q, table, table.q_remaining[:n], probabilities, p_succ, f_recursive)


def cumulative(run: ProtocolRun, T: int) -> Tuple[float, float]:
    """Success probability and fidelity after keeping rounds 1..T.

    The probability sums the round probabilities; the fidelity is the
    probability-weighted average of the round fidelities.
    """
    run.check_round(T)
    return run.p_succ[T - 1], run.f_recursive[T - 1]

