"""Round-by-round probabilistic conversion driven by the ratio table.

Each round applies the best fidelity-first filter to whatever the previous
round left behind.  Round k erodes exactly the sectors whose input/target
weight ratio sits in the k-th ratio group, so after L rounds (L the number
of distinct ratios) nothing is left to remove and the protocol terminates.

Every column comes from the prefix sums of the ratio table.  The round
fidelity is the target weight remaining on the uneroded spectrum, and the
round success probability is the ratio increment r_k - r_{k-1} times that
fidelity; the cumulative probability and fidelity are their running sums.
The per-round filters and output profiles are built only when read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import mul, sub, truediv
from typing import Dict, Tuple

from .errors import RoundOutOfRange
from .spectra import EnergyProfile, Frozen, RatioTable, _assemble, ratio_table


class ProtocolRound(Frozen):
    """One protocol round: its fidelity and probability, filter and output."""

    def __init__(self, run: "ProtocolRun", k: int, fidelity: float,
                 probability: float) -> None:
        self._init(run=run, k=k, fidelity=fidelity, probability=probability)

    @cached_property
    def kraus(self) -> Dict[int, float]:
        """Filter weight m_E of each input sector.

        Zero on sectors eroded by earlier rounds, (r_k - r_{k-1}) q_E / p_E
        on the rest.
        """
        run, k = self.run, self.k
        eroded = set(run.table.prefix(k - 1))
        ratios = run.table.ratios
        increment = ratios[k - 1] - (ratios[k - 2] if k >= 2 else 0.0)
        q = run.target
        return {
            i: 0.0 if i in eroded else increment * q.weight(i) / w
            for i, w in zip(run.input.support, run.input.weights)
        }

    @cached_property
    def output(self) -> EnergyProfile:
        """The target profile renormalized on the uneroded common spectrum."""
        table, q = self.run.table, self.run.target
        active = set(table.order) - set(table.prefix(self.k - 1))
        return _assemble(
            [(i, v, w / self.fidelity)
             for i, v, w in zip(q.support, q.values, q.weights) if i in active],
            0.0,
        )


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
            ProtocolRound(self, k, f, pr)
            for k, (f, pr) in enumerate(zip(self.fidelities, self.probabilities), start=1)
        ])

    @property
    def terminated(self) -> bool:
        """True when every distinct ratio has had its round."""
        return len(self.fidelities) == self.table.length

    def check_round(self, T: int) -> None:
        """Raise :class:`RoundOutOfRange` unless 1 <= T <= the rounds run."""
        if not 1 <= T <= len(self.fidelities):
            raise RoundOutOfRange(f"T={T} outside 1..{len(self.fidelities)}")


def run_protocol(p: EnergyProfile, q: EnergyProfile, K: int) -> ProtocolRun:
    """Execute min(K, L) rounds of the recursive conversion protocol.

    Round k transmits the previously eroded sectors untouched and filters
    the remainder down by r_k q_E / p_E relative to the original weights,
    which erodes the k-th ratio group completely.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    table = ratio_table(p, q)
    n = min(K, table.length)
    ratios = table.ratios[:n]
    fidelities = table.q_remaining[:n]
    probabilities = tuple(list(map(mul, map(sub, ratios, (0.0,) + ratios), fidelities)))
    p_succ = tuple(list(accumulate(probabilities)))
    weighted = accumulate(map(mul, probabilities, fidelities))
    return ProtocolRun(
        input=p,
        target=q,
        table=table,
        fidelities=fidelities,
        probabilities=probabilities,
        p_succ=p_succ,
        f_recursive=tuple(list(map(truediv, weighted, p_succ))),
    )


def cumulative(run: ProtocolRun, T: int) -> Tuple[float, float]:
    """Success probability and fidelity after keeping rounds 1..T.

    The probability sums the round probabilities; the fidelity is the
    probability-weighted average of the round fidelities.
    """
    run.check_round(T)
    return run.p_succ[T - 1], run.f_recursive[T - 1]


def termination_time(p: EnergyProfile, q: EnergyProfile) -> int:
    """Number of rounds until nothing is left to erode."""
    return ratio_table(p, q).length
