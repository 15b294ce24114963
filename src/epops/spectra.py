"""Energy-sector profiles and the ratio-sorted common spectrum.

A pure state with definite sector components is fully described, for every
formula in this package, by its *energy profile*: the probability weight
p_E carried by each energy sector E.  This module provides the profile
type, builders for the standard families (binomial, Poisson, uniform,
sine), and the ratio table: the common spectrum of two profiles sorted by
p_E/q_E, grouped into the distinct ratios r_1 < ... < r_L, with the prefix
sums at the group boundaries from which the recursive protocol and its
coarse-graining read every number.  It is the only place that sorts.

Weights for large parameters are computed in the log domain (log-gamma),
so quantities like the weight 2^-400 at the edge of a 400-copy binomial
profile stay finite and positive instead of underflowing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

from .errors import (
    AllZeroWeights,
    DisjointSpectra,
    DuplicateLabel,
    NegativeWeight,
    NonFiniteWeight,
)

#: Weights at or below this value are treated as exactly zero by the generic
#: construction paths (build_profile, JSON loading).  Analytic builders keep
#: every positive weight they compute.
ZERO_THRESHOLD = 1e-15

#: Relative tolerance for collapsing equal weight ratios into one group.
RATIO_TOLERANCE = 1e-9

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, order=True)
class EnergyLabel:
    """Identifier of one energy sector.

    The integer ``index`` is the identity: labels compare (and hash) equal
    iff their indices are equal.  ``value`` is the displayed energy and
    plays no role in any formula.
    """

    index: int
    value: float = field(default=math.nan, compare=False)

    def __post_init__(self) -> None:
        value = float(self.value)
        if math.isnan(value):
            value = float(self.index)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class EnergyProfile:
    """Normalized sector weights of a pure state.

    ``entries`` is ordered by strictly increasing label index, every weight
    is positive, and the weights sum to one within 1e-12.  ``support``
    lists the sector indices in that order and ``labels`` their labels.
    """

    entries: Tuple[Tuple[EnergyLabel, float], ...]
    support: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    labels: Tuple[EnergyLabel, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indices = [label.index for label, _ in self.entries]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise DuplicateLabel("labels must be strictly increasing by index")
        weights = [w for _, w in self.entries]
        if any(w < 0.0 for w in weights):
            raise NegativeWeight("profile weights must be nonnegative")
        total = math.fsum(weights)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"profile weights sum to {total!r}, expected 1 within {_NORMALIZATION_TOL}"
            )
        object.__setattr__(
            self, "_by_index", {label.index: w for label, w in self.entries}
        )
        object.__setattr__(self, "support", tuple(indices))
        object.__setattr__(self, "labels", tuple(label for label, _ in self.entries))

    def weight(self, index: int) -> float:
        """Weight at sector ``index`` (zero if the sector is absent)."""
        return self._by_index.get(index, 0.0)

    def as_dict(self) -> dict[int, float]:
        return {label.index: w for label, w in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> str:
        """Serialize as ``{"energies": [{"index", "value", "weight"}, ...]}``."""
        doc = {
            "energies": [
                {"index": label.index, "value": label.value, "weight": w}
                for label, w in self.entries
            ]
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EnergyProfile":
        """Load a profile from its JSON document.

        Weights need not be pre-normalized; they are cleaned up exactly like
        :func:`build_profile` input.  Each ``index`` must be a JSON integer.
        """
        doc = json.loads(text)
        for e in doc["energies"]:
            if type(e["index"]) is not int:
                raise ValueError(f"sector index in entry {e!r} is not an integer")
        pairs = [
            (e["index"], float(e.get("value", e["index"])), float(e["weight"]))
            for e in doc["energies"]
        ]
        return build_profile(pairs)


def _assemble(
    pairs: Iterable[Tuple[int, float, float]], drop_tol: float
) -> EnergyProfile:
    """Normalize, drop (near-)zero sectors, sort by index."""
    seen: dict[int, Tuple[float, float]] = {}
    for index, value, weight in pairs:
        if index in seen:
            raise DuplicateLabel(f"sector index {index} appears twice")
        if not math.isfinite(weight):
            raise NonFiniteWeight(f"weight {weight!r} at sector {index} is not finite")
        if weight < -1e-12:
            raise NegativeWeight(f"weight {weight!r} at sector {index} is negative")
        seen[index] = (value, max(weight, 0.0))
    kept = {i: vw for i, vw in seen.items() if vw[1] > drop_tol}
    total = math.fsum(vw[1] for vw in kept.values())
    if total <= 0.0:
        raise AllZeroWeights("every weight is zero (or below the zero threshold)")
    entries = tuple(
        (EnergyLabel(i, kept[i][0]), kept[i][1] / total) for i in sorted(kept)
    )
    return EnergyProfile(entries)


def build_profile(pairs: Iterable[Tuple[int, float, float]]) -> EnergyProfile:
    """Build a profile from ``(index, energy value, weight)`` triples.

    Weights are normalized to sum one; sectors with weight at or below
    :data:`ZERO_THRESHOLD` are removed.
    """
    return _assemble(pairs, ZERO_THRESHOLD)


@dataclass(frozen=True, eq=False)
class RatioTable:
    """The common spectrum sorted by p_E/q_E, grouped by distinct ratio.

    ``order`` lists the common sectors by increasing ratio (ties by index);
    the first ``ends[k-1]`` of them form U_k = R_1 | ... | R_k, the union
    of the first k groups.  ``ratios`` holds r_1 < ... < r_L, and L is the
    termination time of the recursive protocol.  For k = 0..L the prefix
    sums ``p_eroded[k]``, ``aligned[k]`` and ``q_remaining[k]`` are p(U_k),
    the sum of sqrt(p_E q_E) over U_k, and the target weight of the common
    spectrum outside U_k.
    """

    order: Tuple[int, ...]
    ends: Tuple[int, ...]
    ratios: Tuple[float, ...]
    p_eroded: np.ndarray
    aligned: np.ndarray
    q_remaining: np.ndarray

    @property
    def length(self) -> int:
        return len(self.ratios)

    def prefix(self, k: int) -> Tuple[int, ...]:
        """U_k in ratio order (empty for k = 0)."""
        return self.order[: self.ends[k - 1]] if k else ()

    @property
    def groups(self) -> Tuple[Tuple[int, ...], ...]:
        """The sector sets R_k sharing each ratio, each sorted by index."""
        starts = (0,) + self.ends[:-1]
        return tuple(tuple(sorted(self.order[a:b])) for a, b in zip(starts, self.ends))

    @property
    def unions(self) -> Tuple[Tuple[int, ...], ...]:
        """The prefix unions U_k, each sorted by index."""
        return tuple(tuple(sorted(self.prefix(k))) for k in range(1, self.length + 1))

    def union_before(self, k: int) -> Tuple[int, ...]:
        """U_{k-1}, the sectors eroded before round k (empty for k=1)."""
        return tuple(sorted(self.prefix(k - 1)))


def common_support(p: EnergyProfile, q: EnergyProfile) -> Tuple[int, ...]:
    """Sorted sector indices carrying weight in both profiles."""
    qs = set(q.support)
    return tuple(i for i in p.support if i in qs)


def ratio_table(p: EnergyProfile, q: EnergyProfile) -> RatioTable:
    """Sort the common spectrum by p_E/q_E and group equal ratios.

    Ratios within a relative distance :data:`RATIO_TOLERANCE` of the first
    ratio of their group collapse into that group (its representative
    ratio is the group mean); this keeps analytically equal ratios, e.g.
    from a symmetric binomial profile, from inflating the round count.
    """
    common = common_support(p, q)
    if not common:
        raise DisjointSpectra("input and target profiles share no sector")
    pw = np.array([p.weight(i) for i in common])
    qw = np.array([q.weight(i) for i in common])
    perm = np.argsort(pw / qw, kind="stable")
    pw, qw = pw[perm], qw[perm]
    raw = (pw / qw).tolist()

    starts = [0]
    for j in range(1, len(raw)):
        first = raw[starts[-1]]
        if raw[j] - first > RATIO_TOLERANCE * first:
            starts.append(j)
    ends = starts[1:] + [len(raw)]
    ratios = tuple(math.fsum(raw[a:b]) / (b - a) for a, b in zip(starts, ends))

    cuts = [0] + ends
    # The q sums run from the tail so small remainders keep their precision.
    return RatioTable(
        order=tuple(common[j] for j in perm.tolist()),
        ends=tuple(ends),
        ratios=ratios,
        p_eroded=np.cumsum(np.append(0.0, pw))[cuts],
        aligned=np.cumsum(np.append(0.0, np.sqrt(pw * qw)))[cuts],
        q_remaining=np.cumsum(np.append(qw, 0.0)[::-1])[::-1][cuts],
    )


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def binomial_profile(N: int) -> EnergyProfile:
    """Profile of N aligned spins: labels m = -N, -N+2, ..., N.

    The weight at m is C(N, (N-m)/2) / 2^N, evaluated through log-gamma so
    the tails stay positive for large N.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    ms = np.arange(-N, N + 1, 2)
    ks = (N - ms) // 2
    lf = _log_factorials(N)
    logw = lf[N] - lf[ks] - lf[N - ks] - N * math.log(2.0)
    weights = np.exp(logw)
    weights /= weights.sum()
    return _assemble(
        ((int(m), float(m), float(w)) for m, w in zip(ms, weights)), 0.0
    )


def poisson_profile(r: float, cutoff: int) -> EnergyProfile:
    """Truncated Poisson number profile of a coherent amplitude ``r``.

    Weights are proportional to e^(-r^2) r^(2n) / n! for n = 0..cutoff and
    renormalized over the truncated range.
    """
    if r < 0.0:
        raise ValueError("amplitude r must be nonnegative")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if r == 0.0:
        return _assemble([(0, 0.0, 1.0)], 0.0)
    ns = np.arange(cutoff + 1)
    logw = -r * r + 2.0 * ns * math.log(r) - _log_factorials(cutoff)
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()
    return _assemble(
        ((int(n), float(n), float(w)) for n, w in zip(ns, weights)), 0.0
    )


def uniform_profile(N: int) -> EnergyProfile:
    """Flat profile over n = 0..N-1 (maximally coherent state)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    return _assemble(((n, float(n), 1.0 / N) for n in range(N)), 0.0)


def sine_profile(N: int) -> EnergyProfile:
    """Sine-state profile over n = 0..N with weight (2/(N+1)) sin^2(n pi/(N+1)).

    The n = 0 weight is exactly zero and is dropped, so the support is
    1..N.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    ns = np.arange(N + 1)
    amp = np.sin(ns * math.pi / (N + 1))
    weights = 2.0 / (N + 1) * amp * amp
    weights /= weights.sum()
    return _assemble(
        ((int(n), float(n), float(w)) for n, w in zip(ns, weights) if w > 0.0), 0.0
    )
