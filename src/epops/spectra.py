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

The profile, the ratio table, the protocol columns and the curve points
copy their tuples from finished lists, ``tuple([...])``, and never build
them from a generator.  CPython sizes a tuple taken from a list once; a
tuple grown from a generator is resized, which strands a tuple of another
size on the interpreter's free lists each time, and in a process that
builds many small tables those lists grew by about 4 MB.
"""

from __future__ import annotations

import json
import math
from functools import total_ordering
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, List, NamedTuple, Tuple

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


class Frozen:
    """Base of the validating value types: ``_init`` sets each field once.

    Any later assignment or deletion raises ``AttributeError``.
    """

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:
        # copy and pickle restore the fields here, not through __setattr__.
        self._init(**(state[1] if isinstance(state, tuple) else state))


@total_ordering
class EnergyLabel(Frozen):
    """Identifier of one energy sector.

    The integer ``index`` is the identity: labels compare (and hash) equal
    iff their indices are equal, and order by index.  ``value`` is the
    displayed energy and plays no role in any formula; it defaults to the
    index.
    """

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: float = math.nan) -> None:
        value = float(value)
        # Set directly, without _init's keyword dict: every profile builds
        # one label per sector.
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "value", float(index) if math.isnan(value) else value)

    def __eq__(self, other):
        return self.index == other.index if type(other) is EnergyLabel else NotImplemented

    def __lt__(self, other):
        return self.index < other.index if type(other) is EnergyLabel else NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))

    def __repr__(self) -> str:
        return f"EnergyLabel(index={self.index!r}, value={self.value!r})"


class EnergyProfile(Frozen):
    """Normalized sector weights of a pure state.

    ``entries`` is ordered by strictly increasing label index, every weight
    is positive, and the weights sum to one within 1e-12.  ``support``
    lists the sector indices in that order and ``labels`` their labels.
    Profiles compare and hash by ``entries``.
    """

    __slots__ = ("entries", "support", "labels", "_by_index")

    def __init__(self, entries: Tuple[Tuple[EnergyLabel, float], ...]) -> None:
        indices = [label.index for label, _ in entries]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise DuplicateLabel("labels must be strictly increasing by index")
        weights = [w for _, w in entries]
        if any(w < 0.0 for w in weights):
            raise NegativeWeight("profile weights must be nonnegative")
        total = math.fsum(weights)
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"profile weights sum to {total!r}, expected 1 within {_NORMALIZATION_TOL}"
            )
        self._init(
            entries=entries,
            support=tuple(indices),
            labels=tuple([label for label, _ in entries]),
            _by_index={label.index: w for label, w in entries},
        )

    def __eq__(self, other):
        if type(other) is not EnergyProfile:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"EnergyProfile(entries={self.entries!r})"

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
        :func:`build_profile` input.  Each ``index`` must be a JSON integer,
        and each ``weight`` and ``value`` a JSON number (not a boolean,
        string or null); a NaN or infinite ``value``, or an integer one
        beyond the double range, raises ``ValueError``.
        """
        doc = json.loads(text)
        for e in doc["energies"]:
            if type(e["index"]) is not int:
                raise ValueError(f"sector index in entry {e!r} is not an integer")
            for key in ("weight", "value"):
                if key in e and type(e[key]) not in (int, float):
                    raise ValueError(f"{key} in entry {e!r} is not a number")
        pairs = [
            (e["index"], e.get("value", e["index"]), e["weight"])
            for e in doc["energies"]
        ]
        return build_profile(pairs)


def _json_float(x) -> float:
    """A number as a float; an integer beyond the double range is infinite."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _assemble(
    pairs: Iterable[Tuple[int, float, float]], drop_tol: float
) -> EnergyProfile:
    """Normalize, drop (near-)zero sectors, sort by index."""
    seen: dict[int, Tuple[float, float]] = {}
    for index, value, weight in pairs:
        if index in seen:
            raise DuplicateLabel(f"sector index {index} appears twice")
        try:
            value, weight = float(value), float(weight)
        except OverflowError:
            value, weight = _json_float(value), _json_float(weight)
        if not math.isfinite(value):
            raise ValueError(f"energy value {value!r} at sector {index} is not finite")
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
        [(EnergyLabel(i, kept[i][0]), kept[i][1] / total) for i in sorted(kept)]
    )
    return EnergyProfile(entries)


def build_profile(pairs: Iterable[Tuple[int, float, float]]) -> EnergyProfile:
    """Build a profile from ``(index, energy value, weight)`` triples.

    Weights are normalized to sum one; sectors with weight at or below
    :data:`ZERO_THRESHOLD` are removed.  A NaN or infinite energy value,
    or an integer one beyond the double range, raises ``ValueError``; such
    a weight raises :class:`NonFiniteWeight`.
    """
    return _assemble(pairs, ZERO_THRESHOLD)


class RatioTable(NamedTuple):
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
    p_eroded: Tuple[float, ...]
    aligned: Tuple[float, ...]
    q_remaining: Tuple[float, ...]

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
    return tuple([i for i in p.support if i in qs])


def _ratio_columns(
    p: EnergyProfile, q: EnergyProfile
) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]:
    """The common spectrum in ratio order: ``(order, ratios, pw, qw)``.

    One stable sort on p_E/q_E, so equal ratios keep index order; the
    exact per-sector ratios and both weights form columns aligned with
    ``order``.  Every reader of the ratio order starts here.
    """
    pd, qd = p._by_index, q._by_index
    rows = sorted(
        ((pd[i] / qd[i], pd[i], qd[i], i) for i in p.support if i in qd),
        key=itemgetter(0),
    )
    if not rows:
        raise DisjointSpectra("input and target profiles share no sector")
    raw, pw, qw, order = zip(*rows)
    return order, raw, pw, qw


def ratio_table(p: EnergyProfile, q: EnergyProfile) -> RatioTable:
    """Sort the common spectrum by p_E/q_E and group equal ratios.

    Ratios within a relative distance :data:`RATIO_TOLERANCE` of the first
    ratio of their group collapse into that group (its representative
    ratio is the group mean); this keeps analytically equal ratios, e.g.
    from a symmetric binomial profile, from inflating the round count.
    """
    order, raw, pw, qw = _ratio_columns(p, q)

    starts = [0]
    for j in range(1, len(raw)):
        first = raw[starts[-1]]
        if raw[j] - first > RATIO_TOLERANCE * first:
            starts.append(j)
    ends = starts[1:] + [len(raw)]
    ratios = tuple([math.fsum(raw[a:b]) / (b - a) for a, b in zip(starts, ends)])

    cuts = [0] + ends
    p_eroded = list(accumulate(pw, initial=0.0))
    aligned = list(accumulate((math.sqrt(a * b) for a, b in zip(pw, qw)), initial=0.0))
    # The q sums run from the tail so small remainders keep their precision.
    q_remaining = list(accumulate(reversed(qw), initial=0.0))[::-1]
    return RatioTable(
        order=order,
        ends=tuple(ends),
        ratios=ratios,
        p_eroded=tuple([p_eroded[c] for c in cuts]),
        aligned=tuple([aligned[c] for c in cuts]),
        q_remaining=tuple([q_remaining[c] for c in cuts]),
    )


def _log_factorials(n: int) -> List[float]:
    """log k! for k = 0..n."""
    return [math.lgamma(k + 1) for k in range(n + 1)]


def binomial_profile(N: int) -> EnergyProfile:
    """Profile of N aligned spins: labels m = -N, -N+2, ..., N.

    The weight at m is C(N, (N-m)/2) / 2^N, evaluated through log-gamma so
    the tails stay positive for large N.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    lf = _log_factorials(N)
    log_scale = N * math.log(2.0)
    return _assemble(
        (
            (m, float(m), math.exp(lf[N] - lf[k] - lf[N - k] - log_scale))
            for m, k in zip(range(-N, N + 1, 2), range(N, -1, -1))
        ),
        0.0,
    )


def poisson_profile(r: float, cutoff: int) -> EnergyProfile:
    """Truncated Poisson number profile of a coherent amplitude ``r``.

    Weights are proportional to e^(-r^2) r^(2n) / n! for n = 0..cutoff and
    renormalized over the truncated range.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"amplitude r={r} must be finite and nonnegative")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if r == 0.0:
        return _assemble([(0, 0.0, 1.0)], 0.0)
    log_r = math.log(r)
    logw = [-r * r + 2.0 * n * log_r - lf for n, lf in enumerate(_log_factorials(cutoff))]
    top = max(logw)
    return _assemble(
        ((n, float(n), math.exp(lw - top)) for n, lw in enumerate(logw)), 0.0
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
    scale = 2.0 / (N + 1)
    amps = ((n, math.sin(n * math.pi / (N + 1))) for n in range(1, N + 1))
    return _assemble(((n, float(n), scale * a * a) for n, a in amps), 0.0)
