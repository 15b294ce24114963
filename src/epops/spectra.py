"""Energy-sector profiles and the ratio-sorted common spectrum.

A pure state with definite sector components is fully described, for every
formula in this package, by its *energy profile*: the probability weight
p_E carried by each energy sector E.  This module provides the profile
type, builders for the standard families (binomial, Poisson, uniform,
sine), and the ratio table: the common spectrum of two profiles sorted by
p_E/q_E, grouped into the distinct ratios r_1 < ... < r_L, with the prefix
sums at the group boundaries from which the recursive protocol and its
coarse-graining read every number.  It is the only place that sorts.

A sector is its integer index.  A profile holds three aligned columns:
the indices, the energy values (shown, never used in a formula) and the
weights.  The matrix modules (``oracle``, ``mixedstate``) group their rows
by sector; ``_layout`` gives each index its row range there.

Weights for large parameters are computed in the log domain (log-gamma),
so quantities like the weight 2^-400 at the edge of a 400-copy binomial
profile stay finite and positive instead of underflowing.

The profile, the ratio table, the protocol columns and the curve points
copy their tuples from finished lists, ``tuple([...])`` or
``tuple(list(map(...)))``, and never build them from a generator or from
an iterator without a length hint (``map``, ``filter``, ``zip``,
``enumerate``, ``starmap``, ``accumulate``, ``chain``).  CPython sizes a
tuple taken from a list once; a tuple grown from an unsized iterator is
resized, which strands a tuple of another size on the interpreter's free
lists each time, and in a process that builds many small tables those
lists grew by about 4 MB.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from operator import itemgetter, mul
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import (
    AllZeroWeights,
    DimensionMismatch,
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


class EnergyProfile(Frozen):
    """Normalized sector weights of a pure state, held as three columns.

    ``support`` lists the sector indices in strictly increasing order,
    ``values`` the energy shown for each sector and ``weights`` its
    nonnegative weight; the weights sum to one within 1e-12.  The index
    is a sector's only identity: its energy value enters no formula, so
    profiles compare and hash by ``(support, weights)``.
    """

    __slots__ = ("support", "values", "weights", "_by_index")

    def __init__(self, support: Sequence[int], values: Sequence[float],
                 weights: Sequence[float]) -> None:
        support, values, weights = tuple(support), tuple(values), tuple(weights)
        if not len(support) == len(values) == len(weights):
            raise ValueError("support, values and weights must have equal length")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise DuplicateLabel("sector indices must be strictly increasing")
        if any(w < 0.0 for w in weights):
            raise NegativeWeight("profile weights must be nonnegative")
        total = _weight_sum(weights)
        if not math.isfinite(total):
            raise NonFiniteWeight(f"profile weights sum to {total!r}")
        if not abs(total - 1.0) <= _NORMALIZATION_TOL:
            raise ValueError(
                f"profile weights sum to {total!r}, expected 1 within {_NORMALIZATION_TOL}"
            )
        self._init(support=support, values=values, weights=weights,
                   _by_index=dict(zip(support, weights)))

    def __eq__(self, other):
        if type(other) is not EnergyProfile:
            return NotImplemented
        return self.support == other.support and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.support, self.weights))

    def __repr__(self) -> str:
        return (f"EnergyProfile(support={self.support!r}, values={self.values!r}, "
                f"weights={self.weights!r})")

    def weight(self, index: int) -> float:
        """Weight at sector ``index`` (zero if the sector is absent)."""
        return self._by_index.get(index, 0.0)

    def as_dict(self) -> dict[int, float]:
        return dict(self._by_index)

    def __len__(self) -> int:
        return len(self.support)

    def to_json(self) -> str:
        """Serialize as ``{"energies": [{"index", "value", "weight"}, ...]}``."""
        doc = {
            "energies": [
                {"index": i, "value": v, "weight": w}
                for i, v, w in zip(self.support, self.values, self.weights)
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


def _weight_sum(weights: Iterable[float]) -> float:
    """``math.fsum`` of the weights; a sum past the double range is not finite."""
    try:
        return math.fsum(weights)
    except OverflowError:
        raise NonFiniteWeight(
            "profile weights sum past the double range, so their total is not finite"
        ) from None


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
    total = _weight_sum(vw[1] for vw in kept.values())
    if total <= 0.0:
        raise AllZeroWeights("every weight is zero (or below the zero threshold)")
    support = sorted(kept)
    return EnergyProfile(
        support, [kept[i][0] for i in support], [kept[i][1] / total for i in support]
    )


def build_profile(pairs: Iterable[Tuple[int, float, float]]) -> EnergyProfile:
    """Build a profile from ``(index, energy value, weight)`` triples.

    Weights are normalized to sum one; sectors with weight at or below
    :data:`ZERO_THRESHOLD` are removed.  A NaN or infinite energy value,
    or an integer one beyond the double range, raises ``ValueError``; such
    a weight raises :class:`NonFiniteWeight`.
    """
    return _assemble(pairs, ZERO_THRESHOLD)


def _layout(sectors: Sequence[Tuple[int, float, int]]) -> Dict[int, slice]:
    """Each sector's row range when a matrix groups its rows by sector.

    ``sectors`` holds (index, energy value, dimension) triples in the row
    order; the indices must be distinct and increasing and every
    dimension positive.
    """
    indices = [i for i, _, _ in sectors]
    if sorted(set(indices)) != indices:
        raise DimensionMismatch("sector labels must be distinct and sorted")
    if any(d < 1 for _, _, d in sectors):
        raise DimensionMismatch("sector dimensions must be positive")
    bounds = list(accumulate((d for _, _, d in sectors), initial=0))
    return {i: slice(a, b) for (i, _, _), a, b in zip(sectors, bounds, bounds[1:])}


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
        return tuple([tuple(sorted(self.order[a:b])) for a, b in zip(starts, self.ends)])

    @property
    def unions(self) -> Tuple[Tuple[int, ...], ...]:
        """The prefix unions U_k, each sorted by index."""
        return tuple([tuple(sorted(self.prefix(k))) for k in range(1, self.length + 1)])

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
    first = raw[0]
    for j in range(1, len(raw)):
        if raw[j] - first > RATIO_TOLERANCE * first:
            starts.append(j)
            first = raw[j]
    ends = starts[1:] + [len(raw)]
    # A one-sector group keeps its ratio: fsum([r]) / 1 == r.
    ratios = tuple([
        raw[a] if b - a == 1 else math.fsum(raw[a:b]) / (b - a)
        for a, b in zip(starts, ends)
    ])

    cuts = [0] + ends
    p_eroded = list(accumulate(pw, initial=0.0))
    aligned = list(accumulate(map(math.sqrt, map(mul, pw, qw)), initial=0.0))
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
