"""Energy-sector profiles and the ratio-sorted common spectrum.

A pure state with definite sector components is fully described, for every
formula in this package, by its *energy profile*: the probability weight
p_E carried by each energy sector E.  This module provides the profile
type, builders for the standard families (binomial, Poisson, uniform,
sine), and the ratio table: the common spectrum of two profiles sorted by
p_E/q_E, grouped into the distinct ratios r_1 < ... < r_L, with the prefix
sums at the group boundaries from which the recursive protocol and its
coarse-graining read every number.  It is the only place that sorts, and
``_ratio_groups`` the only one that finds group ends.  A curve, and the
estimation gain, read the first K groups of the sorted columns
(``_column_groups``) and build no ``ProtocolRun``.

A sector is its integer index: no formula reads an energy value, so a
profile holds two aligned columns, the indices and the weights.  The
matrix modules (``oracle``, ``mixedstate``) group their rows by sector;
``_layout`` gives each index its row range there.

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
import operator
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat, takewhile
from operator import add, itemgetter, mul, truediv
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import (
    AllZeroWeights,
    DimensionMismatch,
    DisjointSpectra,
    DuplicateLabel,
    NegativeWeight,
    NonFiniteWeight,
    RatioOverflow,
)

#: Weights at or below this value are treated as exactly zero by the generic
#: construction paths (build_profile, JSON loading).  Analytic builders keep
#: every positive weight they compute.
ZERO_THRESHOLD = 1e-15

#: Relative tolerance for collapsing equal weight ratios into one group.
RATIO_TOLERANCE = 1e-9

_NORMALIZATION_TOL = 1e-12

_INT = frozenset([int])
_FLOAT = frozenset([float])


def _integer(value, label: str) -> int:
    """``value`` as an ``int``; a bool, float or string raises, labelled e.g. "N="."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{label}{value!r} is not an integer")


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
    """Normalized sector weights of a pure state, held as two columns.

    ``support`` lists the sector indices (``int``s, strictly increasing; a
    numpy integer is converted) and ``weights`` the positive weight of each
    (``float``s; an ``int`` or a numpy number is converted, a bool or a
    non-number raises ``ValueError`` naming its sector); the weights sum to
    one within 1e-12.  The index is a sector's only identity, so profiles
    compare and hash by ``(support, weights)``.
    """

    __slots__ = ("support", "weights", "_by_index")

    def __init__(self, support: Sequence[int], weights: Sequence[float]) -> None:
        support, weights = tuple(support), tuple(weights)
        if len(support) != len(weights):
            raise ValueError("support and weights must have equal length")
        if not _INT.issuperset(map(type, support)):
            support = tuple([_integer(i, "sector index ") for i in support])
        if not _FLOAT.issuperset(map(type, weights)):
            weights = tuple([_number(w, "weight", i) for i, w in zip(support, weights)])
        if any(map(operator.ge, support, support[1:])):
            raise DuplicateLabel("sector indices must be strictly increasing")
        if any(map(operator.lt, weights, repeat(0.0))):
            raise NegativeWeight("profile weights must be nonnegative")
        if 0.0 in weights:
            raise ValueError(f"sector {support[weights.index(0.0)]} has weight zero")
        total = _weight_sum(weights)
        if not math.isfinite(total):
            raise NonFiniteWeight(f"profile weights sum to {total!r}")
        if not abs(total - 1.0) <= _NORMALIZATION_TOL:
            raise ValueError(
                f"profile weights sum to {total!r}, expected 1 within {_NORMALIZATION_TOL}"
            )
        self._init(support=support, weights=weights, _by_index=dict(zip(support, weights)))

    def __eq__(self, other):
        if type(other) is not EnergyProfile:
            return NotImplemented
        return self.support == other.support and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.support, self.weights))

    def __repr__(self) -> str:
        return f"EnergyProfile(support={self.support!r}, weights={self.weights!r})"

    def weight(self, index: int) -> float:
        """Weight at sector ``index`` (zero if the sector is absent)."""
        return self._by_index.get(index, 0.0)

    def __len__(self) -> int:
        return len(self.support)

    def to_json(self) -> str:
        """Serialize as ``{"energies": [{"index", "weight"}, ...]}``."""
        doc = {
            "energies": [
                {"index": i, "weight": w} for i, w in zip(self.support, self.weights)
            ]
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EnergyProfile":
        """Load a profile from its JSON document.

        Weights need not be pre-normalized; they are cleaned up exactly like
        :func:`build_profile` input.  Each ``index`` must be a JSON integer,
        and each ``weight`` a JSON number (not a boolean, string or null).
        An entry's ``value`` is optional, as files written before profiles
        dropped their energy values carry one: it is checked as
        :func:`build_profile` checks a value, and not stored.
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


def _number(value, what: str, index: int) -> float:
    """A real number (an ``int``, a ``float`` or a numpy one) as a float, by
    :func:`_json_float`; a bool or a non-number raises ``ValueError`` naming
    its sector."""
    if type(value) not in (int, float):
        from numbers import Real  # here, so that start-up of the CLI skips it

        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{what} {value!r} at sector {index} is not a number")
    return _json_float(value)


def _weight_sum(weights: Iterable[float]) -> float:
    """``math.fsum`` of the weights; a sum past the double range is not finite."""
    try:
        return math.fsum(weights)
    except OverflowError:
        raise NonFiniteWeight(
            "profile weights sum past the double range, so their total is not finite"
        ) from None


def _assemble(support: Sequence[int], weights: Sequence[float]) -> EnergyProfile:
    """The profile of two aligned columns, indices increasing: each weight
    over their ``fsum`` total, and a sector whose weight comes out 0.0 (a zero
    or an underflowing tail) dropped."""
    total = _weight_sum(weights)
    if total <= 0.0:
        raise AllZeroWeights("every weight is zero (or below the zero threshold)")
    weights = list(map(truediv, weights, repeat(total)))
    if 0.0 in weights:
        # compress keeps a NaN weight, for the constructor to refuse.
        support, weights = [list(compress(c, weights)) for c in (support, weights)]
    return EnergyProfile(support, weights)


def build_profile(pairs: Iterable[Tuple[int, float, float]]) -> EnergyProfile:
    """Build a profile from ``(index, energy value, weight)`` triples.

    Weights are normalized to sum one; sectors with weight at or below
    :data:`ZERO_THRESHOLD` are removed.  Each index is checked first, so a
    non-integer one raises ``ValueError`` naming it, not ``TypeError``; so
    does an energy value or weight that is a bool or not a number.  A NaN
    or infinite energy value, or an integer one beyond the double range,
    raises ``ValueError``; such a weight raises :class:`NonFiniteWeight`.
    An energy value enters no formula: it is checked and not stored.
    """
    seen: dict[int, float] = {}
    for index, value, weight in pairs:
        if type(index) is not int:
            index = _integer(index, "sector index ")
        if index in seen:
            raise DuplicateLabel(f"sector index {index} appears twice")
        value = _number(value, "energy value", index)
        if not math.isfinite(value):
            raise ValueError(f"energy value {value!r} at sector {index} is not finite")
        weight = _number(weight, "weight", index)
        if not math.isfinite(weight):
            raise NonFiniteWeight(f"weight {weight!r} at sector {index} is not finite")
        if weight < -1e-12:
            raise NegativeWeight(f"weight {weight!r} at sector {index} is negative")
        seen[index] = max(weight, 0.0)
    support = sorted([i for i, w in seen.items() if w > ZERO_THRESHOLD])
    return _assemble(support, [seen[i] for i in support])


def _layout(sectors: Sequence[Tuple[int, int]]) -> Dict[int, slice]:
    """Each sector's row range when a matrix groups its rows by sector.

    ``sectors`` holds (index, dimension) pairs in the row order; the
    indices must be distinct and increasing and every dimension positive.
    """
    indices = [i for i, _ in sectors]
    if sorted(set(indices)) != indices:
        raise DimensionMismatch("sector labels must be distinct and sorted")
    if any(d < 1 for _, d in sectors):
        raise DimensionMismatch("sector dimensions must be positive")
    bounds = list(accumulate((d for _, d in sectors), initial=0))
    return {i: slice(a, b) for (i, _), a, b in zip(sectors, bounds, bounds[1:])}


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


def common_support(p: EnergyProfile, q: EnergyProfile) -> Tuple[int, ...]:
    """Sorted sector indices carrying weight in both profiles."""
    qs = set(q.support)
    return tuple([i for i in p.support if i in qs])


class RatioColumns(Frozen):
    """A pair's common spectrum in ratio order, read-only: the profiles ``p``
    and ``q``, the sector ``order``, the ``ratios`` p_E/q_E and the weight
    columns ``pw`` and ``qw``; for j = 0..n, ``p_before[j]`` and ``aligned[j]``
    sum p_E and sqrt(p_E q_E) over the first j sectors, and ``q_from[j]`` sums
    q_E over the rest from the tail."""

    def __init__(self, **columns) -> None:
        self.__dict__.update(columns)

    @cached_property
    def b_max(self) -> Tuple[float, ...]:
        """The running maximum of p_before[j] + ratios[j] q_from[j], built on
        the first read, which only the optimum makes: a curve never pays for it."""
        B = map(add, self.p_before, map(mul, self.ratios, self.q_from))
        return tuple(list(accumulate(B, max)))


def _segment_fidelity(aligned: float, p_before: float, q_from: float, p_succ: float) -> float:
    """(A + sqrt((s - P) Q))^2 / s: the optimal fidelity at success probability
    s on the segment of the frontier whose fully transmitted prefix has
    sqrt(pq) sum A and input weight P, with target weight Q past it."""
    excess = p_succ - p_before
    om = aligned + math.sqrt(excess * q_from) if excess > 0.0 else aligned
    return om * om / p_succ


#: The latest pair's columns; immutable profiles make its identity a key.
_last = None


def _ratio_columns(p: EnergyProfile, q: EnergyProfile) -> RatioColumns:
    """The one stable sort by p_E/q_E (ties keep index order), kept in
    ``_last`` until another pair is sorted; an infinite ratio raises."""
    global _last
    if _last is not None and _last.p is p and _last.q is q:
        return _last
    pd, qd = p._by_index, q._by_index
    rows = sorted(((pd[i] / qd[i], pd[i], qd[i], i) for i in p.support if i in qd),
                  key=itemgetter(0))
    if not rows:
        raise DisjointSpectra("input and target profiles share no sector")
    if not rows[-1][0] < math.inf:
        raise RatioOverflow(f"the ratio p/q at sector {rows[-1][3]} is not finite")
    ratios, pw, qw, order = zip(*rows)
    p_before = list(accumulate(pw, initial=0.0))
    aligned = list(accumulate(map(math.sqrt, map(mul, pw, qw)), initial=0.0))
    q_from = list(accumulate(reversed(qw), initial=0.0))[::-1]
    _last = cols = RatioColumns(p=p, q=q, order=order, ratios=ratios, pw=pw, qw=qw,
                                p_before=tuple(p_before), aligned=tuple(aligned),
                                q_from=tuple(q_from))
    return cols


def _ratio_groups(rows: Iterable[tuple]):
    """Yield each group of rows in nondecreasing ratio order: its ratio, then
    the rest of its last row, read lazily, one row past each group.

    A row is a sector's ratio and sums up to and including it.  A ratio
    within a relative distance :data:`RATIO_TOLERANCE` of its group's first
    ratio joins that group, whose ratio is the group mean; this keeps
    analytically equal ratios, e.g. from a symmetric binomial profile, from
    inflating the round count.
    """
    group, last = [], None
    # The infinite sentinel row closes the last group.
    for row in chain(rows, [(math.inf,)]):
        if group and row[0] - group[0] > RATIO_TOLERANCE * group[0]:
            # A one-sector group is its row as it is: fsum([r]) / 1 == r.
            yield last if len(group) == 1 else (math.fsum(group) / len(group), *last[1:])
            group = []
        group.append(row[0])
        last = row


def _column_groups(cols: RatioColumns):
    """The groups of a pair's sorted columns: r_k, p(U_k), the sqrt(pq) sum
    over U_k, q outside U_k and the number of sectors in U_k."""
    return _ratio_groups(zip(cols.ratios, islice(cols.p_before, 1, None),
                             islice(cols.aligned, 1, None), islice(cols.q_from, 1, None),
                             count(1)))


def ratio_table(p: EnergyProfile, q: EnergyProfile) -> RatioTable:
    """Sort the common spectrum by p_E/q_E and group near-equal ratios
    (:func:`_ratio_groups`)."""
    cols = _ratio_columns(p, q)
    r, p_u, a_u, q_u, ends = zip(*list(_column_groups(cols)))
    return RatioTable(cols.order, ends, r, (0.0, *p_u), (0.0, *a_u), (cols.q_from[0], *q_u))


def _log_factorials(n: int) -> List[float]:
    """log k! for k = 0..n."""
    return [math.lgamma(k + 1) for k in range(n + 1)]


def _binomial_weight(N: int):
    """k -> C(N, k) / 2^N through log-gamma: the one source of binomial weights."""
    lf_n, log_scale = math.lgamma(N + 1), N * math.log(2.0)
    return lambda k: math.exp(lf_n - math.lgamma(k + 1) - math.lgamma(N - k + 1) - log_scale)


def binomial_profile(N: int) -> EnergyProfile:
    """Profile of N aligned spins: labels m = -N, -N+2, ..., N with weight
    C(N, (N-m)/2) / 2^N.  The log-weight is concave in k = (N-m)/2, so the
    weights that do not underflow are one run around k = N // 2: each side
    is walked out to its first 0.0, and no underflowing tail is computed."""
    N = _integer(N, "N=")
    if N < 1:
        raise ValueError("N must be a positive integer")
    weight = _binomial_weight(N)
    up = list(takewhile(bool, map(weight, range(N // 2 + 1, N + 1))))
    down = list(takewhile(bool, map(weight, range(N // 2, -1, -1))))
    support = range(N - 2 * (N // 2 + len(up)), N - 2 * (N // 2 - len(down)), 2)
    return _assemble(support, up[::-1] + down)


def poisson_profile(r: float, cutoff: int) -> EnergyProfile:
    """Truncated Poisson number profile of a coherent amplitude ``r``.

    Weights are proportional to e^(-r^2) r^(2n) / n! for n = 0..cutoff and
    renormalized over the truncated range.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"amplitude r={r} must be finite and nonnegative")
    cutoff = _integer(cutoff, "cutoff=")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if r == 0.0:
        return EnergyProfile([0], [1.0])
    log_r = math.log(r)
    logw = [-r * r + 2.0 * n * log_r - lf for n, lf in enumerate(_log_factorials(cutoff))]
    top = max(logw)
    return _assemble(range(cutoff + 1), [math.exp(lw - top) for lw in logw])


def uniform_profile(N: int) -> EnergyProfile:
    """Flat profile over n = 0..N-1 (maximally coherent state)."""
    N = _integer(N, "N=")
    if N < 1:
        raise ValueError("N must be a positive integer")
    return _assemble(range(N), [1.0 / N] * N)


def sine_profile(N: int) -> EnergyProfile:
    """Sine-state profile over n = 0..N with weight (2/(N+1)) sin^2(n pi/(N+1)).

    The n = 0 weight is exactly zero and is dropped, so the support is
    1..N.
    """
    N = _integer(N, "N=")
    if N < 1:
        raise ValueError("N must be a positive integer")
    scale, support = 2.0 / (N + 1), range(1, N + 1)
    amps = [math.sin(n * math.pi / (N + 1)) for n in support]
    return _assemble(support, [scale * a * a for a in amps])
