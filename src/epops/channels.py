"""Sector filters and the foundational fidelity formulas.

An energy-preserving pure operation, reduced to its Lüders form and
followed by eigenstate alignment, acts on a pure input through a single
number per sector: the transmission probability x_E in [0, 1].  This
module holds that filter type together with the two formulas everything
else builds on: the deterministic alignment fidelity

    F_det = (sum_E sqrt(p_E q_E))^2

and the filtered fidelity

    F = (sum_E sqrt(x_E p_E q_E))^2 / p_succ,    p_succ = sum_E p_E x_E.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Tuple

from .errors import ZeroSuccessProbability
from .spectra import EnergyProfile, Frozen, build_profile, common_support

_CLIP_SLACK = 1e-12
_INT = frozenset([int])
_REAL = frozenset([int, float])


def _sector_index(key) -> int:
    """A filter key that is not an ``int``, as a sector index."""
    if not isinstance(key, bool):
        try:
            return operator.index(key)
        except TypeError:
            pass
    raise ValueError(f"filter key {key!r} is not an integer sector index")


def _clean_each(coefficients: Mapping[int, float]) -> dict[int, float]:
    """Validate, convert and clip the coefficients one sector at a time."""
    cleaned: dict[int, float] = {}
    for index, x in coefficients.items():
        if type(index) is not int:
            index = _sector_index(index)
        if not -_CLIP_SLACK <= x <= 1.0 + _CLIP_SLACK:
            raise ValueError(
                f"filter coefficient {x!r} at sector {index} is not in [0, 1]"
            )
        cleaned[index] = min(max(x, 0.0), 1.0)
    return cleaned


class SectorFilter(Frozen):
    """Per-sector transmission probabilities x_E of a pure filter.

    Absent sectors transmit nothing.  Coefficients within 1e-12 outside
    [0, 1] are clipped (boundary solutions of the Lagrange optimum land at
    1 up to roundoff); anything further out, and NaN, is rejected.  Keys
    are integer sector indices (ints or numpy integers); a bool or a
    float key is rejected, not truncated.
    """

    def __init__(self, coefficients: Mapping[int, float]) -> None:
        values = coefficients.values()
        # The common case, int keys and float or int values in [0, 1] (no
        # NaN), needs no conversion or clipping, so it is checked in C-level
        # passes and copied; anything else goes through ``_clean_each``.
        if (_INT.issuperset(map(type, coefficients))
                and _REAL.issuperset(map(type, values))
                and all(map((0.0).__le__, values)) and all(map((1.0).__ge__, values))):
            cleaned = dict(coefficients)
        else:
            cleaned = _clean_each(coefficients)
        self._init(coefficients=cleaned)

    def __eq__(self, other):
        if type(other) is not SectorFilter:
            return NotImplemented
        return self.coefficients == other.coefficients

    def coefficient(self, index: int) -> float:
        return self.coefficients.get(index, 0.0)

    @classmethod
    def identity(cls, profile: EnergyProfile) -> "SectorFilter":
        """Full transmission on every sector of ``profile``."""
        return cls({i: 1.0 for i in profile.support})

    def to_json_dict(self) -> dict:
        """Serialize as ``{"x": {"<index>": coefficient}}``."""
        return {"x": {str(i): x for i, x in sorted(self.coefficients.items())}}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SectorFilter":
        return cls({int(i): float(x) for i, x in doc["x"].items()})


def deterministic_fidelity(p: EnergyProfile, q: EnergyProfile) -> float:
    """Best deterministic (unit-probability) fidelity: (sum sqrt(p_E q_E))^2.

    Disjoint spectra simply give zero.
    """
    s = math.fsum(math.sqrt(p.weight(i) * q.weight(i)) for i in common_support(p, q))
    return s * s


def filter_success_probability(p: EnergyProfile, f: SectorFilter) -> float:
    """Probability sum_E p_E x_E that the filter transmits the state."""
    return math.fsum(p.weight(i) * f.coefficient(i) for i in p.support)


def filtered_profile(p: EnergyProfile, f: SectorFilter) -> EnergyProfile:
    """Renormalized profile after the filter: p'_E = p_E x_E / p_succ."""
    p_succ = filter_success_probability(p, f)
    if p_succ <= 0.0:
        raise ZeroSuccessProbability("the filter transmits nothing of this profile")
    pairs = []
    for i, v, w in zip(p.support, p.values, p.weights):
        x = f.coefficient(i)
        if x > 0.0:
            pairs.append((i, v, w * x / p_succ))
    return build_profile(pairs)


def filter_fidelity(p: EnergyProfile, q: EnergyProfile, f: SectorFilter) -> float:
    """Fidelity to ``q`` after filtering ``p``, evaluated in closed form.

    Equals ``deterministic_fidelity(filtered_profile(p, f), q)``; both
    routes are the same quadratic form and agree to 1e-12.
    """
    p_succ = filter_success_probability(p, f)
    if p_succ <= 0.0:
        raise ZeroSuccessProbability("the filter transmits nothing of this profile")
    s = math.fsum(
        math.sqrt(f.coefficient(i) * p.weight(i) * q.weight(i))
        for i in common_support(p, q)
    )
    return s * s / p_succ

