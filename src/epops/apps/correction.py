"""Probabilistic correction of an amplitude-damped qudit level profile.

A damping filter with strength mu leaves a uniformly weighted qudit with
geometric level weights mu^(n-1)(1-mu)/(1-mu^d); correction steers them
back to uniform.  The weight ratio d mu^(n-1)(1-mu)/(1-mu^d) falls with
the level n, so the ratio order is d, d-1, ..., 1.  ``_ratio_groups``
groups the levels' ratios, and at the count e of levels U from d down to
each group's last, geometric series in the log domain give p(U), the
sqrt(pq) sum over U and q(rest) = (d - e)/d, O(1) per group.  The sector
fidelity of any such channel converts to a Haar-average fidelity over
input states by an affine map, which therefore commutes with mixing
rounds together.  The generic engine on ``damped_profile`` and
``uniform_levels`` is the second route to these curves, in the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..coarse import CurvePoint, TradeoffCurve, closed_form_curve
from ..errors import TooLarge
from ..spectra import EnergyProfile, _assemble, _integer, _ratio_groups

#: Largest level count d: it bounds the rows a curve can print.  A run at
#: it that prints all 2,000,000 rows (mu = 0.999999) takes 11-13 s and peaks
#: at 1.0 GB on a 2-core machine; 64 rows take 0.07 s from a cold start.
_LEVEL_CAP = 2_000_000


class CorrectionResult(NamedTuple):
    d: int
    mu: float
    sector_curve: TradeoffCurve
    average_curve: TradeoffCurve


def haar_average_fidelity(f0: float, d: int) -> float:
    """Average fidelity over Haar inputs of a channel with sector fidelity f0."""
    if d < 1:
        raise ValueError("d must be positive")
    return (f0 * d + 1.0) / (d + 1.0)


def damped_profile(d: int, mu: float) -> EnergyProfile:
    """Level weights mu^(n-1)(1-mu)/(1-mu^d) on n = 1..d."""
    norm, levels = (1.0 - mu) / (1.0 - mu**d), range(1, d + 1)
    return _assemble(levels, [norm * mu ** (n - 1) for n in levels])


def uniform_levels(d: int) -> EnergyProfile:
    """Uniform weights on levels 1..d."""
    return _assemble(range(1, d + 1), [1.0 / d] * d)


def round_probability(d: int, mu: float, k: int) -> float:
    """Closed-form probability of round k."""
    if k == 1:
        return mu ** (d - 1) * (1.0 - mu) * d / (1.0 - mu**d)
    return mu ** (d - k) * (1.0 - mu) ** 2 * (d + 1 - k) / (1.0 - mu**d)


def _log_one_minus_exp(x: float) -> float:
    """log(1 - e^x) for x < 0."""
    return math.log(-math.expm1(x))


def correction_tradeoff(d: int, mu: float, K: int) -> CorrectionResult:
    """Fidelity-probability curves for correcting the damped qudit.

    The sector curve has one row per ratio group up to K; the average
    curve applies the Haar map to both fidelity columns.  A curve whose
    first p_succ lies below the double range raises
    :class:`~epops.errors.BelowDoubleRange`.
    """
    d = _integer(d, "d=")
    if d < 2:
        raise ValueError("d must be at least 2")
    if d > _LEVEL_CAP:
        raise TooLarge(f"level count d={d} exceeds the cap {_LEVEL_CAP}")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    lm, log_d = math.log(mu), math.log(d)
    # The top e levels hold p = mu^(d-e) (1 - mu^e)/(1 - mu^d) and
    # sqrt(pq) = e^half_norm mu^((d-e)/2) (1 - mu^(e/2)); level 1's ratio is e^log_top.
    log_total = _log_one_minus_exp(d * lm)
    log_norm = _log_one_minus_exp(lm) - log_total
    log_top = log_d + log_norm
    half_norm = 0.5 * (log_norm - log_d) - _log_one_minus_exp(0.5 * lm)
    # Per group, U the e levels from the top to its last: r, p(U), sqrt(pq) over U, q(rest).
    levels = ((math.exp(log_top + (d - e) * lm), e) for e in range(1, d + 1))
    groups = ((r, math.exp((d - e) * lm + _log_one_minus_exp(e * lm) - log_total),
               math.exp(half_norm + 0.5 * (d - e) * lm + _log_one_minus_exp(0.5 * e * lm)),
               (d - e) / d) for r, e in _ratio_groups(levels))
    curve = closed_form_curve(log_top + (d - 1) * lm, 1.0, groups, K)
    mapped = tuple([CurvePoint(pt.T, pt.p_succ, haar_average_fidelity(pt.F_recursive, d),
                               haar_average_fidelity(pt.F_coarse, d)) for pt in curve.points])
    return CorrectionResult(d, mu, curve, TradeoffCurve(points=mapped))
