"""Probabilistic correction of an amplitude-damped qudit level profile.

A damping filter with strength mu leaves a uniformly weighted qudit with
geometric level weights mu^(n-1)(1-mu)/(1-mu^d); correction steers them
back to uniform.  Per-round fidelities and probabilities have simple
closed forms, and the sector fidelity of any such channel converts to a
Haar-average fidelity over input states by an affine map, which therefore
commutes with mixing rounds together.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..coarse import CurvePoint, TradeoffCurve, curve_from_run
from ..errors import ConsistencyError, TooLarge
from ..recursive import run_protocol
from ..spectra import EnergyProfile, _assemble

_CLOSED_TOL = 1e-10
#: Largest level count d: a call at it runs for about 10 s.
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
    norm = (1.0 - mu) / (1.0 - mu**d)
    return _assemble(
        ((n, float(n), norm * mu ** (n - 1)) for n in range(1, d + 1)), 0.0
    )


def uniform_levels(d: int) -> EnergyProfile:
    """Uniform weights on levels 1..d."""
    return _assemble(((n, float(n), 1.0 / d) for n in range(1, d + 1)), 0.0)


def round_probability(d: int, mu: float, k: int) -> float:
    """Closed-form probability of round k."""
    if k == 1:
        return mu ** (d - 1) * (1.0 - mu) * d / (1.0 - mu**d)
    return mu ** (d - k) * (1.0 - mu) ** 2 * (d + 1 - k) / (1.0 - mu**d)


def correction_tradeoff(d: int, mu: float, K: int) -> CorrectionResult:
    """Fidelity-probability curves for correcting the damped qudit.

    The sector curve is the raw engine output; the average curve applies
    the Haar map to both fidelity columns.  Every round is checked
    against the closed forms p^(k) and F0^(k) = (d+1-k)/d to 1e-10; a
    miss raises ConsistencyError.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if d > _LEVEL_CAP:
        raise TooLarge(f"level count d={d} exceeds the cap {_LEVEL_CAP}")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    p = damped_profile(d, mu)
    q = uniform_levels(d)
    run = run_protocol(p, q, K)
    for r in run.rounds:
        cp = round_probability(d, mu, r.k)
        if abs(r.probability - cp) > _CLOSED_TOL * max(cp, 1.0):
            raise ConsistencyError(
                f"round {r.k} probability, engine vs closed form",
                r.probability, cp, _CLOSED_TOL * max(cp, 1.0),
            )
        cf = (d + 1 - r.k) / d
        if abs(r.fidelity - cf) > _CLOSED_TOL:
            raise ConsistencyError(
                f"round {r.k} fidelity, engine vs closed form",
                r.fidelity, cf, _CLOSED_TOL,
            )
    curve = curve_from_run(run)
    mapped = tuple([
        CurvePoint(
            T=pt.T,
            p_succ=pt.p_succ,
            F_recursive=haar_average_fidelity(pt.F_recursive, d),
            F_coarse=haar_average_fidelity(pt.F_coarse, d),
        )
        for pt in curve.points
    ])
    return CorrectionResult(
        d=d,
        mu=mu,
        sector_curve=curve,
        average_curve=TradeoffCurve(points=mapped),
    )
