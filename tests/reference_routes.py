"""Second routes to engine quantities that only the tests compare against.

``two_regime`` builds the two-regime filter of any fully transmitted set
S0, not only the ratio prefix the optimum picks, from the engine's own
column arithmetic, so the optimum can be compared with it by ``==``.
``filtered_profile`` renormalizes a filtered profile, whose deterministic
fidelity is a second route to ``filter_fidelity``.
"""

from __future__ import annotations

from epops.channels import filter_success_probability
from epops.errors import ZeroSuccessProbability
from epops.optimal import _two_regime_columns
from epops.spectra import build_profile, common_support


def two_regime(p, q, s0, p_succ):
    """(sorted s0, coefficients, Omega) of the filter with x_E = 1 on ``s0``
    and x_E = c q_E/p_E on the rest of the common spectrum at ``p_succ``.

    An ``s0`` outside the common spectrum raises ``ValueError``.
    """
    common = common_support(p, q)
    s0_set = set(s0)
    s0_t = tuple(sorted(s0_set))
    if not s0_set.issubset(common):
        raise ValueError(f"s0 {s0_t} is not a subset of the common spectrum")
    s1 = [i for i in common if i not in s0_set]
    pd, qd = p._by_index, q._by_index
    xs, om = _two_regime_columns(
        [pd[i] for i in s0_t], [qd[i] for i in s0_t],
        s1, [pd[i] for i in s1], [qd[i] for i in s1], p_succ,
    )
    coeffs = dict.fromkeys(s0_t, 1.0)
    coeffs.update(zip(s1, xs))
    return s0_t, coeffs, om


def filtered_profile(p, f):
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
