"""Second routes to engine quantities that only the tests compare against.

``two_regime`` builds the two-regime filter of any fully transmitted set
S0, not only the ratio prefix the optimum picks, from the engine's own
column arithmetic, so the optimum can be compared with it by ``==``.
``filtered_profile`` renormalizes a filtered profile, whose deterministic
fidelity is a second route to ``filter_fidelity``.  ``assemble`` is the
generic route to a profile from ``(index, weight)`` pairs, one sector at
a time, keeping every positive weight: the stock builders' column route
must give the same profile.

``prefix`` reads U_k off a ratio table.  The oracle's filter arrays,
built once per instance for ``verify``, are read here row by row:
``round_filter_weights`` and ``coarse_filter`` give each round's filter
weights and each merged filter, and ``merge_residuals`` names the gaps
``verify`` checks.

The estimation gains have two: ``round_output`` and ``merged_amplitudes``
build each round's output state and each merged filter's output
amplitudes sector by sector, for ``holevo_gain``, and ``decimal_gains``
recomputes the gain columns and the merged mass from the run's doubles in
40-digit decimal arithmetic.  ``decimal_merged_filters`` and
``decimal_frontier`` do the same for the merged filters' success
probabilities and fidelities and for the optimal fidelity at a given
success probability, and ``decimal_amplification`` and
``decimal_correction`` for the closed-form app curves, from the apps'
parameters.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from decimal import Decimal, localcontext
from itertools import accumulate

from epops.channels import SectorFilter, filter_success_probability
from epops.errors import (
    AllZeroWeights,
    DuplicateLabel,
    NegativeWeight,
    NonFiniteWeight,
    ZeroSuccessProbability,
)
from epops.optimal import _two_regime_columns
from epops.oracle import MERGE_TOLERANCES, _filter_arrays, _merge_gaps
from epops.spectra import (
    EnergyProfile,
    _integer,
    _json_float,
    _weight_sum,
    build_profile,
    common_support,
)


def assemble(pairs):
    """Normalize, drop zero sectors, sort by index: the profile of
    ``(index, weight)`` pairs, each checked as it is read."""
    seen = {}
    for index, weight in pairs:
        if type(index) is not int:
            index = _integer(index, "sector index ")
        if index in seen:
            raise DuplicateLabel(f"sector index {index} appears twice")
        try:
            weight = float(weight)
        except OverflowError:
            weight = _json_float(weight)
        if not math.isfinite(weight):
            raise NonFiniteWeight(f"weight {weight!r} at sector {index} is not finite")
        if weight < -1e-12:
            raise NegativeWeight(f"weight {weight!r} at sector {index} is negative")
        seen[index] = max(weight, 0.0)
    kept = {i: w for i, w in seen.items() if w > 0.0}
    total = _weight_sum(kept.values())
    if total <= 0.0:
        raise AllZeroWeights("every weight is zero (or below the zero threshold)")
    support = sorted(kept)
    weights = [kept[i] / total for i in support]
    if 0.0 in weights:
        # A subnormal weight can round to 0.0 when normalized; drop it too.
        support = [i for i, w in zip(support, weights) if w > 0.0]
        weights = [w for w in weights if w > 0.0]
    return EnergyProfile(support, weights)


def prefix(table, k):
    """U_k of a ratio table in ratio order (empty for k = 0)."""
    return table.order[: table.ends[k - 1]] if k else ()


def round_filter_weights(run):
    """The filter weight m_E of each round of ``run`` on each input sector.

    Round k weighs the sectors eroded by earlier rounds by zero and the
    rest by (r_k - r_{k-1}) q_E / p_E; the engine never builds these.
    """
    return [dict(zip(run.input.support, row)) for row in _filter_arrays(run)[0].tolist()]


def coarse_filter(run, T):
    """The single filter equivalent to keeping rounds 1..T.

    Transmits U_T fully and every other input sector at r_T q_E/p_E.
    """
    run.check_round(T)
    return SectorFilter(dict(zip(run.input.support, _filter_arrays(run)[1][T - 1].tolist())))


def merge_residuals(run):
    """Worst gap over T between each merged filter and its second routes,
    by name (``oracle._merge_gaps``); ``MERGE_TOLERANCES`` holds the allowed
    gaps."""
    return dict(zip(MERGE_TOLERANCES, _merge_gaps(run, *_filter_arrays(run))))


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
    triples = []
    for i, w in zip(p.support, p.weights):
        x = f.coefficient(i)
        if x > 0.0:
            # The index stands in for the energy value build_profile checks.
            triples.append((i, i, w * x / p_succ))
    return build_profile(triples)


def round_output(run, k):
    """Round k's output: the target renormalized on the common spectrum
    outside U_(k-1)."""
    table, q = run.table, run.target
    active = set(table.order) - set(prefix(table, k - 1))
    fidelity = run.fidelities[k - 1]
    return assemble([(i, w / fidelity) for i, w in zip(q.support, q.weights) if i in active])


def merged_amplitudes(run, T):
    """Output amplitudes of the merged filter of rounds 1..T on the dense
    run of input sectors: sqrt(p_E / p_succ) on U_T and sqrt(r_T / p_succ)
    sqrt(q_E) on the rest.  Read from that definition and not from
    ``coarse_filter``, whose coefficients r_T q_E / p_E are subnormal
    in the first rounds of ``qubits`` at N near 1000 and keep few digits."""
    p, q, table = run.input, run.target, run.table
    p_succ, r = run.p_succ[T - 1], table.ratios[T - 1]
    eroded = set(prefix(table, T))
    lo = p.support[0]
    amplitudes = [0.0] * (p.support[-1] - lo + 1)
    for i, w in zip(p.support, p.weights):
        amplitudes[i - lo] = (
            math.sqrt(w / p_succ) if i in eroded
            else math.sqrt(r / p_succ) * math.sqrt(q.weight(i))
        )
    return amplitudes


def decimal_gains(run, digits=40):
    """(G_recursive, G_coarse, merged mass) for T = 1..n of an estimation run,
    as ``Decimal``s computed at ``digits`` significant digits from the run's
    doubles: the profile weights, the group ratios r_T, the round
    probabilities and p_succ.  Round k's gain is that of the target
    renormalized outside U_(k-1); the merged filter's amplitudes are
    sqrt(p_E / p_succ) on U_T and sqrt(r_T q_E / p_succ) on the rest."""
    table = run.table
    common = sorted(table.order)
    zero = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = digits
        q = {i: Decimal(run.target.weight(i)) for i in common}
        root_p = {i: Decimal(run.input.weight(i)).sqrt() for i in common}
        root_q = {i: w.sqrt() for i, w in q.items()}
        half = Decimal("0.5")
        weighted, rows = zero, []
        for T in range(1, len(run.fidelities) + 1):
            before, eroded = set(prefix(table, T - 1)), set(prefix(table, T))
            active = [i for i in common if i not in before]
            pairs = sum([root_q[i] * root_q[i + 1] for i in active
                         if i + 1 in q and i + 1 not in before], zero)
            weighted += Decimal(run.probabilities[T - 1]) * (
                half + pairs / (2 * sum([q[i] for i in active], zero)))
            p_succ = Decimal(run.p_succ[T - 1])
            scale, root_r = 1 / p_succ.sqrt(), Decimal(table.ratios[T - 1]).sqrt()
            m = {i: (root_p[i] if i in eroded else root_r * root_q[i]) * scale
                 for i in common}
            merged = sum([m[i] * m[i + 1] for i in common if i + 1 in m], zero)
            rows.append((weighted / p_succ, half + merged / 2,
                         sum([a * a for a in m.values()], zero)))
    return rows


def _decimal_prefix_sums(pw, qw):
    """For j = 0..n: the sums of sqrt(p q) and of p over the first j sectors,
    and of q over the rest."""
    zero = Decimal(0)
    aligned = list(accumulate([(a * b).sqrt() for a, b in zip(pw, qw)], initial=zero))
    p_before = list(accumulate(pw, initial=zero))
    q_from = list(accumulate(reversed(qw), initial=zero))[::-1]
    return aligned, p_before, q_from


def decimal_merged_filters(run, digits=40):
    """The success probability and fidelity of the merged filter of rounds
    1..T, for T = 1..n, as ``Decimal`` pairs at ``digits`` significant digits
    from the profile weights and the group ratios r_T: x = 1 on U_T and
    x = r_T q_E / p_E on the rest of the common spectrum, so p_succ =
    P + r_T Q and F = (A + sqrt(r_T) Q)^2 / p_succ with A and P the sums of
    sqrt(p q) and p over U_T and Q that of q outside."""
    table = run.table
    with localcontext() as ctx:
        ctx.prec = digits
        pw = [Decimal(run.input.weight(i)) for i in table.order]
        qw = [Decimal(run.target.weight(i)) for i in table.order]
        aligned, p_before, q_from = _decimal_prefix_sums(pw, qw)
        rows = []
        for end, r in zip(table.ends, table.ratios[: len(run.fidelities)]):
            r = Decimal(r)
            omega = aligned[end] + r.sqrt() * q_from[end]
            p_succ = p_before[end] + r * q_from[end]
            rows.append((p_succ, omega * omega / p_succ))
    return rows


def decimal_frontier(p, q, targets, digits=40):
    """The optimal fidelity at each success probability in ``targets``, as
    ``Decimal``s at ``digits`` significant digits: the common spectrum sorted
    by its decimal ratios p/q, and (A_k + sqrt((s - P_k) Q_k))^2 / s on the
    first prefix k whose bound P_k + (p/q)_(k+1) Q_k reaches s, or on the
    whole spectrum where none does (the KKT conditions of the optimum)."""
    with localcontext() as ctx:
        ctx.prec = digits
        rows = sorted((Decimal(p.weight(i)) / Decimal(q.weight(i)), Decimal(p.weight(i)),
                       Decimal(q.weight(i))) for i in common_support(p, q))
        ratios, pw, qw = zip(*rows)
        aligned, p_before, q_from = _decimal_prefix_sums(pw, qw)
        bounds = [a + r * b for a, r, b in zip(p_before, ratios, q_from)]
        values = []
        for s in map(Decimal, targets):
            k = bisect_left(bounds, s)
            omega = aligned[k] + (max(s - p_before[k], 0) * q_from[k]).sqrt()
            values.append(omega * omega / s)
    return values


def decimal_singleton_curve(pw, qw, q_common):
    """(p_succ, F_recursive, F_coarse) for T = 1..len(pw) as ``Decimal``s, for
    a pair whose first sectors in ratio order have the ``Decimal`` weights
    ``pw`` and ``qw``, each its own ratio group, and whose common spectrum
    has target weight ``q_common``: p_succ = P + r_T Q, F_coarse =
    (A + sqrt(r_T) Q)^2 / p_succ with A, P the sums of sqrt(p q) and p over
    U_T and Q that of q outside, and F_recursive the round fidelities
    Q_(k-1) averaged with weights (r_k - r_(k-1)) Q_(k-1), whose sum is
    p_succ.  Call it inside the context that made the weights."""
    aligned, p_before, r_prev, q_prev, weighted, rows = 0, 0, 0, q_common, 0, []
    for p, q in zip(pw, qw):
        r = p / q
        aligned += (p * q).sqrt()
        p_before += p
        q_rest = q_prev - q
        weighted += (r - r_prev) * q_prev * q_prev
        s = p_before + r * q_rest
        rows.append((s, weighted / s, (aligned + r.sqrt() * q_rest) ** 2 / s))
        r_prev, q_prev = r, q_rest
    return rows


def decimal_amplification(r1, r2, cutoff, digits=40):
    """The ``amplify`` curve at ``digits`` significant digits from the
    amplitudes' doubles: Poisson weights r^(2n)/(n! Z(r)) on n = 0..cutoff,
    from ``Decimal.ln`` and ``Decimal.exp``, in the ratio order n = cutoff..0."""
    with localcontext() as ctx:
        ctx.prec = digits
        log_fact = list(accumulate([Decimal(n).ln() for n in range(1, cutoff + 1)],
                                   initial=Decimal(0)))
        columns = []
        for r in (r1, r2):
            log_r = Decimal(r).ln()
            terms = [(2 * n * log_r - lf).exp() for n, lf in enumerate(log_fact)]
            total = sum(terms, Decimal(0))
            columns.append([t / total for t in reversed(terms)])
        return decimal_singleton_curve(*columns, Decimal(1))


def decimal_correction(d, mu, rows, digits=40):
    """The first ``rows`` rows of the ``correct`` sector curve at ``digits``
    significant digits from mu's double: level weights
    mu^(n-1) (1 - mu)/(1 - mu^d), from ``Decimal.ln`` and ``Decimal.exp``,
    against 1/d, in the ratio order n = d, d-1, ...."""
    with localcontext() as ctx:
        ctx.prec = digits
        log_mu = Decimal(mu).ln()
        norm = (1 - Decimal(mu)) / (1 - (d * log_mu).exp())
        pw = [norm * ((n - 1) * log_mu).exp() for n in range(d, d - rows, -1)]
        return decimal_singleton_curve(pw, [1 / Decimal(d)] * rows, Decimal(1))
