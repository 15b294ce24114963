"""The standard-library engine against the numpy formulas it replaced.

The engine computes every column as a running sum over the ratio order
with ``itertools.accumulate``.  ``np.cumsum`` is also a sequential sum, so
the numpy formulas below (the ratio table, the protocol columns, the
merged fidelities and the boundary scan of the fixed-probability optimum)
must give the same bits: they are compared with ``==``.  The profile
builders differ only in ``math.exp``/``math.sin`` against their numpy
counterparts and in one normalization pass, so they are compared within
a few units in the last place.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from epops.apps.amplification import _log_normalizer
from epops.apps.correction import damped_profile, uniform_levels
from epops.apps.estimation import estimation_profiles
from epops.coarse import _points, tradeoff_curve
from epops.errors import InfeasibleProbability, NoFeasiblePartition
from epops.optimal import TradeoffPoint, optimal_tradeoff_point
from epops.channels import SectorFilter, filter_success_probability
from epops.recursive import run_protocol
from epops.spectra import (
    RATIO_TOLERANCE,
    EnergyProfile,
    _log_factorials,
    binomial_profile,
    build_profile,
    common_support,
    poisson_profile,
    ratio_table,
    sine_profile,
)
from reference_routes import assemble, two_regime
from test_coarse import near_tie_pairs

#: Builder weights may differ from the numpy route by this many ulps.
_BUILDER_ULPS = 4


# --- The numpy route ---------------------------------------------------------


def numpy_ratio_table(p, q):
    common = common_support(p, q)
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
    cuts = [0] + ends
    return {
        "order": tuple(common[j] for j in perm.tolist()),
        "ends": tuple(ends),
        "ratios": tuple(math.fsum(raw[a:b]) / (b - a) for a, b in zip(starts, ends)),
        "p_eroded": np.cumsum(np.append(0.0, pw))[cuts],
        "aligned": np.cumsum(np.append(0.0, np.sqrt(pw * qw)))[cuts],
        "q_remaining": np.cumsum(np.append(qw, 0.0)[::-1])[::-1][cuts],
    }


def numpy_protocol(table, K):
    n = min(K, len(table["ratios"]))
    fidelities = table["q_remaining"][:n]
    probabilities = np.diff(table["ratios"][:n], prepend=0.0) * fidelities
    p_succ = np.cumsum(probabilities)
    return {
        "fidelities": fidelities,
        "probabilities": probabilities,
        "p_succ": p_succ,
        "f_recursive": np.cumsum(probabilities * fidelities) / p_succ,
    }


def numpy_merged_fidelities(table, n):
    """The frontier's segment expression at each group end T = 1..n, at the
    merged filter's own success probability s = p(U_T) + r_T q_rest."""
    eroded, rest = table["p_eroded"][1 : n + 1], table["q_remaining"][1 : n + 1]
    s = eroded + np.array(table["ratios"][:n]) * rest
    omega = table["aligned"][1 : n + 1] + np.sqrt(np.maximum(s - eroded, 0.0) * rest)
    return omega * omega / s


def numpy_boundary_probabilities(p, q):
    order = numpy_ratio_table(p, q)["order"]
    pw = np.array([p.weight(i) for i in order])
    qw = np.array([q.weight(i) for i in order])
    p_before = np.cumsum(np.append(0.0, pw[:-1]))
    q_from = np.cumsum(qw[::-1])[::-1]
    return order, pw, p_before + pw / qw * q_from


def numpy_optimal_point(p, q, p_succ):
    order, pw, boundaries = numpy_boundary_probabilities(p, q)
    reached = np.flatnonzero(boundaries >= p_succ)
    excess = p_succ - math.fsum(pw)
    extra = [i for i in p.support if i not in order]
    if reached.size:
        k = int(reached[0])
    elif abs(excess) <= 1e-10:
        k = len(order)
    elif excess > 0.0 and extra:
        # The whole common spectrum, and the input-only sectors share the rest.
        x = excess / math.fsum(p.weight(i) for i in extra)
        if x > 1.0 + 1e-12:
            raise NoFeasiblePartition(p_succ)
        filt = SectorFilter({**dict.fromkeys(order, 1.0), **dict.fromkeys(extra, min(x, 1.0))})
        om = math.fsum(np.sqrt(pw * np.array([q.weight(i) for i in order])).tolist())
        achieved = filter_success_probability(p, filt)
        return TradeoffPoint(achieved, om * om / p_succ, filt, tuple(sorted(order)))
    else:
        raise NoFeasiblePartition(p_succ)
    try:
        s0, coeffs, om = two_regime(p, q, order[:k], p_succ)
    except InfeasibleProbability:
        s0, coeffs, om = two_regime(p, q, order[: k + 1], p_succ)
    filt = SectorFilter(coeffs)
    achieved = filter_success_probability(p, filt)
    return TradeoffPoint(p_succ=achieved, fidelity=om * om / p_succ, filter=filt, s0=s0)


def numpy_binomial(N):
    ms = np.arange(-N, N + 1, 2)
    ks = (N - ms) // 2
    lf = np.array(_log_factorials(N))
    weights = np.exp(lf[N] - lf[ks] - lf[N - ks] - N * math.log(2.0))
    weights /= weights.sum()
    return assemble((int(m), float(w)) for m, w in zip(ms, weights))


def numpy_poisson(r, cutoff):
    ns = np.arange(cutoff + 1)
    logw = -r * r + 2.0 * ns * math.log(r) - np.array(_log_factorials(cutoff))
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()
    return assemble((int(n), float(w)) for n, w in zip(ns, weights))


def numpy_sine(N):
    ns = np.arange(N + 1)
    amp = np.sin(ns * math.pi / (N + 1))
    weights = 2.0 / (N + 1) * amp * amp
    weights /= weights.sum()
    return assemble((int(n), float(w)) for n, w in zip(ns, weights) if w > 0.0)


# --- Instances ---------------------------------------------------------------


def random_pair(rng, n):
    """n common sectors plus up to three p-only and three q-only sectors.

    A third of the common sectors repeat an earlier sector's weight pair
    exactly, and another share have q proportional to p, so ties between
    ratios, exact and within the grouping tolerance, both occur.
    """
    p_only, q_only = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    pw = rng.dirichlet(np.ones(n + p_only)).tolist()
    qw = rng.dirichlet(np.ones(n + q_only)).tolist()
    for j in range(1, n):
        roll = rng.uniform()
        if roll < 1 / 3:
            src = int(rng.integers(0, j))
            pw[j], qw[j] = pw[src], qw[src]
        elif roll < 1 / 2:
            qw[j] = 1.7 * pw[j]
    p = build_profile([(i, float(i), w) for i, w in enumerate(pw)])
    q_indices = list(range(n)) + list(range(n + p_only, n + p_only + q_only))
    q = build_profile([(i, float(i), w) for i, w in zip(q_indices, qw)])
    return p, q


def readme_pairs():
    rng = np.random.default_rng(2015)
    texts = []
    for n in (40, 42):
        weights = rng.dirichlet(np.ones(n))
        texts.append(json.dumps({"energies": [
            {"index": i, "value": float(i), "weight": float(w)}
            for i, w in enumerate(weights)
        ]}))
    return {
        "tradeoff": tuple(EnergyProfile.from_json(t) for t in texts),
        "estimate-maxcoh": estimation_profiles("maxcoh", 61),
        "estimate-qubits": estimation_profiles("qubits", 8),
        "clone": (binomial_profile(80), binomial_profile(400)),
        "amplify": (poisson_profile(1.0, 80), poisson_profile(1.5, 80)),
        "correct": (damped_profile(100, 0.9), uniform_levels(100)),
    }


def random_pairs():
    rng = np.random.default_rng(20151)
    return [random_pair(rng, n) for n in range(1, 65) for _ in range(3)]


def all_pairs():
    return random_pairs() + list(readme_pairs().values())


# --- Comparisons -------------------------------------------------------------


def test_ratio_table_matches_numpy_route_bit_for_bit():
    for p, q in all_pairs():
        table, ref = ratio_table(p, q), numpy_ratio_table(p, q)
        assert table.order == ref["order"]
        assert table.ends == ref["ends"]
        assert table.ratios == ref["ratios"]
        for key in ("p_eroded", "aligned", "q_remaining"):
            assert getattr(table, key) == tuple(ref[key].tolist()), key


def test_random_pairs_hold_ties_and_partial_overlaps():
    pairs = random_pairs()
    grouped = sum(ratio_table(p, q).length < len(common_support(p, q)) for p, q in pairs)
    partial = sum(p.support != q.support for p, q in pairs)
    assert grouped > len(pairs) // 2
    assert partial > len(pairs) // 2


def test_protocol_columns_match_numpy_route_bit_for_bit():
    for p, q in all_pairs():
        ref_table = numpy_ratio_table(p, q)
        for K in (1, 3, 10_000):
            run = run_protocol(p, q, K)
            ref = numpy_protocol(ref_table, K)
            for key in ("fidelities", "probabilities", "p_succ", "f_recursive"):
                assert getattr(run, key) == tuple(ref[key].tolist()), key


def test_merged_fidelities_match_numpy_route_bit_for_bit():
    for p, q in all_pairs():
        table, ref = ratio_table(p, q), numpy_ratio_table(p, q)
        for n in {1, table.length}:
            f_coarse = [pt.F_coarse for pt in tradeoff_curve(p, q, n).points]
            assert f_coarse == numpy_merged_fidelities(ref, n).tolist()


def test_curve_equals_the_curve_of_its_protocol_run():
    # The curve cut straight off the sorted columns, and the row builder
    # fed the group rows of a RatioTable with a ProtocolRun's round columns.
    for p, q in [*all_pairs(), *near_tie_pairs()]:
        L = ratio_table(p, q).length
        for K in {1, max(L - 1, 1), L, L + 1, 10**6}:
            run = run_protocol(p, q, K)
            table = run.table
            rows = zip(table.ratios, table.p_eroded[1:], table.aligned[1:],
                       table.q_remaining[1:])
            from_run = _points(zip(rows, run.probabilities, run.p_succ, run.f_recursive))
            assert len(from_run.points) == len(run.fidelities)
            assert tradeoff_curve(p, q, K) == from_run, K


def test_optimal_point_matches_numpy_scan_bit_for_bit():
    rng = np.random.default_rng(20152)
    # One random pair per size n = 1..64, then the README pairs.
    for p, q in random_pairs()[::3] + list(readme_pairs().values()):
        _, pw, boundaries = numpy_boundary_probabilities(p, q)
        # Every boundary B_j is a degenerate point; twelve spread over the
        # order cover both ends and keep the large README pairs quick.
        picks = np.unique(np.linspace(0, len(boundaries) - 1, 12).round().astype(int))
        targets = [b for b in boundaries[picks].tolist() if 0.0 < b <= 1.0]
        targets += [math.fsum(pw.tolist()), 1.0]
        targets += rng.uniform(0.0, 1.0, size=3).tolist()
        for p_succ in targets:
            try:
                expected = numpy_optimal_point(p, q, p_succ)
            except NoFeasiblePartition:
                with pytest.raises(NoFeasiblePartition):
                    optimal_tradeoff_point(p, q, p_succ)
                continue
            assert optimal_tradeoff_point(p, q, p_succ) == expected


def assert_within_ulps(profile, reference):
    assert profile.support == reference.support
    for i, w, w_ref in zip(profile.support, profile.weights, reference.weights):
        assert abs(w - w_ref) <= _BUILDER_ULPS * math.ulp(w_ref), i


@pytest.mark.parametrize("N", [1, 2, 3, 8, 61, 80, 400, 1000, 2000])
def test_binomial_profile_matches_numpy_within_ulps(N):
    assert_within_ulps(binomial_profile(N), numpy_binomial(N))


@pytest.mark.parametrize("r, cutoff", [
    (0.3, 10), (1.0, 80), (1.5, 80), (1.0, 160), (5.0, 200), (20.0, 1280),
])
def test_poisson_profile_matches_numpy_within_ulps(r, cutoff):
    assert_within_ulps(poisson_profile(r, cutoff), numpy_poisson(r, cutoff))


@pytest.mark.parametrize("N", [1, 2, 7, 8, 60, 301, 1000])
def test_sine_profile_matches_numpy_within_ulps(N):
    assert_within_ulps(sine_profile(N), numpy_sine(N))


@pytest.mark.parametrize("r, cutoff", [(0.5, 10), (1.0, 80), (1.5, 80), (1.0, 1280)])
def test_log_normalizer_matches_logaddexp(r, cutoff):
    terms = 2.0 * np.arange(cutoff + 1) * math.log(r) - np.array(_log_factorials(cutoff))
    assert _log_normalizer(r, _log_factorials(cutoff)) == pytest.approx(
        float(np.logaddexp.reduce(terms)), rel=1e-14
    )
