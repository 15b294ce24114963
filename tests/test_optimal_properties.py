"""Property tests of the fixed-p_succ optimum on random profile pairs.

Pairs have 1..16 common sectors, optional sectors that only one profile
carries, and weights drawn partly from a few small integers, so that
exactly tied ratios p_E/q_E are common.  Targets are random fractions of
the common input weight p(common), the boundary probabilities B_j, and
p(common) itself, or the success probability of a random filter on the
whole input support, which passes p(common) when p has sectors of its own.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epops import spectra
from epops.channels import SectorFilter, filter_fidelity, filter_success_probability
from epops.coarse import tradeoff_curve
from epops.errors import DisjointSpectra
from epops.optimal import frontier, optimal_tradeoff_point, ultimate_optimum
from epops.oracle import exhaustive_tradeoff
from epops.spectra import build_profile, common_support, ratio_table
from reference_routes import two_regime

#: Fixed example sequences keep the suite deterministic.
PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Integer weights repeat often, so equal (p, q) pairs tie their ratios exactly.
WEIGHTS = st.one_of(st.integers(1, 4).map(float), st.floats(1e-3, 1.0))


@st.composite
def pairs(draw, max_common=16):
    """(p, q): n common sectors 0..n-1, then up to two sectors of p alone
    and up to two of q alone."""
    n = draw(st.integers(1, max_common))
    p_only = draw(st.integers(0, 2))
    q_only = draw(st.integers(0, 2))
    pw = draw(st.lists(WEIGHTS, min_size=n + p_only, max_size=n + p_only))
    qw = draw(st.lists(WEIGHTS, min_size=n + q_only, max_size=n + q_only))
    p_sectors = list(range(n + p_only))
    q_sectors = list(range(n)) + list(range(n + p_only, n + p_only + q_only))
    p = build_profile(p_sectors, pw)
    q = build_profile(q_sectors, qw)
    return p, q


def p_common(p, q):
    return math.fsum(p.weight(i) for i in common_support(p, q))


def boundary_probabilities(p, q):
    """B_j for every prefix length j of the ratio order, summed directly."""
    common = sorted(common_support(p, q), key=lambda i: p.weight(i) / q.weight(i))
    pw = [p.weight(i) for i in common]
    qw = [q.weight(i) for i in common]
    return [
        math.fsum(pw[:j]) + pw[j] / qw[j] * math.fsum(qw[j:])
        for j in range(len(common))
    ]


@st.composite
def pairs_and_target(draw, max_common=16):
    p, q = draw(pairs(max_common))
    top = p_common(p, q)
    kind = draw(st.sampled_from(["fraction", "boundary", "all"]))
    if kind == "fraction":
        target = draw(st.floats(1e-9, 1.0)) * top
    elif kind == "boundary":
        target = draw(st.sampled_from(boundary_probabilities(p, q)))
    else:
        target = top
    return p, q, min(target, 1.0)


@PROPERTY_SETTINGS
@given(pairs_and_target())
def test_optimum_is_the_two_regime_filter_of_its_prefix(case):
    p, q, target = case
    pt = optimal_tradeoff_point(p, q, target)
    s0, coeffs, om = two_regime(p, q, pt.s0, target)
    filt = SectorFilter(coeffs)
    assert s0 == pt.s0
    assert filt == pt.filter
    assert om * om / target == pt.fidelity
    assert filter_success_probability(p, filt) == pt.p_succ


@PROPERTY_SETTINGS
@given(pairs_and_target())
def test_optimum_reproduces_the_requested_probability(case):
    p, q, target = case
    pt = optimal_tradeoff_point(p, q, target)
    assert abs(pt.p_succ - target) <= 1e-10
    assert filter_fidelity(p, q, pt.filter) == pytest.approx(pt.fidelity, abs=1e-12)


@PROPERTY_SETTINGS
@given(pairs(), st.lists(st.floats(1e-9, 1.0), min_size=2, max_size=6))
def test_optimum_never_gains_fidelity_as_p_succ_grows(pair, fractions):
    p, q = pair
    top = p_common(p, q)
    targets = sorted(min(f * top, 1.0) for f in fractions)
    fids = [optimal_tradeoff_point(p, q, t).fidelity for t in targets]
    assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))


@PROPERTY_SETTINGS
@given(pairs(), st.data())
def test_optimum_is_at_least_any_filter_at_its_probability(pair, data):
    p, q = pair
    common = common_support(p, q)
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(common), max_size=len(common)))
    filt = SectorFilter(dict(zip(common, x)))
    achieved = filter_success_probability(p, filt)
    if achieved <= 0.0:
        return
    best = optimal_tradeoff_point(p, q, achieved)
    assert best.fidelity >= filter_fidelity(p, q, filt) - 1e-12


@PROPERTY_SETTINGS
@given(pairs_and_target(max_common=12))
def test_optimum_equals_the_exhaustive_subset_search(case):
    # The subset search enumerates 2^n prefixes; it caps n at 12.
    p, q, target = case
    pt = optimal_tradeoff_point(p, q, target)
    assert pt.fidelity == pytest.approx(exhaustive_tradeoff(p, q, target), abs=1e-12)


@PROPERTY_SETTINGS
@given(pairs(max_common=12), st.data())
def test_optimum_is_at_least_any_filter_on_the_input_support(pair, data):
    # Transmitting sectors of p outside q adds probability but no overlap.
    p, q = pair
    x = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(p.support), max_size=len(p.support)))
    filt = SectorFilter(dict(zip(p.support, x)))
    achieved = filter_success_probability(p, filt)
    if achieved <= 0.0:
        return
    best = optimal_tradeoff_point(p, q, achieved)
    assert best.fidelity >= filter_fidelity(p, q, filt) - 1e-12
    assert best.fidelity == pytest.approx(exhaustive_tradeoff(p, q, achieved), abs=1e-12)


@st.composite
def pairs_and_any_target(draw):
    """A pair and a target from ``pairs_and_target``, or one above p(common)
    that the sectors only the input carries can still reach."""
    p, q, target = draw(pairs_and_target())
    extra = 1.0 - p_common(p, q)
    if extra > 1e-9 and draw(st.booleans()):
        target = min(p_common(p, q) + draw(st.floats(0.01, 1.0)) * extra, 1.0)
    return p, q, target


@PROPERTY_SETTINGS
@given(pairs_and_any_target())
def test_frontier_fidelity_matches_the_optimum(case):
    p, q, target = case
    pt = optimal_tradeoff_point(p, q, target)
    assert frontier(p, q).fidelity(target) == pytest.approx(pt.fidelity, rel=1e-12, abs=0.0)
    assert frontier(p, q).point(target) == pt


def results(p, q, target):
    """Everything read off the pair's ratio sort, at one target."""
    return (tradeoff_curve(p, q, 64), ratio_table(p, q), ultimate_optimum(p, q),
            optimal_tradeoff_point(p, q, target), frontier(p, q).fidelity(target))


def fresh_results(p, q, target):
    """``results`` computed with the pair slot emptied first."""
    spectra._last = None
    return results(p, q, target)


def copy_of(p):
    return spectra.EnergyProfile(list(p.support), list(p.weights))


@PROPERTY_SETTINGS
@given(pairs_and_target(), pairs_and_target())
def test_results_do_not_depend_on_the_pair_slot(a, b):
    (p, q, s), (p2, q2, s2) = a, b
    want_a, want_b = fresh_results(p, q, s), fresh_results(p2, q2, s2)
    rev = min(p_common(q, p), 1.0) / 2
    want_rev = fresh_results(q, p, rev)
    results(p, q, s)
    assert results(p2, q2, s2) == want_b
    assert results(p, q, s) == want_a
    assert results(q, p, rev) == want_rev
    assert results(copy_of(p), copy_of(q), s) == want_a
    disjoint = build_profile([100], [1.0])
    with pytest.raises(DisjointSpectra):
        results(p, disjoint, s)
    assert results(p, q, s) == want_a
    spectra._last = None


def test_a_curve_and_two_optima_sort_the_pair_once(monkeypatch):
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    p = build_profile(range(5), [1, 3, 2, 5, 4])
    q = build_profile(range(5), [2, 2, 3, 1, 4])
    monkeypatch.setattr(spectra, "_last", None)
    monkeypatch.setattr(spectra, "sorted", counting_sorted, raising=False)
    tradeoff_curve(p, q, 64)
    assert "b_max" not in vars(spectra._last)  # a curve alone never builds it
    optimal_tradeoff_point(p, q, 0.5)
    optimal_tradeoff_point(p, q, 0.8, "ratio-family")
    assert len(sorts) == 1
