"""Ultimate optimum and the constrained fidelity-probability tradeoff."""

import math
import time

import numpy as np
import pytest

from epops.channels import (
    SectorFilter,
    deterministic_fidelity,
    filter_fidelity,
    filter_success_probability,
)
from epops.errors import (
    DisjointSpectra,
    InfeasibleProbability,
    InvalidPartition,
    NoFeasiblePartition,
)
from epops.optimal import (
    lagrange_filter,
    omega,
    optimal_tradeoff_point,
    ultimate_optimum,
)
from epops.apps.correction import damped_profile, uniform_levels
from epops.coarse import tradeoff_curve
from epops.oracle import exhaustive_tradeoff
from epops.spectra import build_profile, common_support


def two_sector():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    return p, q


def random_pair(rng, n, gap=False):
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    extra = [(n, float(n), float(rng.uniform(0.1, 0.5)))] if gap else []
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)] + extra)
    return p, q


def test_ultimate_optimum_two_sector():
    p, q = two_sector()
    f_max, p_max, filt = ultimate_optimum(p, q)
    assert f_max == pytest.approx(1.0)
    assert p_max == pytest.approx(0.75)
    assert filt.coefficient(0) == pytest.approx(0.5)
    assert filt.coefficient(1) == pytest.approx(1.0)


def test_ultimate_optimum_partial_overlap():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(1, 1.0, 0.5), (2, 2.0, 0.5)])
    f_max, p_max, filt = ultimate_optimum(p, q)
    assert f_max == pytest.approx(0.5)
    assert p_max == pytest.approx(0.5)
    assert filt.coefficient(1) == pytest.approx(1.0)


def test_ultimate_optimum_disjoint():
    p = build_profile([(0, 0.0, 1.0)])
    q = build_profile([(1, 1.0, 1.0)])
    with pytest.raises(DisjointSpectra):
        ultimate_optimum(p, q)


def test_ultimate_filter_attains_the_optimum():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p, q = random_pair(rng, int(rng.integers(2, 7)), gap=bool(rng.integers(2)))
        f_max, p_max, filt = ultimate_optimum(p, q)
        assert filter_success_probability(p, filt) == pytest.approx(p_max, abs=1e-12)
        assert filter_fidelity(p, q, filt) == pytest.approx(f_max, abs=1e-12)


def test_lagrange_filter_structure():
    p, q = two_sector()
    f = lagrange_filter(p, q, (1,), 0.9)
    assert f.coefficient(1) == 1.0
    assert f.coefficient(0) == pytest.approx(0.8)
    assert filter_success_probability(p, f) == pytest.approx(0.9, abs=1e-12)


def test_lagrange_filter_rejects_bad_partition():
    p, q = two_sector()
    with pytest.raises(InvalidPartition):
        lagrange_filter(p, q, (5,), 0.9)
    with pytest.raises(InfeasibleProbability):
        lagrange_filter(p, q, (0, 1), 0.9)


def test_omega_squared_over_p_is_the_fidelity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        common = common_support(p, q)
        k = int(rng.integers(0, len(common)))
        s0 = tuple(sorted(rng.choice(common, size=k, replace=False).tolist()))
        p_s0 = math.fsum(p.weight(i) for i in s0)
        p_succ = float(rng.uniform(p_s0 + 1e-6, 1.0)) if p_s0 < 1 - 1e-5 else 1.0
        try:
            om = omega(p, q, s0, p_succ)
            f = lagrange_filter(p, q, s0, p_succ)
        except InfeasibleProbability:
            continue
        assert om * om / p_succ == pytest.approx(
            filter_fidelity(p, q, f), abs=1e-10
        )


def test_tradeoff_point_two_sector():
    p, q = two_sector()
    pt = optimal_tradeoff_point(p, q, 0.9)
    assert pt.s0 == (1,)
    assert pt.p_succ == pytest.approx(0.9, abs=1e-12)
    assert pt.fidelity == pytest.approx(0.9870040978027227, abs=1e-12)


def test_tradeoff_point_endpoints():
    p, q = two_sector()
    f_max, p_max, _ = ultimate_optimum(p, q)
    at_pmax = optimal_tradeoff_point(p, q, p_max)
    assert at_pmax.fidelity == pytest.approx(f_max, abs=1e-12)
    at_one = optimal_tradeoff_point(p, q, 1.0)
    assert at_one.fidelity == pytest.approx(0.9714045207910316, abs=1e-12)
    # Sector 0 sits exactly on the x = 1 boundary, so the shortest prefix
    # (1,) of the ratio order ties with (1, 0).
    assert at_one.filter.coefficient(0) == pytest.approx(1.0)
    assert at_one.filter.coefficient(1) == pytest.approx(1.0)


def test_tradeoff_point_monotone_in_probability():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        _, p_max, _ = ultimate_optimum(p, q)
        targets = np.linspace(p_max, 1.0, 7)
        fids = [optimal_tradeoff_point(p, q, float(t)).fidelity for t in targets]
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))


def test_tradeoff_point_beats_random_filters():
    rng = np.random.default_rng(41)
    for _ in range(20):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        x = rng.uniform(0.1, 1.0, size=len(p.support))
        f = SectorFilter({i: float(v) for i, v in zip(p.support, x)})
        p_succ = filter_success_probability(p, f)
        achieved = filter_fidelity(p, q, f)
        best = optimal_tradeoff_point(p, q, p_succ)
        assert best.fidelity >= achieved - 1e-10


def boundary_probabilities(p, q):
    """B_j for every prefix length j of the ratio order, summed directly."""
    common = sorted(common_support(p, q), key=lambda i: p.weight(i) / q.weight(i))
    pw = [p.weight(i) for i in common]
    qw = [q.weight(i) for i in common]
    return [
        math.fsum(pw[:j]) + pw[j] / qw[j] * math.fsum(qw[j:])
        for j in range(len(common))
    ]


def test_optimum_matches_exhaustive_subset_search():
    rng = np.random.default_rng(43)
    points = 0
    for _ in range(120):
        # n common sectors; sector n may belong to p only, n + 1 to q only.
        n = int(rng.integers(1, 13))
        p_sectors = list(range(n)) + [n] * int(rng.integers(2))
        q_sectors = list(range(n)) + [n + 1] * int(rng.integers(2))
        pw = rng.dirichlet(np.ones(len(p_sectors)))
        qw = rng.dirichlet(np.ones(len(q_sectors)))
        p = build_profile([(i, float(i), float(w)) for i, w in zip(p_sectors, pw)])
        q = build_profile([(i, float(i), float(w)) for i, w in zip(q_sectors, qw)])
        p_common = math.fsum(p.weight(i) for i in common_support(p, q))
        targets = boundary_probabilities(p, q) + [p_common, 1.0]
        targets += rng.uniform(0.0, p_common, size=3).tolist()
        for t in targets:
            if not 0.0 < t <= p_common + 1e-10:
                with pytest.raises(NoFeasiblePartition):
                    optimal_tradeoff_point(p, q, t)
                continue
            pt = optimal_tradeoff_point(p, q, t)
            best = exhaustive_tradeoff(p, q, t)
            assert pt.fidelity == pytest.approx(best, abs=1e-12)
            assert pt.p_succ == pytest.approx(t, abs=1e-10)
            assert filter_fidelity(p, q, pt.filter) == pytest.approx(best, abs=1e-12)
            points += 1
    assert points > 1000


def test_near_tied_ratios_regression():
    # Ratios 1e-9 apart share one ratio group; the scan still sees both.
    p = build_profile([(0, 0.0, 0.2), (1, 1.0, 0.2 * (1 + 4e-10)), (2, 2.0, 0.6)])
    q = build_profile([(0, 0.0, 0.3), (1, 1.0, 0.3), (2, 2.0, 0.4)])
    pt = optimal_tradeoff_point(p, q, 0.66666666674)
    assert pt.fidelity == pytest.approx(
        exhaustive_tradeoff(p, q, 0.66666666674), abs=1e-12
    )
    assert pt.p_succ == pytest.approx(0.66666666674, abs=1e-10)


def test_full_transmission_with_a_small_last_sector():
    # At p_succ = 1 the last sector of the ratio order sits at x = 1, and
    # with p = 1e-9 its computed coefficient lands above 1 + 1e-12.
    p = build_profile([(0, 0.0, 0.6), (1, 1.0, 0.4 - 1e-9), (2, 2.0, 1e-9)])
    q = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5 - 1e-11), (2, 2.0, 1e-11)])
    pt = optimal_tradeoff_point(p, q, 1.0)
    assert pt.s0 == (0, 1, 2)
    assert pt.fidelity == pytest.approx(exhaustive_tradeoff(p, q, 1.0), abs=1e-12)
    assert pt.fidelity == pytest.approx(deterministic_fidelity(p, q), abs=1e-12)


def test_boundary_probability_takes_the_shortest_prefix():
    # At p_succ = B_j the sector after the prefix sits at x = 1 exactly, so
    # the prefixes of length j and j + 1 give the same filter.
    p = build_profile([(0, 0.0, 0.1), (1, 1.0, 0.3), (2, 2.0, 0.6)])
    q = build_profile([(0, 0.0, 0.4), (1, 1.0, 0.4), (2, 2.0, 0.2)])
    order = (0, 1, 2)  # ratios 0.25, 0.75, 3
    for j, b in enumerate(boundary_probabilities(p, q)):
        pt = optimal_tradeoff_point(p, q, b)
        assert pt.s0 == order[:j]
        assert pt.filter.coefficient(order[j]) == pytest.approx(1.0, abs=1e-12)


def test_both_mode_names_run_the_same_scan():
    rng = np.random.default_rng(47)
    for _ in range(10):
        p, q = random_pair(rng, int(rng.integers(2, 9)), gap=bool(rng.integers(2)))
        _, p_max, _ = ultimate_optimum(p, q)
        t = float(rng.uniform(p_max, 1.0))
        try:
            expected = optimal_tradeoff_point(p, q, t, "exhaustive")
        except NoFeasiblePartition:
            with pytest.raises(NoFeasiblePartition):
                optimal_tradeoff_point(p, q, t, "ratio-family")
            continue
        assert optimal_tradeoff_point(p, q, t, "ratio-family") == expected


def test_optimum_on_1600_sectors_matches_merged_curve():
    start = time.perf_counter()
    p, q = damped_profile(1600, 0.9), uniform_levels(1600)
    points = tradeoff_curve(p, q, 1600).points
    for T in np.linspace(1, len(points), 20).round().astype(int):
        pt = points[T - 1]
        best = optimal_tradeoff_point(p, q, pt.p_succ)
        assert best.fidelity == pytest.approx(pt.F_coarse, abs=1e-12)
    assert time.perf_counter() - start < 2.0


def test_tradeoff_point_infeasible_probability():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(1, 1.0, 0.5), (2, 2.0, 0.5)])
    # Only sector 1 is common, so no filter reaches p_succ above 1/2.
    with pytest.raises(NoFeasiblePartition):
        optimal_tradeoff_point(p, q, 0.9)
    with pytest.raises(NoFeasiblePartition):
        optimal_tradeoff_point(p, q, 0.9, mode="ratio-family")


def test_tradeoff_point_rejects_bad_arguments():
    p, q = two_sector()
    with pytest.raises(ValueError):
        optimal_tradeoff_point(p, q, 0.0)
    with pytest.raises(ValueError):
        optimal_tradeoff_point(p, q, 0.5, mode="bogus")
