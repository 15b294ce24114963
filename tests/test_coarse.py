"""Merged filters and the two-column tradeoff curve."""

import math
import random
import time

import numpy as np
import pytest

from epops.apps.correction import damped_profile, uniform_levels
from epops.apps.estimation import estimation_profiles
from epops.channels import deterministic_fidelity, filter_success_probability
from epops.coarse import tradeoff_curve
from epops.errors import RoundOutOfRange
from epops.oracle import MERGE_TOLERANCES
from epops.recursive import cumulative, run_protocol
from epops.spectra import binomial_profile, build_profile, common_support, poisson_profile
from reference_routes import assemble, coarse_filter, merge_residuals


def two_sector():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    return p, q


def random_subset_pair(rng, n):
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def test_coarse_filter_two_sector():
    p, q = two_sector()
    run = run_protocol(p, q, 10)
    f1 = coarse_filter(run, 1)
    assert f1.coefficient(1) == pytest.approx(1.0)
    assert f1.coefficient(0) == pytest.approx(0.5)
    f2 = coarse_filter(run, 2)
    assert f2.coefficient(0) == pytest.approx(1.0)
    assert f2.coefficient(1) == pytest.approx(1.0)


def test_coarse_filter_bounds():
    p, q = two_sector()
    run = run_protocol(p, q, 10)
    with pytest.raises(RoundOutOfRange):
        coarse_filter(run, 0)
    with pytest.raises(RoundOutOfRange):
        coarse_filter(run, 3)


def test_coarse_probability_equals_cumulative():
    rng = np.random.default_rng(47)
    for _ in range(20):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        run = run_protocol(p, q, 100)
        for T in range(1, len(run.rounds) + 1):
            p_cum, _ = cumulative(run, T)
            p_merged = filter_success_probability(p, coarse_filter(run, T))
            assert p_merged == pytest.approx(p_cum, abs=1e-10)


def test_coarse_fidelity_dominates_recursive():
    rng = np.random.default_rng(59)
    for _ in range(20):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        run = run_protocol(p, q, 100)
        for pt in tradeoff_curve(p, q, 100).points:
            assert pt.F_coarse >= cumulative(run, pt.T)[1] - 1e-12


def test_coarse_endpoint_is_deterministic_fidelity():
    # At full termination the merged filter transmits everything, so the
    # coarse fidelity collapses to the deterministic one.
    rng = np.random.default_rng(67)
    for _ in range(10):
        p, q = random_subset_pair(rng, int(rng.integers(2, 6)))
        run = run_protocol(p, q, 100)
        L = len(run.rounds)
        assert tradeoff_curve(p, q, 100).points[L - 1].F_coarse == pytest.approx(
            deterministic_fidelity(p, q), abs=1e-12
        )
        merged = coarse_filter(run, L)
        assert all(merged.coefficient(i) == pytest.approx(1.0) for i in p.support)


def test_tradeoff_curve_two_sector():
    p, q = two_sector()
    curve = tradeoff_curve(p, q, 10)
    assert [pt.T for pt in curve.points] == [1, 2]
    assert curve.points[0].p_succ == pytest.approx(0.75)
    assert curve.points[0].F_recursive == pytest.approx(1.0)
    assert curve.points[0].F_coarse == pytest.approx(1.0)
    assert curve.points[1].p_succ == pytest.approx(1.0, abs=1e-12)
    assert curve.points[1].F_recursive == pytest.approx(5 / 6)
    assert curve.points[1].F_coarse == pytest.approx(0.9714045207910316)


#: The relative spread of one sector's ratio about its level: an exact tie,
#: a tie well inside the grouping tolerance, and ties up to across it.
TIE_SPREADS = (0.0, 1e-10, 1e-9)


def near_tie_pairs(seed=2015, count=1000):
    """``count`` pairs drawn by ``random.Random(seed)``, whose draws, unlike
    hypothesis's, depend on nothing else in the package: 2..40 common
    sectors whose ratios p/q sit on one to six levels, each spread up by a
    uniform fraction of a drawn ``TIE_SPREADS`` value, then up to two
    sectors of p alone and up to two of q alone, every weight kept."""
    rng = random.Random(seed)
    for _ in range(count):
        n, p_only, q_only = rng.randint(2, 40), rng.randint(0, 2), rng.randint(0, 2)
        levels = [math.exp(rng.uniform(-4.0, 4.0)) for _ in range(rng.randint(1, 6))]
        qw = [float(rng.randint(1, 4)) if rng.random() < 0.5 else rng.uniform(0.05, 1.0)
              for _ in range(n + q_only)]
        pw = [w * rng.choice(levels) * (1.0 + rng.uniform(0.0, rng.choice(TIE_SPREADS)))
              for w in qw[:n]] + [rng.uniform(0.05, 1.0) for _ in range(p_only)]
        q_sectors = [*range(n), *range(n + p_only, n + p_only + q_only)]
        yield (assemble(list(enumerate(pw))), assemble(list(zip(q_sectors, qw))))


def test_near_tie_curves_rise_to_at_most_the_common_weight():
    # Each p_succ is the merged filter's p(U_T) + r_T q(rest), which ends at
    # p(U_L), the common weight, up to rounding.  The protocol's running sum
    # of round probabilities ends up to 4e-10 above it on these pairs, since
    # a group's plain mean ratio times its q is not its p.  At T = 1 the merged
    # filter is the first round, so the two fidelities are one number, up to
    # rounding; past it the merged one is higher.
    for p, q in near_tie_pairs():
        points = tradeoff_curve(p, q, 10**6).points
        common = math.fsum(map(p.weight, common_support(p, q)))
        assert all(a.p_succ < b.p_succ for a, b in zip(points, points[1:]))
        assert points[-1].p_succ <= common * (1.0 + 4 * 2.0**-52)
        first = points[0]
        assert first.F_coarse >= first.F_recursive * (1.0 - 8 * 2.0**-52)
        assert all(pt.F_coarse >= pt.F_recursive for pt in points[1:])


def test_tradeoff_curve_probability_strictly_increases():
    rng = np.random.default_rng(71)
    for _ in range(15):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        curve = tradeoff_curve(p, q, 100)
        probs = [pt.p_succ for pt in curve.points]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        assert probs[-1] == pytest.approx(1.0, abs=1e-10)


def test_csv_rendering():
    p, q = two_sector()
    curve = tradeoff_curve(p, q, 10)
    text = curve.to_csv()
    lines = text.splitlines()
    assert lines[0] == "T,p_succ,F_recursive,F_coarse"
    assert lines[1] == "1,0.75,1,1"
    assert lines[2].startswith("2,1,0.833333,")
    assert text == curve.to_csv()


def test_csv_six_significant_digits():
    p = build_profile([(0, 0.0, 1e-7), (1, 1.0, 1 - 1e-7)])
    q = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    curve = tradeoff_curve(p, q, 10)
    first = curve.to_csv().splitlines()[1].split(",")
    assert "e" in first[1] or float(first[1]) < 1e-6


def dirichlet_profile(rng, n):
    weights = rng.dirichlet(np.ones(n))
    return build_profile([(i, float(i), float(w)) for i, w in enumerate(weights)])


def readme_family_runs():
    """Protocol runs of the profile pairs behind the README invocations."""
    rng = np.random.default_rng(2015)
    pairs = [
        (poisson_profile(1.0, 80), poisson_profile(1.5, 80), 81),
        (binomial_profile(80), binomial_profile(400), 41),
        (damped_profile(100, 0.9), uniform_levels(100), 100),
        estimation_profiles("maxcoh", 61) + (30,),
        estimation_profiles("qubits", 8) + (32,),
        (dirichlet_profile(rng, 40), dirichlet_profile(rng, 42), 32),
    ]
    return [run_protocol(p, q, K) for p, q, K in pairs]


def random_runs():
    rng = np.random.default_rng(83)
    runs = []
    for _ in range(30):
        n = int(rng.integers(2, 9))
        p, q = random_subset_pair(rng, n)
        runs.append(run_protocol(p, q, 100))
    return runs


@pytest.mark.parametrize("family", ["readme", "random"])
def test_closed_form_merged_filters_match_second_routes(family):
    # Summed round filters, generic fidelity and generic success
    # probability against the closed forms the curve is built from.
    runs = readme_family_runs() if family == "readme" else random_runs()
    for run in runs:
        residuals = merge_residuals(run)
        for name, tol in MERGE_TOLERANCES.items():
            assert residuals[name] <= tol, (name, residuals[name])


def test_large_random_curve_stays_fast():
    rng = np.random.default_rng(97)
    p, q = random_subset_pair(rng, 1600)
    start = time.perf_counter()
    curve = tradeoff_curve(p, q, 1600)
    assert time.perf_counter() - start < 2.0
    assert len(curve.points) == 1600
    assert curve.points[-1].p_succ == pytest.approx(1.0, abs=1e-10)


def test_a_curve_reads_only_the_groups_it_prints(monkeypatch):
    # Row T needs groups 1..T only, so a 3-row curve of a pair with
    # thousands of groups pulls 3 of them from the engine's group stream.
    import epops.spectra as spectra
    from epops.apps.estimation import estimation_tradeoff

    p, q = estimation_profiles("maxcoh", 10**4)
    L = spectra.ratio_table(p, q).length
    assert L > 1000
    pulled = []
    original = spectra._ratio_groups

    def counted(rows):
        for group in original(rows):
            pulled.append(group)
            yield group

    monkeypatch.setattr(spectra, "_ratio_groups", counted)
    for rows in (lambda: tradeoff_curve(p, q, 3).points,
                 lambda: estimation_tradeoff("maxcoh", 10**4, 3)):
        pulled.clear()
        assert len(rows()) == 3
        assert len(pulled) == 3
    # The counter counts: the round-level table reads every group.
    pulled.clear()
    spectra.ratio_table(p, q)
    assert len(pulled) == L
