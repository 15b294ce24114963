"""Round-by-round protocol structure and its cumulative quantities."""

import math

import numpy as np
import pytest

from epops.coarse import tradeoff_curve
from epops.errors import RoundOutOfRange
from epops.recursive import cumulative, run_protocol
from epops.spectra import build_profile, ratio_table
from reference_routes import prefix, round_filter_weights, round_output


def two_sector():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    return p, q


def random_subset_pair(rng, n):
    # Input support contained in target support, so the protocol can
    # exhaust the full input weight.
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n + 1))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def test_two_sector_rounds():
    p, q = two_sector()
    run = run_protocol(p, q, 10)
    assert len(run.rounds) == 2 == run.table.length
    r1, r2 = run.rounds
    m1, m2 = round_filter_weights(run)
    assert r1.fidelity == pytest.approx(1.0)
    assert r1.probability == pytest.approx(0.75)
    assert m1 == pytest.approx({0: 0.5, 1: 1.0})
    assert round_output(run, 1).support == (0, 1)
    assert round_output(run, 1).weights == pytest.approx((1 / 3, 2 / 3))
    assert r2.fidelity == pytest.approx(1 / 3)
    assert r2.probability == pytest.approx(0.25)
    assert m2 == pytest.approx({0: 0.5, 1: 0.0})
    out2 = round_output(run, 2)
    assert out2.support == (0,) and out2.weights == pytest.approx((1.0,))


def test_round_cap_by_k():
    p, q = two_sector()
    run = run_protocol(p, q, 1)
    assert len(run.rounds) == 1 < run.table.length


@pytest.mark.parametrize("K", [float("nan"), 2.0, "3", True, None],
                         ids=["nan", "float", "string", "bool", "none"])
def test_round_count_must_be_an_integer(K):
    # NaN, 2.0 and "3" used to raise a bare TypeError, and True ran one round.
    p, q = two_sector()
    with pytest.raises(ValueError, match=f"round count K={K!r} is not an integer"):
        tradeoff_curve(p, q, K)
    assert len(tradeoff_curve(p, q, np.int64(1)).points) == 1


@pytest.mark.parametrize("K", [0, -1])
def test_round_count_must_be_at_least_one(K):
    p, q = two_sector()
    for build in (run_protocol, tradeoff_curve):
        with pytest.raises(ValueError, match="K must be at least 1"):
            build(p, q, K)


def test_cumulative_two_sector():
    p, q = two_sector()
    run = run_protocol(p, q, 10)
    assert cumulative(run, 1) == pytest.approx((0.75, 1.0))
    p2, f2 = cumulative(run, 2)
    assert p2 == pytest.approx(1.0, abs=1e-12)
    assert f2 == pytest.approx(5 / 6)


def test_cumulative_bounds_checked():
    p, q = two_sector()
    run = run_protocol(p, q, 10)
    with pytest.raises(RoundOutOfRange):
        cumulative(run, 0)
    with pytest.raises(RoundOutOfRange):
        cumulative(run, 3)


def test_termination_time_is_number_of_distinct_ratios():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        assert len(run_protocol(p, q, 10_000).rounds) == ratio_table(p, q).length


def test_probabilities_sum_to_one_when_support_is_contained():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        run = run_protocol(p, q, 100)
        assert len(run.rounds) == run.table.length
        total = math.fsum(r.probability for r in run.rounds)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_fidelity_strictly_decreases():
    rng = np.random.default_rng(19)
    for _ in range(25):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        run = run_protocol(p, q, 100)
        fids = [r.fidelity for r in run.rounds]
        assert all(b < a for a, b in zip(fids, fids[1:]))
        assert fids[0] == pytest.approx(
            math.fsum(q.weight(i) for i in p.support), abs=1e-14
        )


def test_rounds_are_built_once_on_first_read():
    p, q = two_sector()
    run = run_protocol(p, q, 8)
    assert "rounds" not in vars(run)
    assert run.rounds is run.rounds


def test_kraus_weights_partition_unity_on_input_support():
    rng = np.random.default_rng(37)
    for _ in range(25):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        run = run_protocol(p, q, 100)
        weights = round_filter_weights(run)
        for i in p.support:
            total = math.fsum(m[i] for m in weights)
            assert total == pytest.approx(1.0, abs=1e-10)
        for k, m in enumerate(weights, start=1):
            eroded = set(prefix(run.table, k - 1))
            assert all(m[i] == 0.0 for i in eroded)
            assert all(m[i] > 0.0 for i in p.support if i not in eroded)


def test_round_outputs_are_renormalized_target_tails():
    rng = np.random.default_rng(53)
    p, q = random_subset_pair(rng, 5)
    run = run_protocol(p, q, 100)
    for r in run.rounds:
        eroded = set(prefix(run.table, r.k - 1))
        output = round_output(run, r.k)
        for i in output.support:
            assert i not in eroded
            assert output.weight(i) == pytest.approx(
                q.weight(i) / r.fidelity, rel=1e-12
            )


def test_closed_form_probability_matches_summation():
    # Telescoped form: the eroded input weight p(U_{T-1}) plus r_T times
    # the T-th round fidelity.
    rng = np.random.default_rng(61)
    for _ in range(25):
        p, q = random_subset_pair(rng, int(rng.integers(2, 7)))
        run = run_protocol(p, q, 100)
        for T in range(1, len(run.rounds) + 1):
            summed, _ = cumulative(run, T)
            eroded = math.fsum(p.weight(i) for i in prefix(run.table, T - 1))
            closed = eroded + run.table.ratios[T - 1] * run.rounds[T - 1].fidelity
            assert closed == pytest.approx(summed, abs=1e-10)


def test_probability_tops_out_at_common_weight():
    # An input sector absent from the target can never be converted, so
    # the protocol exhausts only the common weight.
    p = build_profile([(0, 0.0, 0.2), (1, 1.0, 0.4), (2, 2.0, 0.4)])
    q = build_profile([(1, 1.0, 0.5), (2, 2.0, 0.5)])
    run = run_protocol(p, q, 100)
    assert len(run.rounds) == run.table.length
    total = math.fsum(r.probability for r in run.rounds)
    assert total == pytest.approx(0.8, abs=1e-12)
