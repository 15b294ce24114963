"""Matrix-level oracle: simulation, channel checks, grid and subset searches."""

import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from epops.channels import (
    filter_fidelity,
    filter_success_probability,
)
from epops.errors import (
    DimensionMismatch,
    NoFeasiblePartition,
    NotTraceNonIncreasing,
    SpectrumTooLarge,
    TooLarge,
)
import epops.optimal
import epops.oracle
from epops.optimal import optimal_tradeoff_point, ultimate_optimum
from epops.oracle import (
    HilbertModel,
    _grid_resolution,
    _random_model,
    check_energy_preserving,
    embed_profile,
    exhaustive_tradeoff,
    grid_search_tradeoff,
    hilbert_model,
    luders_identity_holds,
    random_profile_pair,
    run_verification,
    sector_weights,
    simulate_protocol,
)
from epops.recursive import run_protocol
from epops.spectra import EnergyProfile, build_profile
from reference_routes import round_filter_weights


def test_model_layout():
    model = hilbert_model({0: 2, 1: 1, 3: 2})
    assert model.labels == (0, 1, 3)
    assert model.dimension == 5
    assert not hasattr(model, "values")
    assert model.slices == {0: slice(0, 2), 1: slice(2, 3), 3: slice(3, 5)}


def test_model_caps_dimension():
    with pytest.raises(TooLarge):
        hilbert_model({0: 9, 1: 9})


def test_model_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        hilbert_model({0: 0})


@pytest.mark.parametrize("labels", [(0, 0), (1, 0)], ids=["repeated", "unsorted"])
def test_model_rejects_repeated_or_unsorted_labels(labels):
    with pytest.raises(DimensionMismatch):
        HilbertModel(labels, (1, 1))


def test_embed_profile_reproduces_weights():
    model = hilbert_model({0: 2, 1: 3})
    p = build_profile([(0, 0.0, 0.3), (1, 1.0, 0.7)])
    rng = np.random.default_rng(2)
    psi = embed_profile(model, p, rng)
    w = sector_weights(model, psi)
    assert w[0] == pytest.approx(0.3, abs=1e-12)
    assert w[1] == pytest.approx(0.7, abs=1e-12)


def test_embed_profile_needs_matching_sectors():
    model = hilbert_model({0: 1})
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    with pytest.raises(DimensionMismatch):
        embed_profile(model, p, np.random.default_rng(0))


def test_block_unitary_is_energy_preserving():
    model = hilbert_model({0: 2, 1: 2})
    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        qmat, _ = np.linalg.qr(g)
        blocks.append(qmat)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = blocks[0]
    u[2:, 2:] = blocks[1]
    assert check_energy_preserving(model, [u], rng=rng)


def test_sector_swap_is_not_energy_preserving():
    model = hilbert_model({0: 1, 1: 1})
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not check_energy_preserving(model, [swap], rng=np.random.default_rng(0))


def test_coupling_between_wide_sectors_is_not_energy_preserving():
    # The permutation trades basis vector 1, the second row of sector 0,
    # with basis vector 2, the first of sector 1: trace preserving, with
    # entries outside the diagonal blocks that both routes must see.
    model = hilbert_model({0: 2, 1: 2})
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert not check_energy_preserving(model, [swap], rng=np.random.default_rng(7))


def test_trace_increasing_family_rejected():
    model = hilbert_model({0: 1, 1: 1})
    with pytest.raises(NotTraceNonIncreasing):
        check_energy_preserving(model, [1.1 * np.eye(2)], rng=np.random.default_rng(0))


def test_square_root_reduction_identity():
    model = hilbert_model({0: 2, 1: 1})
    rng = np.random.default_rng(5)
    m1 = np.zeros((3, 3), dtype=complex)
    m1[:2, :2] = 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    m1[2, 2] = 0.3
    assert luders_identity_holds(model, [m1], rng=np.random.default_rng(0))


def test_simulation_matches_table_engine():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p, q = random_profile_pair(rng, max_sectors=5)
        dims = {i: int(rng.integers(1, 3)) for i in q.support}
        model = hilbert_model(dims)
        run = run_protocol(p, q, 64)
        sim = simulate_protocol(model, p, q, 64, rng)
        assert len(sim.rounds) == len(run.rounds)
        for a, m, b in zip(run.rounds, round_filter_weights(run), sim.rounds):
            assert b.fidelity == pytest.approx(a.fidelity, abs=1e-10)
            assert b.probability == pytest.approx(a.probability, abs=1e-10)
            for i, w in zip(p.support, b.kraus_weights):
                assert w == pytest.approx(m[i], abs=1e-10)
        assert sim.completeness_residual <= 1e-10


def test_simulated_kraus_weights_follow_the_input_support():
    # Labels that are not 0..n-1 and an input-only sector 9: each round's
    # weights line up with p.support, and sector 9 is never filtered in.
    p = build_profile([(1, 1.0, 0.2), (4, 4.0, 0.3), (6, 6.0, 0.4), (9, 9.0, 0.1)])
    q = build_profile([(1, 1.0, 0.5), (4, 4.0, 0.2), (6, 6.0, 0.3)])
    model = hilbert_model({1: 2, 4: 1, 6: 2, 9: 1})
    run = run_protocol(p, q, 64)
    sim = simulate_protocol(model, p, q, 64, np.random.default_rng(19))
    assert len(sim.rounds) == len(run.rounds) == 3
    for m, b in zip(round_filter_weights(run), sim.rounds):
        assert b.kraus_weights.shape == (4,)
        assert b.kraus_weights == pytest.approx([m[i] for i in p.support], abs=1e-10)
        assert b.kraus_weights[3] == 0.0
    assert sector_weights(model, embed_profile(model, p, np.random.default_rng(0))) == (
        pytest.approx([0.2, 0.3, 0.4, 0.1], abs=1e-12))


def test_simulated_operators_are_energy_preserving():
    rng = np.random.default_rng(13)
    p, q = random_profile_pair(rng, max_sectors=4)
    model = hilbert_model({i: 2 for i in q.support})
    sim = simulate_protocol(model, p, q, 64, rng)
    ops = [r.operator for r in sim.rounds] + [sim.failure_operator]
    assert check_energy_preserving(model, ops, rng=rng)
    assert luders_identity_holds(model, ops, rng=np.random.default_rng(0))


def test_grid_search_two_sector():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    f_grid, filt = grid_search_tradeoff(p, q, 0.9, 0.01)
    best = optimal_tradeoff_point(p, q, 0.9)
    assert abs(f_grid - best.fidelity) <= 0.02
    assert filter_success_probability(p, filt) == pytest.approx(0.9, abs=0.011)


def test_grid_search_agrees_with_lagrange():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p, q = random_profile_pair(rng, max_sectors=4)
        _, p_max, _ = ultimate_optimum(p, q)
        target = float(rng.uniform(p_max, 1.0))
        res = 0.02 if len(p.support) >= 4 else 0.01
        f_grid, filt = grid_search_tradeoff(p, q, target, res)
        best = optimal_tradeoff_point(p, q, target)
        assert abs(f_grid - best.fidelity) <= 2 * res
        assert f_grid == pytest.approx(
            filter_fidelity(p, q, filt), abs=1e-12
        )


def test_grid_search_validates_resolution():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    with pytest.raises(ValueError):
        grid_search_tradeoff(p, p, 0.5, 0.0)
    with pytest.raises(ValueError):
        grid_search_tradeoff(p, p, 0.5, 2.0)


def test_grid_search_point_cap():
    p = build_profile([(i, float(i), 1.0) for i in range(6)])
    q = build_profile([(i, float(i), float(i + 1)) for i in range(6)])
    with pytest.raises(SpectrumTooLarge):
        grid_search_tradeoff(p, q, 0.9, 0.001)


def _dirichlet_pair(rng, n):
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n + 1))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def _naive_grid(p, q, p_succ, resolution):
    """Best (fidelity, coefficients) over the grid, one point at a time in flat order."""
    axis = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
    pw = [p.weight(i) for i in p.support]
    pq = [w * q.weight(i) for w, i in zip(pw, p.support)]
    best = (-1.0, None)
    for reversed_x in itertools.product(axis, repeat=len(pw)):
        x = reversed_x[::-1]  # sector 0 varies fastest
        achieved = sum(xi * wi for xi, wi in zip(x, pw))
        if abs(achieved - p_succ) <= resolution + 1e-12 and achieved > 0.0:
            amp = sum(np.sqrt(xi * wi) for xi, wi in zip(x, pq))
            if amp * amp / achieved > best[0]:
                best = (amp * amp / achieved, x)
    return best


def _decoded_grid(p, q, p_succ, resolution, chunk=1 << 18):
    """Best (fidelity, coefficients) with every point decoded from its flat index."""
    size = int(round(1.0 / resolution)) + 1
    axis = np.linspace(0.0, 1.0, size)
    pw = np.array([p.weight(i) for i in p.support])
    pq = pw * np.array([q.weight(i) for i in p.support])
    n = len(pw)
    best = (-1.0, None)
    for start in range(0, size**n, chunk):
        flat = np.arange(start, min(start + chunk, size**n))
        x = axis[flat[:, None] // size ** np.arange(n) % size]
        achieved = (x * pw).sum(axis=1)
        ok = (np.abs(achieved - p_succ) <= resolution + 1e-12) & (achieved > 0.0)
        fid = np.where(ok, np.sqrt(x * pq).sum(axis=1) ** 2 / np.where(ok, achieved, 1.0), -1.0)
        k = int(fid.argmax())
        if fid[k] > best[0]:
            best = (float(fid[k]), tuple(x[k]))
    return best


def _coefficients(p, filt):
    return tuple(filt.coefficients[i] for i in p.support)


def test_grid_search_matches_naive_scan():
    rng = np.random.default_rng(23)
    for n, resolution in ((1, 0.01), (2, 0.05), (3, 0.1), (4, 0.2)):
        for _ in range(4):
            p, q = _dirichlet_pair(rng, n)
            target = float(rng.uniform(0.2, 1.0))
            f_grid, filt = grid_search_tradeoff(p, q, target, resolution)
            f_ref, x_ref = _naive_grid(p, q, target, resolution)
            assert f_grid == f_ref
            assert _coefficients(p, filt) == x_ref


def _profile(weights):
    """A profile on sectors 0..n-1 with exactly these weights (no normalization)."""
    n = len(weights)
    return EnergyProfile(range(n), weights)


@pytest.mark.parametrize("case", ["edge-1.0", "edge-0.5", "tiny-last", "tiny-first"])
def test_grid_search_band_edges_match_naive_scan(case):
    # Uniform weights at resolution 0.25 put grid points on the band
    # edges, up to rounding.  A last sector of weight 1e-17 adds less than one ulp to
    # most partial sums, so many values of it share one slice.  A first
    # sector near 1e-300 makes many partial sums and fidelities equal, so
    # the tie rule, not the sort order, must pick among them.
    uniform = build_profile([(i, float(i), 1.0) for i in range(3)])
    rng = np.random.default_rng(41)
    w = rng.dirichlet(np.ones(4)).tolist()
    q3 = _profile([0.25, 0.25, 0.5])
    q4 = _profile([0.25, 0.25, 0.25, 0.25])
    p, q, target, resolution = {
        "edge-1.0": (uniform, q3, 1.0, 0.25),
        "edge-0.5": (uniform, q3, 0.5, 0.25),
        "tiny-last": (_profile([w[0], 1.0 - w[0], 1e-17]), q3, 0.6, 0.05),
        "tiny-first": (_profile([1e-300, w[1], w[2], 1.0 - w[1] - w[2]]), q4, 0.6, 0.1),
    }[case]
    f_grid, filt = grid_search_tradeoff(p, q, target, resolution)
    assert (f_grid, _coefficients(p, filt)) == _naive_grid(p, q, target, resolution)


def test_grid_search_small_sorted_block_matches_naive_scan(monkeypatch):
    # With at most 50 sorted partial sums, the low block holds fewer than
    # n - 1 sectors and each value of the sectors above it picks a slice.
    monkeypatch.setattr(epops.oracle, "_SORTED_POINTS", 50)
    rng = np.random.default_rng(29)
    for n, resolution in ((1, 0.01), (3, 0.1), (4, 0.2)):
        p, q = _dirichlet_pair(rng, n)
        target = float(rng.uniform(0.2, 1.0))
        f_grid, filt = grid_search_tradeoff(p, q, target, resolution)
        assert (f_grid, _coefficients(p, filt)) == _naive_grid(p, q, target, resolution)


def _run_edge_case(case):
    """(p, q, p_succ, resolution) for a grid whose runs end at a test's edge."""
    if case.startswith("below-step"):
        # Under one step of 0.05 from the request, the zero-probability
        # points pass the band test and only ``achieved > 0`` drops them.
        p, q = _dirichlet_pair(np.random.default_rng(47), 3)
        return p, q, float(case.split("-")[-1]), 0.05
    if case == "one-sector":
        p, q = _dirichlet_pair(np.random.default_rng(53), 1)
        return p, q, 0.37, 0.05
    band = 0.25 + 1e-12
    if case.endswith("band-edge"):
        # The points reaching 0.375 sit exactly on the band's upper or
        # lower edge, and they score best: the run must keep them.
        target = 0.375 - band if case == "upper-band-edge" else 0.375 + band
        assert abs(0.375 - target) == band
        return _profile([0.5, 0.5]), _profile([0.3, 0.7]), target, 0.25
    # Two sectors of weight 0.5 at resolution 0.25: the point (0, 1) reaches
    # 0.5, which lies a few ulps above the band of this request but within
    # the margin, so a slice holding only that point has no feasible point.
    p = build_profile([(0, 0.0, 1.0), (1, 1.0, 1.0)])
    target = 0.5 - band - 5e-15
    assert band < 0.5 - target <= band + epops.oracle._BAND_MARGIN
    return p, _profile([0.25, 0.75]), target, 0.25


@pytest.mark.parametrize("sorted_points", [None, 5], ids=["default-block", "small-block"])
@pytest.mark.parametrize("case", [
    "below-step-0.004", "below-step-0.01", "below-step-0.02",
    "upper-band-edge", "lower-band-edge", "empty-widened-slice", "one-sector",
])
def test_grid_search_run_edges_match_naive_scan(monkeypatch, case, sorted_points):
    # With at most 5 sorted partial sums, the block is sector 0 alone and
    # each value of the sectors above it picks a run that starts mid-block.
    if sorted_points is not None:
        monkeypatch.setattr(epops.oracle, "_SORTED_POINTS", sorted_points)
    p, q, target, resolution = _run_edge_case(case)
    f_grid, filt = grid_search_tradeoff(p, q, target, resolution)
    assert (f_grid, _coefficients(p, filt)) == _naive_grid(p, q, target, resolution)


def test_grid_search_margin_keeps_point_rounding_into_band(monkeypatch):
    # With a block of sector 0 alone, the best feasible point (0.5, 0.75)
    # has a partial sum just below its slice's unwidened window, p_succ -
    # band - shift, yet its full sum rounds to within the band of p_succ:
    # only the margin keeps it in the sorted run.
    monkeypatch.setattr(epops.oracle, "_SORTED_POINTS", 5)
    p = _profile([0.5165220342982723, 0.48347796570172774])
    q = _profile([0.392753429981466, 0.607246570018534])
    target, resolution = 0.870869491426432, 0.25
    band = resolution + 1e-12
    partial, shift = 0.5 * p.weight(0), 0.75 * p.weight(1)
    assert partial < target - band - shift
    assert partial + shift - target >= -band
    f_grid, filt = grid_search_tradeoff(p, q, target, resolution)
    assert _coefficients(p, filt) == (0.5, 0.75)
    assert (f_grid, (0.5, 0.75)) == _naive_grid(p, q, target, resolution)


def test_grid_search_scores_no_zero_probability_point():
    # A point of probability 0 scores 0/0: with floating-point errors
    # raised, a run that let one in fails here instead of skipping it.
    rng = np.random.default_rng(43)
    for n in range(2, 6):
        p, q = _dirichlet_pair(rng, n)
        resolution = _grid_resolution(n)
        _, p_max, _ = ultimate_optimum(p, q)
        for target in (float(rng.uniform(p_max, 1.0)), resolution / 5, resolution / 2):
            with np.errstate(all="raise"):
                grid_search_tradeoff(p, q, target, resolution)


@pytest.mark.parametrize("p_weights, q_weights, first", [
    # Sectors 0 and 1 carry equal weights, so (0.75, 0.5, 1) and
    # (0.5, 0.75, 1) score exactly alike with the same last coefficient;
    # sector 0 varies fastest, so the point with the larger x_0 comes first.
    ((0.3, 0.3, 0.4), (0.2, 0.2, 0.6), (0.75, 0.5, 1.0)),
    # Sectors 1 and 2 carry equal weights: (1, 0.75, 0.5) and (1, 0.5,
    # 0.75) tie exactly with different last coefficients, and the smaller
    # last coefficient comes first.
    ((0.4, 0.3, 0.3), (0.6, 0.2, 0.2), (1.0, 0.75, 0.5)),
], ids=["one-slice", "two-slices"])
def test_grid_search_tie_keeps_first_point_in_flat_order(
    monkeypatch, p_weights, q_weights, first
):
    # 25 sorted partial sums: sectors 0 and 1 form the sorted block, and
    # each value of sector 2 has its own slice.
    monkeypatch.setattr(epops.oracle, "_SORTED_POINTS", 25)
    p = build_profile([(i, float(i), w) for i, w in enumerate(p_weights)])
    q = build_profile([(i, float(i), w) for i, w in enumerate(q_weights)])
    f_grid, filt = grid_search_tradeoff(p, q, 1.0, 0.25)
    assert _coefficients(p, filt) == first
    f_ref, x_ref = _naive_grid(p, q, 1.0, 0.25)
    assert (f_grid, x_ref) == (f_ref, first)


@pytest.mark.parametrize("n, resolution", [(3, 0.01), (4, 0.02)])
def test_grid_search_matches_decoded_scan(n, resolution):
    # 101^3 and 51^4 (6.77M) points, from 10,201 and 132,651 sorted
    # partial sums.
    rng = np.random.default_rng(31 + n)
    p, q = _dirichlet_pair(rng, n)
    _, p_max, _ = ultimate_optimum(p, q)
    target = float(rng.uniform(p_max, 1.0))
    f_grid, filt = grid_search_tradeoff(p, q, target, resolution)
    f_ref, x_ref = _decoded_grid(p, q, target, resolution)
    assert abs(f_grid - f_ref) <= 1e-14
    assert _coefficients(p, filt) == x_ref


def test_grid_search_memory_stays_bounded():
    rng = np.random.default_rng(37)
    p, q = _dirichlet_pair(rng, 5)
    tracemalloc.start()
    try:
        grid_search_tradeoff(p, q, 0.8, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_verification_report():
    rep = run_verification(seed=1, instances=5)
    assert rep.passed
    assert len(rep.checks) == 6
    assert all(line.startswith("ok  ") for line in rep.lines())


def test_verification_keeps_the_benchmark_verdicts():
    # The ok/FAIL line of every check, as recorded for the benchmark's
    # run_verification pool (10 instances) and its ``epops verify`` pool
    # (3 instances, after the exit code).
    refs = Path(__file__).resolve().parents[1] / "perfbench" / "refs"
    pools = (
        (json.loads((refs / "oracle.json").read_text()), 10, ""),
        (json.loads((refs / "cli.json").read_text())["verify"], 3, "rc={}\n"),
    )
    for expected, instances, head in pools:
        for seed, verdicts in expected.items():
            rep = run_verification(int(seed), instances)
            got = head.format(int(not rep.passed))
            got += "".join(line.split(":")[0] + "\n" for line in rep.lines())
            assert got == verdicts, seed


def test_verification_builds_each_instances_filters_once(monkeypatch):
    # One array pair per instance feeds the per-round, summed-simulation
    # and merged-filter gaps alike.
    built = []
    build = epops.oracle._filter_arrays

    def counted(run):
        built.append(run)
        return build(run)

    monkeypatch.setattr(epops.oracle, "_filter_arrays", counted)
    run_verification(seed=4, instances=6)
    assert len(built) == 6


def test_simulation_counts_rounding_residue_of_an_eroded_sector_as_eroded():
    # Instance 78 of seed 34: once the residual norm is down to 5e-6, an
    # eroded sector's rounding residue of 6e-17 passed a cut relative to
    # that norm, and the simulation ran a fifth round the engine does not.
    rep = run_verification(seed=34, instances=79)
    assert [c.name for c in rep.checks if not c.passed] == []


@pytest.mark.parametrize("instances", [0, -3])
def test_verification_needs_an_instance(instances):
    with pytest.raises(ValueError):
        run_verification(seed=1, instances=instances)


def test_random_model_falls_back_to_unit_sectors():
    rng = np.random.default_rng(41)
    q = build_profile([(i, float(i), 1.0) for i in range(16)])
    model = _random_model(rng, q)
    assert model.dims == (1,) * 16
    with pytest.raises(TooLarge):
        _random_model(rng, build_profile([(i, float(i), 1.0) for i in range(17)]))


def test_exhaustive_tradeoff_two_sector():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    # The optima of test_optimal's two-sector cases.
    assert exhaustive_tradeoff(p, q, 0.9) == pytest.approx(0.987004097802723, abs=1e-12)
    assert exhaustive_tradeoff(p, q, 1.0) == pytest.approx(0.971404520791032, abs=1e-12)


def test_exhaustive_tradeoff_caps_spectrum_size():
    p = build_profile([(i, float(i), 1.0) for i in range(13)])
    q = build_profile([(i, float(i), float(i + 1)) for i in range(13)])
    with pytest.raises(SpectrumTooLarge):
        exhaustive_tradeoff(p, q, 0.9)


def test_exhaustive_tradeoff_infeasible_probability():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(1, 1.0, 0.5), (2, 2.0, 0.5)])
    # The input-only sector 0 takes up at most its own weight above p(common).
    assert exhaustive_tradeoff(p, q, 0.9) == pytest.approx(0.25 / 0.9, abs=1e-12)
    with pytest.raises(NoFeasiblePartition):
        exhaustive_tradeoff(p, q, 1.1)
    # At zero the fidelity would divide by zero.
    for p_succ in (0.0, -0.0):
        with pytest.raises(ValueError, match=r"^p_succ must lie in \(0, 1\]$"):
            exhaustive_tradeoff(p, q, p_succ)


def test_verification_catches_a_planted_wrong_optimum(monkeypatch):
    # A fidelity 1e-9 short of the optimum hides inside twice the grid
    # step; the exhaustive subset search still exposes it.
    def short_of_optimal(p, q, p_succ, mode="exhaustive"):
        point = optimal_tradeoff_point(p, q, p_succ, mode)
        return point._replace(fidelity=point.fidelity - 1e-9)

    monkeypatch.setattr(epops.optimal, "optimal_tradeoff_point", short_of_optimal)
    lines = run_verification(seed=1, instances=2).lines()
    assert [line.split(":")[0] for line in lines] == [
        "ok   recursive-vs-simulation",
        "ok   kraus-completeness",
        "FAIL lagrange-vs-grid",
        "ok   filter-optimality-bound",
        "ok   deterministic-bound",
        "ok   square-root-reduction",
    ]
