"""Matrix-level oracle: simulation, channel checks, grid and subset searches."""

import dataclasses

import numpy as np
import pytest

from epops.channels import (
    SectorFilter,
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
from epops.optimal import optimal_tradeoff_point, ultimate_optimum
from epops.oracle import (
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
from epops.spectra import build_profile


def test_model_layout():
    model = hilbert_model({0: 2, 1: 1, 3: 2}, values={3: 2.5})
    assert model.labels == (0, 1, 3)
    assert model.dimension == 5
    assert model.sector_slice(3) == slice(3, 5)
    pr = model.projector(1)
    assert pr[2, 2] == 1.0 and pr.sum() == 1.0
    h = model.hamiltonian()
    assert h[4, 4] == 2.5
    assert h[0, 0] == 0.0


def test_model_caps_dimension():
    with pytest.raises(TooLarge):
        hilbert_model({0: 9, 1: 9})


def test_model_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        hilbert_model({0: 0})


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
        embed_profile(model, p)


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
    assert not check_energy_preserving(model, [swap])


def test_trace_increasing_family_rejected():
    model = hilbert_model({0: 1, 1: 1})
    with pytest.raises(NotTraceNonIncreasing):
        check_energy_preserving(model, [1.1 * np.eye(2)])


def test_square_root_reduction_identity():
    model = hilbert_model({0: 2, 1: 1})
    rng = np.random.default_rng(5)
    m1 = np.zeros((3, 3), dtype=complex)
    m1[:2, :2] = 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    m1[2, 2] = 0.3
    assert luders_identity_holds(model, [m1])


def test_simulation_matches_table_engine():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p, q = random_profile_pair(rng, max_sectors=5)
        dims = {i: int(rng.integers(1, 3)) for i in q.support}
        model = hilbert_model(dims)
        run = run_protocol(p, q, 64)
        sim = simulate_protocol(model, p, q, 64, rng)
        assert len(sim.rounds) == len(run.rounds)
        for a, b in zip(run.rounds, sim.rounds):
            assert b.fidelity == pytest.approx(a.fidelity, abs=1e-10)
            assert b.probability == pytest.approx(a.probability, abs=1e-10)
            for i in p.support:
                assert b.kraus_weights[i] == pytest.approx(a.kraus[i], abs=1e-10)
        assert sim.completeness_residual <= 1e-10


def test_simulated_operators_are_energy_preserving():
    rng = np.random.default_rng(13)
    p, q = random_profile_pair(rng, max_sectors=4)
    model = hilbert_model({i: 2 for i in q.support})
    sim = simulate_protocol(model, p, q, 64, rng)
    ops = [r.operator for r in sim.rounds] + [sim.failure_operator]
    assert check_energy_preserving(model, ops, rng=rng)
    assert luders_identity_holds(model, ops)


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


def test_verification_report():
    rep = run_verification(seed=1, instances=5)
    assert rep.passed
    assert len(rep.checks) == 6
    assert all(line.startswith("ok  ") for line in rep.lines())


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
    with pytest.raises(NoFeasiblePartition):
        exhaustive_tradeoff(p, q, 0.9)


def test_verification_catches_a_planted_wrong_optimum(monkeypatch):
    # A fidelity 1e-9 short of the optimum hides inside twice the grid
    # step; the exhaustive subset search still exposes it.
    def short_of_optimal(p, q, p_succ, mode="exhaustive"):
        point = optimal_tradeoff_point(p, q, p_succ, mode)
        return dataclasses.replace(point, fidelity=point.fidelity - 1e-9)

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
