"""Block densities, mixed-state bounds, and thermal spin purification."""

import math
import tracemalloc

import numpy as np
import pytest

from epops.errors import DimensionMismatch, DisjointSpectra, NotBlockPositive, NotOdd, TooLarge
from epops.mixedstate import (
    BlockDensity,
    BlockPositivity,
    MixedProbabilityResult,
    block_density,
    coherent_target_profile,
    det_fidelity_bound,
    is_block_positive,
    mixed_alignment_fidelity,
    pure_block_density,
    purification_report,
    spin_multiplicities,
    spin_sector_model,
    thermal_spin_block_density,
    ultimate_mixed_fidelity,
    ultimate_mixed_probability,
)
from epops.optimal import ultimate_optimum
from epops.channels import deterministic_fidelity
from epops.spectra import build_profile


def random_block_density(rng, dims):
    total = sum(d for _, d in dims)
    g = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return BlockDensity(dims, rho)


def test_block_density_validation():
    with pytest.raises(DimensionMismatch):
        block_density(
            [(0, 1)], {(0, 0): np.array([[0.5, 0.0], [0.0, 0.5]])}
        )
    with pytest.raises(ValueError):
        block_density([(0, 1)], {(0, 0): np.array([[0.5]])})
    bd = block_density(
        [(0, 1), (1, 1)],
        {(0, 0): np.array([[0.5]]), (1, 1): np.array([[0.5]])},
    )
    assert bd.dimension == 2
    assert np.trace(bd.block(1, 1)).real == pytest.approx(0.5)


@pytest.mark.parametrize("build, error, message", [
    (lambda: BlockDensity([(0, 2)], np.eye(3) / 3), DimensionMismatch,
     "does not match total dimension 2"),
    (lambda: BlockDensity([(0, 2)], [[0.5, 0.1], [0.0, 0.5]]), DimensionMismatch,
     "not Hermitian"),
    (lambda: BlockDensity([(0, 2)], [[1.5, 0.0], [0.0, -0.5]]), ValueError,
     "negative eigenvalue"),
    (lambda: block_density([(0, 1)], {(0, 1): [[0.1]]}), DimensionMismatch,
     "unknown sector"),
], ids=["shape", "non-hermitian", "negative-eigenvalue", "unknown-sector"])
def test_block_density_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_missing_blocks_default_to_zero():
    bd = block_density(
        [(0, 1), (1, 2)],
        {(0, 0): np.array([[0.4]]), (1, 1): 0.3 * np.eye(2)},
    )
    assert np.all(bd.block(0, 1) == 0.0)
    assert bd.block(1, 0).shape == (2, 1)


def test_block_transposes_are_consistent():
    rng = np.random.default_rng(3)
    bd = random_block_density(rng, [(0, 2), (1, 2)])
    assert np.allclose(bd.block(1, 0), bd.block(0, 1).conj().T)
    full = bd.matrix
    assert np.allclose(full, full.conj().T)
    assert np.trace(full).real == pytest.approx(1.0, abs=1e-12)


def test_pure_block_density_round_trip():
    p = build_profile([0, 2], [0.3, 0.7])
    bd = pure_block_density(p)
    assert bd.block(0, 0)[0, 0] == pytest.approx(0.3)
    assert bd.block(0, 2)[0, 0] == pytest.approx(math.sqrt(0.21))
    vals = np.linalg.eigvalsh(bd.matrix)
    assert vals.max() == pytest.approx(1.0, abs=1e-12)


def test_det_bound_reduces_to_pure_formula():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pw = rng.dirichlet(np.ones(3))
        qw = rng.dirichlet(np.ones(3))
        p = build_profile(range(len(pw)), pw)
        q = build_profile(range(len(qw)), qw)
        bound = det_fidelity_bound(pure_block_density(p), q)
        assert bound == pytest.approx(deterministic_fidelity(p, q), abs=1e-12)


def test_det_bound_dominates_mixed_alignment():
    rng = np.random.default_rng(7)
    q = build_profile([0, 1], [0.4, 0.6])
    for _ in range(10):
        bd = random_block_density(rng, [(0, 2), (1, 2)])
        cert = is_block_positive(bd)
        bound = det_fidelity_bound(bd, q)
        if cert.certified:
            assert mixed_alignment_fidelity(bd, q) == pytest.approx(
                bound, abs=1e-10
            )
        else:
            with pytest.raises(NotBlockPositive):
                mixed_alignment_fidelity(bd, q)


def test_block_positive_certificate_on_diagonal_state():
    bd = block_density(
        [(0, 2), (1, 1)],
        {
            (0, 0): np.diag([0.3, 0.2]),
            (1, 1): np.array([[0.5]]),
            (0, 1): np.array([[0.3], [0.0]]),
        },
    )
    cert = is_block_positive(bd)
    assert isinstance(cert, BlockPositivity)
    assert cert.certified


def test_block_positive_rejects_negative_square():
    bd = block_density(
        [(0, 1), (1, 1)],
        {
            (0, 0): np.array([[0.5]]),
            (1, 1): np.array([[0.5]]),
            (0, 1): np.array([[-0.4]]),
        },
    )
    cert = is_block_positive(bd)
    assert not cert.certified
    with pytest.raises(NotBlockPositive):
        mixed_alignment_fidelity(bd, coherent_target_profile())


def test_block_positive_rejects_weight_outside_the_leading_square():
    # Block (0, 1) is 2 x 1; its second row lies outside the leading square.
    bd = block_density(
        [(0, 2), (1, 1)],
        {
            (0, 0): np.diag([0.3, 0.2]),
            (1, 1): np.array([[0.5]]),
            (0, 1): np.array([[0.0], [0.3]]),
        },
    )
    cert = is_block_positive(bd)
    assert not cert.certified
    assert cert.note == "block (0, 1) has weight outside its leading square"


def test_ultimate_mixed_reduces_to_pure_optimum():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        pw = rng.dirichlet(np.ones(n))
        qw = rng.dirichlet(np.ones(n))
        p = build_profile(range(len(pw)), pw)
        q = build_profile(range(len(qw)), qw)
        f_max, p_max, _ = ultimate_optimum(p, q)
        rho = pure_block_density(p)
        assert ultimate_mixed_fidelity(rho, q) == pytest.approx(f_max, abs=1e-10)
        res = ultimate_mixed_probability(rho, q)
        assert res.exact
        assert res.value == pytest.approx(p_max, abs=1e-10)


def test_rank_one_state_with_wide_sectors_recovers_pure_optimum():
    # A pure state embedded in sectors of unequal dimension must still
    # reproduce the profile-level optimum, whatever the intra-sector
    # directions and phases are.
    rng = np.random.default_rng(21)
    dims = [(0, 2), (1, 3), (2, 1)]
    pw = rng.dirichlet(np.ones(3))
    qw = rng.dirichlet(np.ones(3))
    p = build_profile(range(len(pw)), pw)
    q = build_profile(range(len(qw)), qw)
    phi = np.concatenate(
        [
            math.sqrt(w) * _random_unit(rng, d)
            for (_, d), w in zip(dims, pw)
        ]
    )
    rho = np.outer(phi, phi.conj())
    bd = BlockDensity(dims, rho)
    f_max, p_max, _ = ultimate_optimum(p, q)
    assert ultimate_mixed_fidelity(bd, q) == pytest.approx(f_max, abs=1e-10)
    res = ultimate_mixed_probability(bd, q)
    assert res.exact
    assert res.value == pytest.approx(p_max, abs=1e-10)


def _random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_ultimate_mixed_fidelity_bounded_by_one():
    rng = np.random.default_rng(13)
    q = build_profile([0, 1], [0.5, 0.5])
    for _ in range(10):
        bd = random_block_density(rng, [(0, 2), (1, 3)])
        f = ultimate_mixed_fidelity(bd, q)
        assert 0.0 <= f <= 1.0 + 1e-10
        assert f >= det_fidelity_bound(bd, q) - 1e-10


def test_degenerate_probability_holds_one_projector_at_a_time():
    # The maximally mixed state of two 10-dimensional sectors has a 20-fold
    # top eigenspace toward equal target weights; the uniform mixture over
    # it sums 20 projectors of 6.4 KB each.
    d = 10
    rho = BlockDensity([(0, d), (1, d)], np.eye(2 * d) / (2 * d))
    q = build_profile([0, 1], [0.5, 0.5])
    ultimate_mixed_probability(rho, q)
    tracemalloc.start()
    try:
        res = ultimate_mixed_probability(rho, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.exact and res.fidelity == pytest.approx(0.5, abs=1e-12)
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("N", [1, 3, 5])
def test_degenerate_thermal_state_takes_the_uniform_mixture(N):
    # At beta = 0 the state is the identity over 2^N, the top eigenspace
    # toward the coherent target is degenerate, and the uniform mixture over
    # it is optimal: it passes the sectors m = +-1/2 whole, whose weight is
    # 2 C(N, (N-1)/2) / 2^N.
    res = ultimate_mixed_probability(thermal_spin_block_density(N, 0.0),
                                     coherent_target_profile())
    assert not res.exact
    assert res.value == pytest.approx(2 * math.comb(N, (N - 1) // 2) / 2**N)


def test_ultimate_mixed_requires_overlap():
    bd = block_density([(0, 1)], {(0, 0): np.array([[1.0]])})
    q = build_profile([5], [1.0])
    with pytest.raises(DisjointSpectra):
        ultimate_mixed_fidelity(bd, q)


def test_spin_multiplicities_dimension_identity():
    for N in range(1, 22, 2):
        mult = spin_multiplicities(N)
        total = sum((int(2 * l) + 1) * d for l, d in mult.items())
        assert total == 2**N
    with pytest.raises(NotOdd):
        spin_multiplicities(4)


def test_spin_sector_model_normalization():
    for N in (1, 3, 5):
        sectors = spin_sector_model(N, 0.7)
        trace = sum(s.multiplicity * np.trace(s.g) for s in sectors)
        assert trace == pytest.approx(1.0, abs=1e-12)
        assert all((s.g >= -1e-14).all() for s in sectors)


def test_purification_beta_zero_is_exactly_half():
    for N in (1, 3, 7, 11):
        rep = purification_report(N, 0.0)
        assert rep.F_prob == 0.5
        assert rep.sectors[0].alignment == 0.0


def test_purification_monotone_in_n():
    reports = [purification_report(N, 0.8) for N in range(1, 12, 2)]
    fps = [r.F_prob for r in reports]
    fds = [r.F_det for r in reports]
    assert all(b > a for a, b in zip(fps, fps[1:]))
    assert all(b < a for a, b in zip(fds, fds[1:]))


def test_purification_single_spin_closed_form():
    rep = purification_report(1, 0.8)
    assert rep.F_det == pytest.approx((1 + math.tanh(0.8)) / 2, abs=1e-12)
    assert rep.F_prob == pytest.approx(rep.F_det, abs=1e-12)
    assert rep.p_max == pytest.approx(1.0, abs=1e-12)


def test_purification_validates_input():
    with pytest.raises(NotOdd):
        purification_report(4, 0.5)
    with pytest.raises(TooLarge):
        purification_report(23, 0.5)
    with pytest.raises(ValueError):
        purification_report(3, -0.1)
    with pytest.raises(TooLarge):
        thermal_spin_block_density(11, 0.5)


@pytest.mark.parametrize("N", [0, -1, -2, -3])
def test_purification_rejects_nonpositive_counts(N):
    with pytest.raises(ValueError, match="positive odd integer"):
        purification_report(N, 1.0)
    with pytest.raises(ValueError, match="positive odd integer"):
        thermal_spin_block_density(N, 1.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_purification_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        purification_report(3, beta)


@pytest.mark.parametrize("N, beta", [(3, 175.0), (3, 400.0), (3, 1000.0), (21, 19.0), (1, 701.0)])
def test_purification_beyond_double_range_is_typed(N, beta):
    with pytest.raises(TooLarge, match="outside the double range"):
        purification_report(N, beta)


@pytest.mark.parametrize("N, beta", [(3, 170.0), (21, 17.0), (1, 700.0)])
def test_purification_large_beta_inside_range_is_finite(N, beta):
    # Near beta -> infinity every spin aligns, so each sector's fidelity
    # tends to one and the report settles; values stay finite at the edge.
    rep = purification_report(N, beta)
    values = (rep.F_det, rep.F_prob, rep.p_max)
    assert all(math.isfinite(v) and 0.0 < v <= 1.0 + 1e-12 for v in values)
    assert rep.F_prob == pytest.approx(1.0, abs=1e-12)
    assert rep.p_max == pytest.approx(purification_report(N, 0.9 * beta).p_max, rel=1e-9)


@pytest.mark.parametrize("N", [1, 3, 5, 7])
def test_purification_closed_form_matches_generic_path(N):
    beta = 0.8
    rep = purification_report(N, beta)
    rho = thermal_spin_block_density(N, beta)
    assert is_block_positive(rho).certified
    q = coherent_target_profile()
    assert mixed_alignment_fidelity(rho, q) == pytest.approx(rep.F_det, abs=1e-8)
    assert det_fidelity_bound(rho, q) == pytest.approx(rep.F_det, abs=1e-8)
    assert ultimate_mixed_fidelity(rho, q) == pytest.approx(rep.F_prob, abs=1e-8)
    res = ultimate_mixed_probability(rho, q)
    assert res.exact
    assert res.value == pytest.approx(rep.p_max, abs=1e-8)


def test_probability_skips_a_sector_outside_the_top_eigenspace():
    # The incoherent state diag(0.5, 0.5) toward q = (0.7, 0.3): the top
    # eigenspace lies in sector 0, so sector 1 carries none of its weight
    # and bounds no probability.
    rho = BlockDensity([(0, 1), (1, 1)], np.diag([0.5, 0.5]))
    res = ultimate_mixed_probability(rho, build_profile([0, 1], [0.7, 0.3]))
    assert res.exact is True
    assert res == pytest.approx(MixedProbabilityResult(0.5, 0.7, exact=True), abs=1e-15)
