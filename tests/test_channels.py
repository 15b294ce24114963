"""Deterministic fidelity and sector filters on weight profiles."""

import math

import numpy as np
import pytest

from epops.channels import (
    SectorFilter,
    deterministic_fidelity,
    filter_fidelity,
    filter_success_probability,
    filtered_profile,
)
from epops.errors import ZeroSuccessProbability
from epops.spectra import build_profile


def two_sector():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    return p, q


def random_pair(rng, n):
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n))
    p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
    q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
    return p, q


def test_deterministic_fidelity_example():
    p, q = two_sector()
    expected = (math.sqrt(0.5 / 3) + math.sqrt(1 / 3)) ** 2
    assert deterministic_fidelity(p, q) == pytest.approx(expected, abs=1e-15)


def test_deterministic_fidelity_identical_profiles():
    p, _ = two_sector()
    assert deterministic_fidelity(p, p) == pytest.approx(1.0, abs=1e-14)


def test_deterministic_fidelity_disjoint_is_zero():
    p = build_profile([(0, 0.0, 1.0)])
    q = build_profile([(1, 1.0, 1.0)])
    assert deterministic_fidelity(p, q) == 0.0


def test_deterministic_fidelity_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, q = random_pair(rng, int(rng.integers(2, 6)))
        assert deterministic_fidelity(p, q) == pytest.approx(
            deterministic_fidelity(q, p), abs=1e-14
        )


def test_filter_coefficients_validated():
    SectorFilter({0: 0.0, 1: 1.0})
    with pytest.raises(ValueError):
        SectorFilter({0: 1.001})
    with pytest.raises(ValueError):
        SectorFilter({0: -0.001})
    clipped = SectorFilter({0: 1.0 + 1e-13})
    assert clipped.coefficient(0) == 1.0


def test_identity_filter():
    p, _ = two_sector()
    f = SectorFilter.identity(p)
    assert filter_success_probability(p, f) == pytest.approx(1.0, abs=1e-14)
    assert filtered_profile(p, f).as_dict() == pytest.approx(p.as_dict())


def test_filtered_profile_example():
    p, _ = two_sector()
    f = SectorFilter({0: 1.0, 1: 0.5})
    assert filter_success_probability(p, f) == pytest.approx(0.75)
    out = filtered_profile(p, f)
    assert out.weight(0) == pytest.approx(2 / 3)
    assert out.weight(1) == pytest.approx(1 / 3)


def test_filtered_profile_zero_probability():
    p, _ = two_sector()
    with pytest.raises(ZeroSuccessProbability):
        filtered_profile(p, SectorFilter({0: 0.0, 1: 0.0}))
    with pytest.raises(ZeroSuccessProbability):
        filter_fidelity(p, p, SectorFilter({0: 0.0, 1: 0.0}))


def test_filter_fidelity_example():
    p, q = two_sector()
    f = SectorFilter({0: 1.0, 1: 0.5})
    num = (math.sqrt(0.5 / 3) + math.sqrt(0.5 * 0.5 * 2 / 3)) ** 2
    assert filter_fidelity(p, q, f) == pytest.approx(num / 0.75, abs=1e-14)


def test_filter_fidelity_consistent_with_filtered_profile():
    # Filtering then deterministically aligning equals the filter fidelity.
    rng = np.random.default_rng(23)
    for _ in range(30):
        p, q = random_pair(rng, int(rng.integers(2, 7)))
        x = rng.uniform(0.05, 1.0, size=len(p.support))
        f = SectorFilter({i: float(v) for i, v in zip(p.support, x)})
        lhs = filter_fidelity(p, q, f)
        rhs = deterministic_fidelity(filtered_profile(p, f), q)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_filter_fidelity_never_below_unfiltered():
    # A filter can only concentrate weight where the target wants it less
    # or more, but the best filter is at least as good as no filter.
    rng = np.random.default_rng(31)
    p, q = random_pair(rng, 5)
    f = SectorFilter.identity(p)
    assert filter_fidelity(p, q, f) == pytest.approx(
        deterministic_fidelity(p, q), abs=1e-14
    )


def test_filter_json_round_trip():
    f = SectorFilter({0: 0.25, 3: 1.0})
    doc = f.to_json_dict()
    again = SectorFilter.from_json_dict(doc)
    assert again.coefficient(0) == 0.25
    assert again.coefficient(3) == 1.0


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_filter_rejects_non_finite_coefficient(bad):
    with pytest.raises(ValueError):
        SectorFilter({0: float(bad)})
    with pytest.raises(ValueError):
        SectorFilter.from_json_dict({"x": {"0": bad}})
