"""Profile construction, serialization, and ratio grouping."""

import json
import math

import numpy as np
import pytest

from epops.errors import (
    AllZeroWeights,
    DisjointSpectra,
    DuplicateLabel,
    NegativeWeight,
    NonFiniteWeight,
)
from epops.spectra import (
    EnergyLabel,
    EnergyProfile,
    binomial_profile,
    build_profile,
    common_support,
    poisson_profile,
    ratio_table,
    sine_profile,
    uniform_profile,
)


def test_build_profile_normalizes_and_sorts():
    p = build_profile([(2, 2.0, 2.0), (0, 0.0, 1.0), (1, 1.0, 1.0)])
    assert p.support == (0, 1, 2)
    assert p.weight(2) == pytest.approx(0.5)
    assert math.fsum(w for _, w in p.entries) == pytest.approx(1.0, abs=1e-15)


def test_build_profile_drops_zero_weights():
    p = build_profile([(0, 0.0, 0.7), (1, 1.0, 0.0), (2, 2.0, 0.3)])
    assert p.support == (0, 2)
    assert p.weight(1) == 0.0


def test_build_profile_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        build_profile([(0, 0.0, 0.5), (0, 0.0, 0.5)])


def test_build_profile_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        build_profile([(0, 0.0, 0.5), (1, 1.0, -0.1)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_profile_rejects_non_finite_weight(bad):
    with pytest.raises(NonFiniteWeight):
        build_profile([(0, 0.0, 0.5), (1, 1.0, bad)])


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_from_json_rejects_non_finite_weight(bad):
    text = '{"energies": [{"index": 0, "weight": 0.5}, {"index": 1, "weight": %s}]}' % bad
    with pytest.raises(NonFiniteWeight):
        EnergyProfile.from_json(text)


@pytest.mark.parametrize("bad", ["1.5", "true", "\"1\"", "null"])
def test_from_json_rejects_non_integer_index(bad):
    text = '{"energies": [{"index": 0, "weight": 0.5}, {"index": %s, "weight": 0.5}]}' % bad
    with pytest.raises(ValueError, match="not an integer") as info:
        EnergyProfile.from_json(text)
    assert "'weight': 0.5" in str(info.value)


def test_support_and_labels_are_built_once():
    p = build_profile([(0, 0.0, 0.25), (3, 1.5, 0.75)])
    assert p.support is p.support
    assert p.labels is p.labels
    assert p.support == (0, 3)
    assert [label.value for label in p.labels] == [0.0, 1.5]


def test_build_profile_rejects_all_zero():
    with pytest.raises(AllZeroWeights):
        build_profile([(0, 0.0, 0.0), (1, 1.0, 0.0)])


def test_label_identity_ignores_value():
    assert EnergyLabel(3, 1.0) == EnergyLabel(3, 2.0)
    assert EnergyLabel(2) < EnergyLabel(3)
    assert EnergyLabel(4).value == 4.0


def test_weight_of_absent_sector_is_zero():
    p = build_profile([(0, 0.0, 1.0)])
    assert p.weight(7) == 0.0


def test_json_round_trip():
    p = build_profile([(0, 0.5, 0.25), (3, 1.5, 0.75)])
    doc = json.loads(p.to_json())
    assert [e["index"] for e in doc["energies"]] == [0, 3]
    again = EnergyProfile.from_json(p.to_json())
    assert again.as_dict() == pytest.approx(p.as_dict())
    assert again.labels[1].value == 1.5


def test_ratio_table_two_sectors():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    t = ratio_table(p, q)
    assert t.ratios == pytest.approx((0.75, 1.5))
    assert t.groups == ((1,), (0,))
    assert t.unions == ((1,), (0, 1))
    assert t.length == 2
    assert t.union_before(1) == ()
    assert t.union_before(2) == (1,)


def test_ratio_table_groups_equal_ratios():
    # Symmetric binomial profiles give bitwise-equal ratios at +-m.
    t = ratio_table(binomial_profile(2), binomial_profile(4))
    assert t.length == 2
    assert t.groups[0] == (-2, 2)
    assert t.groups[1] == (0,)
    assert t.ratios[0] == pytest.approx(1.0)
    assert t.ratios[1] == pytest.approx(4 / 3)


def test_ratio_table_disjoint_spectra():
    p = build_profile([(0, 0.0, 1.0)])
    q = build_profile([(1, 1.0, 1.0)])
    with pytest.raises(DisjointSpectra):
        ratio_table(p, q)


def test_ratio_table_is_sorted_and_strict():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        pw = rng.dirichlet(np.ones(n))
        qw = rng.dirichlet(np.ones(n))
        p = build_profile([(i, float(i), float(w)) for i, w in enumerate(pw)])
        q = build_profile([(i, float(i), float(w)) for i, w in enumerate(qw)])
        t = ratio_table(p, q)
        assert all(a < b for a, b in zip(t.ratios, t.ratios[1:]))
        assert sorted(t.unions[-1]) == list(common_support(p, q))
        covered = [i for g in t.groups for i in g]
        assert sorted(covered) == list(common_support(p, q))


def test_binomial_profile_small():
    p = binomial_profile(2)
    assert p.support == (-2, 0, 2)
    assert p.weight(-2) == pytest.approx(0.25)
    assert p.weight(0) == pytest.approx(0.5)
    assert p.labels[0].value == -2.0


def test_binomial_profile_deep_tail_stays_positive():
    p = binomial_profile(400)
    assert p.weight(400) > 0.0
    assert math.log(p.weight(400)) == pytest.approx(-400 * math.log(2), rel=1e-12)


def test_poisson_profile_matches_poisson_weights():
    p = poisson_profile(1.0, 80)
    assert p.support[0] == 0
    assert p.weight(0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert p.weight(2) / p.weight(1) == pytest.approx(0.5, rel=1e-12)


def test_poisson_profile_zero_amplitude():
    p = poisson_profile(0.0, 10)
    assert p.as_dict() == {0: 1.0}


def test_uniform_profile():
    p = uniform_profile(4)
    assert p.support == (0, 1, 2, 3)
    assert p.weight(2) == pytest.approx(0.25)


def test_sine_profile_drops_zero_sector():
    q = sine_profile(3)
    assert q.support == (1, 2, 3)
    assert q.weight(2) == pytest.approx(0.5)
    assert q.weight(1) == pytest.approx(0.25)


@pytest.mark.parametrize("n", [1, 2, 5, 60])
def test_sine_profile_normalized(n):
    q = sine_profile(n)
    assert math.fsum(w for _, w in q.entries) == pytest.approx(1.0, abs=1e-12)
