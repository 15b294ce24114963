"""Deterministic fidelity and sector filters on weight profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epops.channels import (
    SectorFilter,
    _clean_each,
    deterministic_fidelity,
    filter_fidelity,
    filter_success_probability,
)
from epops.errors import ZeroSuccessProbability
from epops.spectra import build_profile
from reference_routes import filtered_profile


def two_sector():
    p = build_profile([0, 1], [0.5, 0.5])
    q = build_profile([0, 1], [1 / 3, 2 / 3])
    return p, q


def random_pair(rng, n):
    pw = rng.dirichlet(np.ones(n))
    qw = rng.dirichlet(np.ones(n))
    p = build_profile(range(len(pw)), pw)
    q = build_profile(range(len(qw)), qw)
    return p, q


def test_deterministic_fidelity_example():
    p, q = two_sector()
    expected = (math.sqrt(0.5 / 3) + math.sqrt(1 / 3)) ** 2
    assert deterministic_fidelity(p, q) == pytest.approx(expected, abs=1e-15)


def test_deterministic_fidelity_identical_profiles():
    p, _ = two_sector()
    assert deterministic_fidelity(p, p) == pytest.approx(1.0, abs=1e-14)


def test_deterministic_fidelity_disjoint_is_zero():
    p = build_profile([0], [1.0])
    q = build_profile([1], [1.0])
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
    # A bool, a string, None or a complex is not a coefficient, not even
    # one that compares like a number in [0, 1].
    for bad in (True, np.bool_(True), "0.5", None, 0.5 + 0j):
        with pytest.raises(ValueError, match=r"filter coefficient .* at sector 4 is not a number"):
            SectorFilter({4: bad})


def test_identity_filter():
    p, _ = two_sector()
    f = SectorFilter(dict.fromkeys(p.support, 1.0))
    assert filter_success_probability(p, f) == pytest.approx(1.0, abs=1e-14)
    out = filtered_profile(p, f)
    assert out.support == p.support and out.weights == pytest.approx(p.weights)


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
    f = SectorFilter(dict.fromkeys(p.support, 1.0))
    assert filter_fidelity(p, q, f) == pytest.approx(
        deterministic_fidelity(p, q), abs=1e-14
    )


@pytest.mark.parametrize(
    "key",
    [1.7, 1.0, True, np.True_, np.float64(1.0), "1"],
    ids=["float", "integral-float", "bool", "numpy-bool", "numpy-float", "str"],
)
def test_filter_rejects_non_integer_keys(key):
    with pytest.raises(ValueError, match="filter key .* is not an integer"):
        SectorFilter({0: 0.5, key: 0.5})


def test_filter_accepts_numpy_integer_keys():
    f = SectorFilter({np.int64(3): 0.5, np.int32(1): 1.0, 0: 0.25})
    assert f.coefficients == {3: 0.5, 1: 1.0, 0: 0.25}
    assert f == SectorFilter({0: 0.25, 1: 1.0, 3: 0.5}) and f != f.coefficients
    assert all(type(i) is int for i in f.coefficients)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_filter_rejects_non_finite_coefficient(bad):
    with pytest.raises(ValueError):
        SectorFilter({0: float(bad)})


# SectorFilter checks its common case (int keys, float or int values in
# [0, 1]) in C-level passes and sends the rest through ``_clean_each``;
# both must store the same dict, down to each value's type and sign, or
# raise the same exception type.
SPECIAL_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1e-12, 1.0 - 1e-12,
    1.0 + 1e-12, 1.0 + 2e-12, -2e-12, 0, 1, 2, -1, True, False,
    np.float64(0.5), np.float64(math.nan), np.float64(1.0 + 1e-12),
    np.float32(0.25), np.float32(-0.0), np.float32(1.5), np.float32(math.nan),
    np.int64(1), np.int64(0), np.int64(2), np.bool_(True),
]
SPECIAL_KEYS = [
    3, -1, np.int64(3), np.int32(3), True, False, 1.0, 2.5, np.float64(3.0), np.bool_(False),
]
FILTER_VALUES = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-11, 1.0 + 1e-11),
)
FILTER_KEYS = st.one_of(st.integers(-3, 20), st.sampled_from(SPECIAL_KEYS))
#: Coefficients that take the C-level check: int keys, values in [0, 1].
PLAIN_FILTERS = st.dictionaries(
    st.integers(-3, 20),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0, 1.0 - 1e-12])),
    max_size=8,
)


@st.composite
def filter_coefficients(draw):
    """A plain filter with up to two entries from the wider key and value sets."""
    coefficients = draw(PLAIN_FILTERS)
    for _ in range(draw(st.integers(0, 2))):
        coefficients[draw(FILTER_KEYS)] = draw(FILTER_VALUES)
    return coefficients


def _stored(coefficients):
    return [(k, type(k), repr(v), type(v)) for k, v in coefficients.items()]


def _outcome(build, coefficients):
    try:
        return _stored(build(coefficients))
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(filter_coefficients())
def test_filter_fast_check_matches_per_item_loop(coefficients):
    fast = _outcome(lambda c: SectorFilter(c).coefficients, coefficients)
    assert fast == _outcome(_clean_each, coefficients)


@pytest.mark.parametrize("key", SPECIAL_KEYS, ids=repr)
def test_filter_fast_check_matches_per_item_loop_on_each_special_value(key):
    # Every special key and value, whatever examples the installed
    # hypothesis version happens to draw.
    for value in SPECIAL_VALUES:
        for coefficients in ({key: value}, {0: 0.5, key: value}, {key: 0.5, 7: value}):
            fast = _outcome(lambda c: SectorFilter(c).coefficients, coefficients)
            assert fast == _outcome(_clean_each, coefficients), coefficients
