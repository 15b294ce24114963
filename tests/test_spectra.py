"""Profile construction, serialization, and ratio grouping."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epops import spectra
from epops.errors import (
    AllZeroWeights,
    DisjointSpectra,
    DuplicateLabel,
    NegativeWeight,
    NonFiniteWeight,
    RatioOverflow,
)
from epops.apps.correction import damped_profile, uniform_levels
from epops.coarse import tradeoff_curve
from epops.optimal import optimal_tradeoff_point, ultimate_optimum
from epops.spectra import (
    EnergyProfile,
    _binomial_weight,
    _log_factorials,
    binomial_profile,
    build_profile,
    common_support,
    poisson_profile,
    ratio_table,
    sine_profile,
    uniform_profile,
)
from reference_routes import assemble, prefix

SRC = Path(__file__).resolve().parents[1] / "src"


def test_build_profile_normalizes_and_sorts():
    p = build_profile([(2, 2.0, 2.0), (0, 0.0, 1.0), (1, 1.0, 1.0)])
    assert p.support == (0, 1, 2)
    assert p.weight(2) == pytest.approx(0.5)
    assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-15)


def test_build_profile_drops_zero_weights():
    p = build_profile([(0, 0.0, 0.7), (1, 1.0, 0.0), (2, 2.0, 0.3)])
    assert p.support == (0, 2)
    assert p.weight(1) == 0.0


@pytest.mark.parametrize("r, cutoff, kept", [(30.0, 1000, range(38, 1001)),
                                             (5.0, 1000, range(0, 403))])
def test_poisson_weight_that_normalizes_to_zero_is_dropped(r, cutoff, kept):
    # Sector 37 (r = 30) and sector 403 (r = 5) have subnormal weights
    # before normalization, which round to 0.0 once divided by the total;
    # they are dropped like the exact zeros beyond them.
    p = poisson_profile(r, cutoff)
    assert p.support == tuple(kept)
    assert all(w > 0.0 for w in p.weights)
    assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)


def test_build_profile_keeps_small_normal_weights():
    weights = [1e-14, 2e-15, 3.0e-10, 1.0]
    p = build_profile([(i, float(i), w) for i, w in enumerate(weights)])
    assert p.support == (0, 1, 2, 3)
    assert p.weights == tuple(w / math.fsum(weights) for w in weights)


def test_build_profile_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        build_profile([(0, 0.0, 0.5), (0, 0.0, 0.5)])


def test_build_profile_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        build_profile([(0, 0.0, 0.5), (1, 1.0, -0.1)])


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="1e400-integer")]
)
def test_build_profile_rejects_non_finite_weight(bad):
    with pytest.raises(NonFiniteWeight):
        build_profile([(0, 0.0, 0.5), (1, 1.0, bad)])


@pytest.mark.parametrize("value, weight, message", [
    ("1.5", 0.5, "energy value '1.5'"), (1.5, "0.5", "weight '0.5'"),
    (True, 0.5, "energy value True"), (1.5, True, "weight True"),
    (None, 0.5, "energy value None"), (1.5, None, "weight None"),
], ids=["string-value", "string-weight", "bool-value", "bool-weight", "none-value",
        "none-weight"])
def test_build_profile_rejects_value_or_weight_that_is_not_a_number(value, weight, message):
    # A string or bool used to be converted by float(), and None raised a bare TypeError.
    with pytest.raises(ValueError, match=re.escape(f"{message} at sector 1 is not a number")):
        build_profile([(0, 0.0, 0.5), (1, value, weight)])


def test_build_profile_admits_int_float_and_numpy_numbers():
    p = build_profile([(0, 0, 1), (1, np.float64(1.0), np.int64(1)), (2, np.int32(2), 2.0)])
    assert p == build_profile([(0, 0.0, 0.25), (1, 1.0, 0.25), (2, 2.0, 0.5)])


def test_build_profile_of_plain_numbers_does_not_import_numbers():
    # The CLI's JSON loader feeds it ints and floats; ``numbers`` is for the rest.
    code = ("import sys; from epops.spectra import build_profile; "
            "build_profile([(0, 0, 1), (1, 1.5, 0.5)]); print('numbers' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "1e400-integer"],
)
def test_from_json_rejects_non_finite_weight(bad):
    text = '{"energies": [{"index": 0, "weight": 0.5}, {"index": 1, "weight": %s}]}' % bad
    with pytest.raises(NonFiniteWeight):
        EnergyProfile.from_json(text)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="1e400-integer")]
)
def test_build_profile_rejects_non_finite_energy_value(bad):
    with pytest.raises(ValueError, match="energy value .* at sector 1 is not finite"):
        build_profile([(0, 0.0, 0.5), (1, bad, 0.5)])


@pytest.mark.parametrize(
    "bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "1e400-integer"],
)
def test_from_json_rejects_non_finite_energy_value(bad):
    text = '{"energies": [{"index": 0, "weight": 0.5}, {"index": 1, "value": %s, "weight": 0.5}]}' % bad
    with pytest.raises(ValueError, match="at sector 1 is not finite"):
        EnergyProfile.from_json(text)


@pytest.mark.parametrize("bad", ["1.5", "true", "\"1\"", "null"])
def test_from_json_rejects_non_integer_index(bad):
    text = '{"energies": [{"index": 0, "weight": 0.5}, {"index": %s, "weight": 0.5}]}' % bad
    with pytest.raises(ValueError, match="not an integer") as info:
        EnergyProfile.from_json(text)
    assert "'weight': 0.5" in str(info.value)


@pytest.mark.parametrize("key", ["weight", "value"])
@pytest.mark.parametrize("bad", ["true", "false", "\"0.5\"", "null"])
def test_from_json_rejects_non_number_weight_and_value(key, bad):
    entry = {"index": 1, "weight": 0.5}
    entry[key] = json.loads(bad)
    text = json.dumps({"energies": [{"index": 0, "weight": 0.5}, entry]})
    with pytest.raises(ValueError, match=f"{key} in entry .* is not a number") as info:
        EnergyProfile.from_json(text)
    assert "'index': 1" in str(info.value)


def test_from_json_accepts_integer_weight_and_value():
    text = '{"energies": [{"index": 0, "value": 2, "weight": 1}, {"index": 1, "weight": 3}]}'
    p = EnergyProfile.from_json(text)
    assert p.weight(0) == 0.25 and p.weight(1) == 0.75


@pytest.mark.parametrize("r", [math.nan, math.inf, -0.5])
def test_poisson_profile_rejects_bad_amplitude(r):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        poisson_profile(r, 10)


@pytest.mark.parametrize("call, message", [
    (lambda: binomial_profile(0), "N must be a positive integer"),
    (lambda: uniform_profile(0), "N must be a positive integer"),
    (lambda: sine_profile(-1), "N must be a positive integer"),
    (lambda: poisson_profile(1.0, -1), "cutoff must be nonnegative"),
], ids=["binomial", "uniform", "sine", "poisson"])
def test_stock_builders_refuse_an_empty_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_support_and_labels_are_built_once():
    p = build_profile([(0, 0.0, 0.25), (3, 1.5, 0.75)])
    assert p.support is p.support
    assert p.support == (0, 3)


def test_labels_and_profiles_carry_no_instance_dict():
    # Slots keep a held profile at two tuples and a dict: an energy value
    # of outside input is checked and not stored.
    p = build_profile([(0, 0.0, 0.25), (3, 1.5, 0.75)])
    assert not hasattr(p, "__dict__") and not hasattr(p, "values")
    assert type(p.support) is type(p.weights) is tuple
    assert len(p) == 2
    assert isinstance(EnergyProfile.__dict__["from_json"], classmethod)


def test_profiles_compare_and_hash_by_support_and_weights():
    p = build_profile([(0, 0.0, 0.25), (3, 1.5, 0.75)])
    # An energy value of outside input is never stored: the index is the identity.
    relabeled = build_profile([(0, 7.0, 0.25), (3, -2.0, 0.75)])
    for same in (EnergyProfile.from_json(p.to_json()), relabeled):
        assert p == same and hash(p) == hash(same)
    assert p != build_profile([(0, 0.0, 0.5), (3, 1.5, 0.5)])
    assert p != build_profile([(0, 0.0, 0.25), (2, 1.5, 0.75)])
    assert p != (p.support, p.weights)
    assert repr(p) == "EnergyProfile(support=(0, 3), weights=(0.25, 0.75))"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profile_constructor_rejects_non_finite_weight(bad):
    # A NaN total fails every comparison, so the sum check alone let it in.
    with pytest.raises(NonFiniteWeight):
        EnergyProfile((0, 1), (1.0, bad))


def test_weights_summing_past_double_range_raise_non_finite_weight():
    with pytest.raises(NonFiniteWeight, match="past the double range"):
        build_profile([(0, 0.0, 1e308), (1, 1.0, 1e308)])
    with pytest.raises(NonFiniteWeight, match="past the double range"):
        EnergyProfile((0, 1), (1e308, 1e308))


def test_profile_constructor_rejects_zero_weight():
    # A zero weight divides by zero in the ratio sort, as p_E/q_E or q_E/p_E.
    with pytest.raises(ValueError, match="sector 0 has weight zero"):
        EnergyProfile((0, 1), (0.0, 1.0))


@pytest.mark.parametrize("weights, error, message", [
    ((-0.5, 1.5), NegativeWeight, "nonnegative"),
    ((2, -1), NegativeWeight, "nonnegative"),
    ((np.int64(2), np.int64(-1)), NegativeWeight, "nonnegative"),
    ((np.float64(-0.5), 1.5), NegativeWeight, "nonnegative"),
    ((1.0, -0.0), ValueError, "sector 1 has weight zero"),
    ((1.0, math.nan), NonFiniteWeight, "sum to nan"),
    ((0.5, 0.5 + 2e-12), ValueError, "expected 1 within 1e-12"),
], ids=["float", "int", "numpy-int", "numpy-float", "negative-zero", "nan", "unnormalized"])
def test_profile_constructor_sign_check(weights, error, message):
    # -0.0 is not below zero: it is refused as a zero weight, as NaN is as
    # a non-finite total; a sum off 1 by more than 1e-12 is refused too.
    with pytest.raises(error, match=message):
        EnergyProfile((0, 1), weights)


@pytest.mark.parametrize("weight", [1, np.int64(1), np.float64(1.0)],
                         ids=["int", "numpy-int", "numpy-float"])
def test_profile_constructor_admits_int_and_numpy_weights(weight):
    assert EnergyProfile((0,), (weight,)).weights == (weight,)


@pytest.mark.parametrize("support", [(1, 0), (0, 0), (0, 2, 1)])
def test_profile_constructor_refuses_indices_not_strictly_increasing(support):
    weights = [1.0 / len(support)] * len(support)
    with pytest.raises(DuplicateLabel, match="strictly increasing"):
        EnergyProfile(support, weights)


@pytest.mark.parametrize("index", [0.5, 2.0, True, "0", np.float64(1.0)],
                         ids=["float", "integral-float", "bool", "string", "numpy-float"])
def test_profile_rejects_non_integer_index(index):
    with pytest.raises(ValueError, match=re.escape(f"sector index {index!r} is not an integer")):
        EnergyProfile((index, 5), (0.5, 0.5))


@pytest.mark.parametrize("index", [0.5, True, "0", None, pytest.param([1], id="list")])
def test_build_profile_rejects_non_integer_index(index):
    # 0.5 used to build a curve whose optimum then rejected its filter key;
    # sorting "0" or None against 5, or hashing [1], raised a bare TypeError.
    with pytest.raises(ValueError, match=re.escape(f"sector index {index!r} is not an integer")):
        build_profile([(index, 0.0, 1.0), (5, 1.0, 1.0)])


def test_profile_converts_numpy_integer_indices():
    p = EnergyProfile((np.int64(0), np.int32(3)), (0.25, 0.75))
    assert p.support == (0, 3) and all(type(i) is int for i in p.support)
    assert p == build_profile([(0, 0.0, 0.25), (3, 1.0, 0.75)])


def test_ratio_past_double_range_raises_ratio_overflow():
    # 0.5 / 5e-324 is infinite; the curve used to print a row of inf and nan.
    p = EnergyProfile((0, 1), (0.5, 0.5))
    q = EnergyProfile((0, 1), (5e-324, 1.0))
    for call in (lambda: tradeoff_curve(p, q, 4), lambda: ultimate_optimum(p, q),
                 lambda: optimal_tradeoff_point(p, q, 0.5), lambda: ratio_table(p, q)):
        with pytest.raises(RatioOverflow, match="sector 0"):
            call()


@pytest.mark.parametrize("columns", [
    ((0, 3), (1.0,)),
    ((0,), (0.25, 0.75)),
    ((0, 1, 2), (0.5, 0.5)),
])
def test_profile_rejects_columns_of_unequal_length(columns):
    with pytest.raises(ValueError, match="equal length"):
        EnergyProfile(*columns)


def test_build_profile_rejects_all_zero():
    with pytest.raises(AllZeroWeights):
        build_profile([(0, 0.0, 0.0), (1, 1.0, 0.0)])


def test_weight_of_absent_sector_is_zero():
    p = build_profile([(0, 0.0, 1.0)])
    assert p.weight(7) == 0.0


# A profile stores no energy values, so only outside input carries one:
# build_profile checks each, numpy scalars and complex numbers too.
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                 pytest.param(10**400, id="1e400-integer")])
def test_profile_rejects_non_finite_energy_value(bad):
    with pytest.raises(ValueError, match="energy value .* at sector 1 is not finite"):
        build_profile([(0, 0.0, 0.5), (1, bad, 0.5)])


@pytest.mark.parametrize("bad", ["a", None, True, np.bool_(True), 1j])
def test_profile_rejects_energy_value_that_is_not_a_number(bad):
    with pytest.raises(ValueError, match=re.escape(f"energy value {bad!r} at sector 1 is not a number")):
        build_profile([(0, 0.0, 0.5), (1, bad, 0.5)])


@pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(True), 0.5j])
def test_profile_rejects_weight_that_is_not_a_number(bad):
    with pytest.raises(ValueError, match=re.escape(f"weight {bad!r} at sector 1 is not a number")):
        EnergyProfile((0, 1), (0.5, bad))


@pytest.mark.parametrize("weights", [(1,), (np.int64(1),), (np.float64(0.25), np.float32(0.75))],
                         ids=["int", "numpy-int", "numpy-float"])
def test_profile_converts_int_and_numpy_weights_to_float(weights):
    p = EnergyProfile(range(len(weights)), weights)
    assert p.weights == tuple(map(float, weights))
    assert all(type(w) is float for w in p.weights)


@pytest.mark.parametrize("profile", [
    uniform_profile(61), sine_profile(60), binomial_profile(40), poisson_profile(1.5, 20),
    poisson_profile(0.0, 3), damped_profile(100, 0.9), uniform_levels(25),
    EnergyProfile(range(3), np.array([0.25, 0.5, 0.25])),
    EnergyProfile(np.arange(2, dtype=np.int64), (0.25, 0.75)),
], ids=["uniform", "sine", "binomial", "poisson", "poisson-r0", "damped", "levels",
        "numpy-float", "numpy-int"])
def test_profile_json_round_trip_is_exact(profile):
    text = profile.to_json()
    assert all(e.keys() == {"index", "weight"} for e in json.loads(text)["energies"])
    assert EnergyProfile.from_json(text) == profile


def test_poisson_profile_whose_amplitude_squared_overflows_raises_non_finite_weight():
    # r^2 = inf makes every log-weight -inf, so every weight is NaN.
    with pytest.raises(NonFiniteWeight):
        poisson_profile(1e155, 5)


def _reference_poisson(r, cutoff):
    if r == 0.0:
        return assemble([(0, 1.0)])
    log_r = math.log(r)
    logw = [-r * r + 2.0 * n * log_r - lf for n, lf in enumerate(_log_factorials(cutoff))]
    top = max(logw)
    return assemble((n, math.exp(lw - top)) for n, lw in enumerate(logw))


def _reference_sine(N):
    scale = 2.0 / (N + 1)
    amps = ((n, math.sin(n * math.pi / (N + 1))) for n in range(1, N + 1))
    return assemble((n, scale * a * a) for n, a in amps)


def _reference_damped(d, mu):
    norm = (1.0 - mu) / (1.0 - mu**d)
    return assemble((n, norm * mu ** (n - 1)) for n in range(1, d + 1))


#: Each stock builder and its weights, one (index, weight) pair per sector,
#: for the generic route; the sizes reach the zero and underflowing
#: tails (binomial from N = 1075, whose walk stops short of both ends at
#: 100000 and 100001; Poisson at cutoff 320, damped at d = 25600).
REFERENCE_BUILDERS = {
    "binomial": (binomial_profile, lambda N: assemble(
        (m, _binomial_weight(N)((N - m) // 2)) for m in range(-N, N + 1, 2)),
        [1, 2, 61, 400, 1075, 5000, 100_000, 100_001]),
    "poisson": (poisson_profile, _reference_poisson,
                [(0, 5), (1, 175), (1, 320), (1.5, 1280), (30, 1000), (5, 1000)]),
    "uniform": (uniform_profile, lambda N: assemble(
        (n, 1.0 / N) for n in range(N)), [1, 2, 61, 10**4]),
    "sine": (sine_profile, _reference_sine, [1, 2, 61, 10**4]),
    "damped": (damped_profile, _reference_damped, [(100, 0.9), (25600, 0.9), (2000, 1e-300)]),
    "levels": (uniform_levels, lambda d: assemble(
        (n, 1.0 / d) for n in range(1, d + 1)), [2, 25600]),
}


@pytest.mark.parametrize("name, args", [
    pytest.param(name, args, id="-".join(map(str, (name, *args))))
    for name, (_, _, sizes) in REFERENCE_BUILDERS.items()
    for args in (size if isinstance(size, tuple) else (size,) for size in sizes)
])
def test_stock_builder_equals_the_generic_route(name, args):
    builder, reference, _ = REFERENCE_BUILDERS[name]
    p, ref = builder(*args), reference(*args)
    assert p.support == ref.support
    assert p.weights == ref.weights


def test_reference_builder_grid_reaches_dropped_tails():
    assert len(binomial_profile(1075)) < 1076 and len(binomial_profile(5000)) < 5001
    assert _binomial_weight(100_000)(0) == _binomial_weight(100_001)(100_001) == 0.0
    assert len(poisson_profile(1, 320)) < 321 and len(damped_profile(25600, 0.9)) < 25600
    assert len(damped_profile(2000, 1e-300)) == 2


def test_json_round_trip():
    p = build_profile([(0, 0.5, 0.25), (3, 1.5, 0.75)])
    doc = json.loads(p.to_json())
    assert [e["index"] for e in doc["energies"]] == [0, 3]
    again = EnergyProfile.from_json(p.to_json())
    assert again.support == p.support and again.weights == pytest.approx(p.weights)


def test_ratio_table_two_sectors():
    p = build_profile([(0, 0.0, 0.5), (1, 1.0, 0.5)])
    q = build_profile([(0, 0.0, 1 / 3), (1, 1.0, 2 / 3)])
    t = ratio_table(p, q)
    assert t.ratios == pytest.approx((0.75, 1.5))
    assert t.order == (1, 0) and t.ends == (1, 2)
    assert t.length == 2
    assert prefix(t, 0) == ()
    assert prefix(t, 1) == (1,)
    assert sorted(prefix(t, 2)) == [0, 1]


def test_ratio_table_groups_equal_ratios():
    # Symmetric binomial profiles give bitwise-equal ratios at +-m.
    t = ratio_table(binomial_profile(2), binomial_profile(4))
    assert t.length == 2
    assert sorted(prefix(t, 1)) == [-2, 2]
    assert t.order[t.ends[0]:] == (0,)
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
        assert sorted(prefix(t, t.length)) == list(common_support(p, q))
        assert sorted(t.order) == list(common_support(p, q))


def test_binomial_profile_small():
    p = binomial_profile(2)
    assert p.support == (-2, 0, 2)
    assert p.weight(-2) == pytest.approx(0.25)
    assert p.weight(0) == pytest.approx(0.5)


def test_binomial_profile_computes_no_underflowing_tail(monkeypatch):
    # One weight past the run on each side, where the walk stops at 0.0.
    calls = []

    def counted(N):
        weight = _binomial_weight(N)
        return lambda k: calls.append(k) or weight(k)

    monkeypatch.setattr(spectra, "_binomial_weight", counted)
    p = binomial_profile(10**6)
    assert len(calls) <= len(p) + 2 < 10**5


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
    assert p.support == (0,) and p.weights == (1.0,)


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
    assert math.fsum(q.weights) == pytest.approx(1.0, abs=1e-12)
