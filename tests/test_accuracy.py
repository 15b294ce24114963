"""Accuracy of the curve columns against a 40-digit decimal reference.

``F_coarse`` and ``p_succ`` are compared with the merged filter's fidelity
and success probability, and ``Frontier.fidelity`` and the fidelity of
``Frontier.point`` with the optimal fidelity at the same success
probability, all recomputed in ``reference_routes`` from the profile
weights; the point's success probability is compared with the one
requested.  The ``amplify`` and ``correct`` columns are compared with
their closed forms evaluated from the parameters.  Each bound is the worst
relative error measured when its column was introduced, rounded up; a
change that moves a bit of any column must keep within it.
"""

from __future__ import annotations

import math
from decimal import Decimal

from hypothesis import given
from hypothesis import strategies as st

from epops.apps.amplification import amplification_tradeoff
from epops.apps.correction import correction_tradeoff, damped_profile, uniform_levels
from epops.coarse import tradeoff_curve
from epops.optimal import frontier
from epops.recursive import run_protocol
from epops.spectra import poisson_profile
from reference_routes import (
    assemble,
    decimal_amplification,
    decimal_correction,
    decimal_frontier,
    decimal_merged_filters,
)
from test_coarse import near_tie_pairs
from test_engine_reference import readme_pairs
from test_optimal_properties import PROPERTY_SETTINGS

#: Worst relative error of each column over the README pairs and the
#: 1600-sector damped pair, whose worst points sit past 1600-term prefix sums.
README_BOUNDS = {"F_coarse": 1.9e-14, "frontier": 1.9e-14,
                 "point.fidelity": 5.8e-16, "point.p_succ": 3.6e-16}
#: Worst relative error of each column over the property pairs.  Grouped
#: rounds can end a curve about 3e-12 above p(common); the point there
#: transmits the whole common spectrum and reports p(common).  Which pairs
#: are drawn depends on the constants of every loaded module, so the point
#: bounds take the worst over the whole suite and this file run alone.
PROPERTY_BOUNDS = {"F_coarse": 1.4e-15, "frontier": 1.2e-15,
                   "point.fidelity": 5.4e-16, "point.p_succ": 3.1e-12}

#: Success probabilities spread over (0, 1], besides each curve's own.
GRID = [j / 16 for j in range(1, 17)]


def _relative(values, exact):
    return [float(abs(Decimal(v) - e) / e) for v, e in zip(values, exact)]


def relative_errors(p, q, targets):
    """{column: relative errors}: F_coarse at every round of the curve;
    Frontier.fidelity, and the fidelity and success probability of
    Frontier.point, at each curve probability and each of ``targets``.
    A curve probability that passes 1 (grouped ratios can put it 5e-12
    above) is outside the frontier's domain and is skipped."""
    run, points = run_protocol(p, q, 10**6), tradeoff_curve(p, q, 10**6).points
    targets = [s for s in [*run.p_succ, *targets] if s <= 1.0]
    front, optimal = frontier(p, q), decimal_frontier(p, q, targets)
    optima = [front.point(s) for s in targets]
    return {
        "F_coarse": _relative((pt.F_coarse for pt in points),
                              [f for _, f in decimal_merged_filters(run)]),
        "frontier": _relative(map(front.fidelity, targets), optimal),
        "point.fidelity": _relative((o.fidelity for o in optima), optimal),
        "point.p_succ": _relative((o.p_succ for o in optima), map(Decimal, targets)),
    }


def readme_and_damped_pairs():
    return [*readme_pairs().values(), (damped_profile(1600, 0.9), uniform_levels(1600))]


def test_fidelity_columns_of_the_readme_pairs_against_a_decimal_reference():
    worst = dict.fromkeys(README_BOUNDS, 0.0)
    for p, q in readme_and_damped_pairs():
        for name, errors in relative_errors(p, q, GRID).items():
            worst[name] = max(worst[name], *errors)
    assert all(worst[name] <= bound for name, bound in README_BOUNDS.items()), worst


#: Worst relative error of the engine curve's p_succ against the merged
#: filter's p(U_T) + r_T q(rest), over the README pairs, the damped
#: 1600-sector pair (whose error is that of its 1600-term suffix sums of q)
#: and the seeded near-tie corpus.  The running sum of the round
#: probabilities that the column held before measured 9.4e-16, 1.88e-14 and
#: 4.1e-10 there.
P_SUCC_BOUNDS = {"readme": 7.2e-16, "damped": 1.9e-14, "near-tie": 3.9e-16}


def p_succ_errors(p, q):
    return _relative((pt.p_succ for pt in tradeoff_curve(p, q, 10**6).points),
                     [s for s, _ in decimal_merged_filters(run_protocol(p, q, 10**6))])


def test_curve_p_succ_against_a_decimal_reference():
    *readme, damped = readme_and_damped_pairs()
    corpora = {"readme": readme, "damped": [damped], "near-tie": near_tie_pairs()}
    worst = {name: max(e for p, q in pairs for e in p_succ_errors(p, q))
             for name, pairs in corpora.items()}
    assert all(worst[name] <= bound for name, bound in P_SUCC_BOUNDS.items()), worst


#: Small integers tie ratios exactly; e^x for x down to -700 spreads the
#: weights over 300 decades, and x near 0 gives ratios tied within the
#: grouping tolerance.
WEIGHTS = st.one_of(st.integers(1, 4).map(float), st.floats(-700.0, 0.0).map(math.exp))


@st.composite
def wide_pairs(draw):
    """(p, q, success probabilities): 2..40 common sectors, then up to two
    sectors of p alone and up to two of q alone, every weight kept."""
    n = draw(st.integers(2, 40))
    p_only, q_only = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pw = draw(st.lists(WEIGHTS, min_size=n + p_only, max_size=n + p_only))
    qw = draw(st.lists(WEIGHTS, min_size=n + q_only, max_size=n + q_only))
    q_sectors = [*range(n), *range(n + p_only, n + p_only + q_only)]
    p = assemble(list(enumerate(pw)))
    q = assemble(list(zip(q_sectors, qw)))
    return p, q, draw(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=4))


@PROPERTY_SETTINGS
@given(wide_pairs())
def test_fidelity_columns_of_property_pairs_against_a_decimal_reference(case):
    for name, errors in relative_errors(*case).items():
        assert max(errors, default=0.0) <= PROPERTY_BOUNDS[name], name


COLUMNS = ("p_succ", "F_recursive", "F_coarse")
#: Worst relative error of each closed-form app column over its cases.
#: The amplify p_succ error grows with the cutoff: row 1 is one exp of a
#: log near -258 at cutoff 320.
APP_BOUNDS = {
    "amplify": {"p_succ": 3.1e-14, "F_recursive": 3.8e-16, "F_coarse": 4.9e-16},
    "correct": {"p_succ": 1.4e-15, "F_recursive": 6.3e-16, "F_coarse": 8.8e-16},
}
APP_CASES = {
    "amplify": [(1.0, 1.5, 80), (1.0, 1.5, 175), (1.0, 1.5, 320), (0.5, 1.0, 30)],
    "correct": [(100, 0.9, 100), (6, 0.5, 6), (2_000_000, 0.999999, 64)],
}


def app_curve(app, case):
    """(the app's rows, their decimal reference) for one case."""
    if app == "amplify":
        r1, r2, cutoff = case
        return (amplification_tradeoff(r1, r2, cutoff, cutoff + 1).curve.points,
                decimal_amplification(r1, r2, cutoff))
    d, mu, rows = case
    return correction_tradeoff(d, mu, rows).sector_curve.points, decimal_correction(d, mu, rows)


def column_errors(points, reference):
    """{column: worst relative error of ``points`` against ``reference``}."""
    assert len(points) == len(reference)
    return {name: max(_relative((getattr(pt, name) for pt in points),
                                (row[i] for row in reference)))
            for i, name in enumerate(COLUMNS)}


def test_closed_form_app_columns_against_a_decimal_reference():
    for app, cases in APP_CASES.items():
        worst = dict.fromkeys(COLUMNS, 0.0)
        for case in cases:
            for name, error in column_errors(*app_curve(app, case)).items():
                worst[name] = max(worst[name], error)
        assert all(worst[name] <= APP_BOUNDS[app][name] for name in COLUMNS), (app, worst)


def test_closed_form_apps_are_within_twice_the_engine_error_on_the_readme_curves():
    engine_pairs = {"amplify": (poisson_profile(1.0, 80), poisson_profile(1.5, 80)),
                    "correct": (damped_profile(100, 0.9), uniform_levels(100))}
    for app, (p, q) in engine_pairs.items():
        points, reference = app_curve(app, APP_CASES[app][0])
        engine = tradeoff_curve(p, q, len(points)).points
        ours, theirs = column_errors(points, reference), column_errors(engine, reference)
        assert all(ours[name] <= 2.0 * theirs[name] for name in COLUMNS), (app, ours, theirs)
