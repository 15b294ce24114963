"""The package surface: lazy exports, read-only types, no bare asserts, no sampling."""

import ast
from pathlib import Path

import numpy as np
import pytest

import epops
import epops.apps
from epops.apps import amplification_tradeoff, correction_tradeoff, estimation_tradeoff
from epops.channels import SectorFilter
from epops.coarse import tradeoff_curve
from epops.mixedstate import (
    _alignment,
    is_block_positive,
    pure_block_density,
    purification_report,
    spin_sector_model,
    ultimate_mixed_probability,
)
from epops.optimal import optimal_tradeoff_point
from epops.oracle import hilbert_model, run_verification, simulate_protocol
from epops.recursive import run_protocol
from epops.spectra import ratio_table, sine_profile, uniform_profile


@pytest.mark.parametrize("package", [epops, epops.apps], ids=["epops", "epops.apps"])
def test_every_export_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listed


@pytest.mark.parametrize("package", [epops, epops.apps], ids=["epops", "epops.apps"])
def test_unknown_attribute_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def read_only_objects():
    """(object, one of its fields) for every record and value type."""
    p, q = uniform_profile(3), sine_profile(3)
    run = run_protocol(p, q, 4)
    amp = amplification_tradeoff(1.0, 1.5, 20, 21)
    corr = correction_tradeoff(6, 0.5, 6)
    model = hilbert_model({i: 1 for i in set(p.support) | set(q.support)})
    sim = simulate_protocol(model, p, q, 4, np.random.default_rng(0))
    report = run_verification(1, 1)
    rho = pure_block_density(p)
    purified = purification_report(3, 0.5)
    return [
        (p, "weights"), (ratio_table(p, q), "order"),
        (SectorFilter({0: 1.0}), "coefficients"), (run, "table"), (run.rounds[0], "k"),
        (amp, "curve"), (amp.audits[0], "floor"), (corr, "average_curve"),
        (tradeoff_curve(p, q, 4), "points"), (corr.average_curve.points[0], "p_succ"),
        (optimal_tradeoff_point(p, q, 0.5), "fidelity"),
        (estimation_tradeoff("maxcoh", 5, 2)[0], "gain_coarse"),
        (model, "dims"), (sim, "rounds"), (sim.rounds[0], "fidelity"),
        (report, "checks"), (report.checks[0], "passed"),
        (rho, "matrix"), (is_block_positive(rho), "certified"), (_alignment(rho, q), "matrix"),
        (ultimate_mixed_probability(rho, q), "value"), (spin_sector_model(3, 0.5)[0], "g"),
        (purified, "F_det"), (purified.sectors[0], "alignment"),
    ]


def test_fields_cannot_be_assigned():
    for obj, name in read_only_objects():
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        assert getattr(obj, name) is not None, type(obj).__name__


#: Iterator builders with no length hint: a tuple taken from one grows
#: by resizing, just as from a generator.
UNSIZED_ITERATORS = {"map", "filter", "zip", "enumerate", "starmap", "accumulate", "chain"}


def _unsized(arg) -> bool:
    if isinstance(arg, ast.GeneratorExp):
        return True
    if not isinstance(arg, ast.Call):
        return False
    # ``map(...)``, ``itertools.chain(...)`` and ``chain.from_iterable(...)``.
    func = arg.func.value if (
        isinstance(arg.func, ast.Attribute) and arg.func.attr == "from_iterable"
    ) else arg.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in UNSIZED_ITERATORS


def test_engine_builds_no_tuple_from_a_generator():
    # The reason is in the epops.spectra docstring: a tuple grown from a
    # generator, or from an iterator without a length hint, strands
    # resized tuples on the interpreter's free lists.
    root = Path(epops.__file__).parent
    engine = ("spectra", "channels", "recursive", "coarse", "optimal")
    paths = [root / f"{name}.py" for name in engine] + sorted((root / "apps").glob("*.py"))
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "tuple" and node.args and _unsized(node.args[0])
    ]
    assert not found, found


@pytest.mark.parametrize("source, flagged", [
    ("tuple(x for x in y)", True),
    ("tuple(map(f, y))", True),
    ("tuple(filter(None, y))", True),
    ("tuple(zip(a, b))", True),
    ("tuple(enumerate(y))", True),
    ("tuple(itertools.starmap(f, y))", True),
    ("tuple(accumulate(y))", True),
    ("tuple(chain(a, b))", True),
    ("tuple(chain.from_iterable(y))", True),
    ("tuple(list(map(f, y)))", False),
    ("tuple([x for x in y])", False),
    ("tuple(sorted(y))", False),
    ("tuple(y)", False),
])
def test_tuple_guard_flags_unsized_iterators(source, flagged):
    assert _unsized(ast.parse(source, mode="eval").body.args[0]) is flagged


def test_no_module_checks_with_assert():
    # ``python -O`` strips assert statements, so every check must raise.
    root = Path(epops.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found



def test_only_the_oracle_samples():
    # The library is exact; only ``epops verify`` draws random instances.
    root = Path(epops.__file__).parent
    draws = {"default_rng", "dirichlet", "normal"}

    def samples(node):
        if isinstance(node, ast.Call):
            return getattr(node.func, "attr", getattr(node.func, "id", None)) in draws
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            return False
        return any("random" in name.split(".") for name in names)

    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py")) if path.name != "oracle.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if samples(node)
    ]
    assert not found, found
