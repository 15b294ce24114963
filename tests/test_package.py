"""The package surface: lazy exports, read-only types, no bare asserts, no sampling."""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

import epops
import epops.apps
from epops.apps import (
    amplification_tradeoff,
    asymptotic_gain,
    cloning_tradeoff,
    correction_tradeoff,
    estimation_tradeoff,
)
from epops.channels import SectorFilter
from epops.coarse import tradeoff_curve
from epops.mixedstate import (
    _alignment,
    is_block_positive,
    pure_block_density,
    purification_report,
    spin_multiplicities,
    spin_sector_model,
    ultimate_mixed_probability,
)
from epops.optimal import optimal_tradeoff_point
from epops.oracle import hilbert_model, run_verification, simulate_protocol
from epops.recursive import cumulative, run_protocol
from epops.spectra import (
    binomial_profile,
    poisson_profile,
    ratio_table,
    sine_profile,
    uniform_profile,
)
from reference_routes import coarse_filter


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


def _run():
    return run_protocol(uniform_profile(3), sine_profile(3), 4)


@pytest.mark.parametrize("call", [
    lambda: binomial_profile(2.5),
    lambda: uniform_profile(2.5),
    lambda: poisson_profile(1.0, 2.5),
    lambda: sine_profile("3"),
    lambda: cloning_tradeoff(2.0, 4, 3),
    lambda: correction_tradeoff(6.0, 0.5, 6),
    lambda: estimation_tradeoff("maxcoh", 5.0, 2),
    lambda: amplification_tradeoff(1.0, 1.5, 20.5, 21),
    lambda: cumulative(_run(), 1.0),
    lambda: binomial_profile(True),
    lambda: cloning_tradeoff(True, 3, 3),
    lambda: coarse_filter(_run(), True),
    lambda: purification_report(3.0, 0.8),
    lambda: purification_report(True, 0.8),
    lambda: spin_multiplicities(3.0),
    lambda: asymptotic_gain(61.5, 3),
    lambda: asymptotic_gain(61, 3.0),
], ids=["binomial", "uniform", "poisson-cutoff", "sine-string", "clone-n", "correct-d",
        "estimate-n", "amplify-cutoff", "cumulative-t", "binomial-bool", "clone-bool",
        "coarse-filter-bool", "purify-n", "purify-bool", "multiplicities-n",
        "asymptotic-n", "asymptotic-t"])
def test_integer_parameters_raise_value_error_naming_them(call):
    # Each used to raise a bare TypeError, or took the bool True as 1.
    with pytest.raises(ValueError, match=r"^\w+ ?\w*=.* is not an integer$"):
        call()


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
        (amp, "curve"), (corr, "average_curve"),
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


def test_value_types_survive_copy_and_pickle():
    # copy and pickle restore the fields through Frozen.__setstate__, a
    # ProtocolRun's cached rounds too, and the clone stays read-only.
    run = run_protocol(uniform_profile(3), sine_profile(3), 4)
    run.rounds
    for obj in (uniform_profile(5), SectorFilter({0: 1.0, 2: 0.25}), run):
        state = obj.__reduce_ex__(2)[2]
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is type(obj)
            assert clone.__reduce_ex__(2)[2] == state
            with pytest.raises(AttributeError):
                clone.support = None


ENGINE = ("spectra", "channels", "recursive", "coarse", "optimal")

#: Read by no module, but documented in the README, with the reason.
DOCUMENTED_UNREAD = {
    "EnergyProfile.to_json": "the writer of the ``tradeoff`` input format",
    "Frontier.fidelity": "the optimum at any p_succ in O(log n); the curve reads "
                         "the segment expression it shares, not the method",
}

#: Each engine method named like a member of another class, and a file
#: of the package or the benchmark that reads it as that method.
AMBIGUOUS_READERS = {
    "ProtocolRun.rounds": "src/epops/oracle.py",
}


def _functions(tree, module):
    """(qualified name, name, module, def line) of each module-level
    function and each non-dunder method or property in ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, module, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, module, item.lineno


def _engine_functions(root):
    """:func:`_functions` of the curve modules."""
    for module in ENGINE:
        yield from _functions(ast.parse((root / f"{module}.py").read_text()), module)


def _reads(tree, strings):
    """(name, enclosing defs, kind) of each variable (kind "name") or
    attribute ("attribute") read in ``tree``, and with ``strings`` of each
    string constant that is an identifier ("string")."""
    found = []

    def walk(node, defs):
        if isinstance(node, ast.FunctionDef):
            defs = defs | {node.lineno}
        if isinstance(node, ast.Name):
            found.append((node.id, defs, "name"))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, defs, "attribute"))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.value, defs, "string"))
        for child in ast.iter_child_nodes(node):
            walk(child, defs)

    walk(tree, frozenset())
    return found


def _unread(functions, sources):
    """The qualified names of ``functions`` that no read in ``sources``
    ((module, tree, strings) triples) reaches from outside their own def.
    A method is read only through an attribute or a string: a variable
    named like it, such as a local ``prefix``, does not read it."""
    reads = {}
    for module, tree, strings in sources:
        for name, defs, kind in _reads(tree, strings):
            reads.setdefault(name, []).append((module, defs, kind))
    return [
        qualified for qualified, name, module, line in functions
        if all((m == module and line in defs) or ("." in qualified and kind == "name")
               for m, defs, kind in reads.get(name, []))
    ]


def _class_members(tree, methods_only=False):
    """(class, name) of each non-dunder method or property of each class in
    ``tree`` and, unless ``methods_only``, of each annotated field (a
    ``NamedTuple`` field) and each keyword of an ``_init`` call in it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                yield node.name, item.name
            elif not methods_only and isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                yield node.name, item.target.id
        if not methods_only:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "_init":
                    yield from ((node.name, kw.arg) for kw in call.keywords if kw.arg)


def _ambiguous_methods(engine, package):
    """Qualified names of the methods in the ``engine`` trees whose name is
    also a member of another class in the ``package`` trees, so that a read
    of the name may be a read of that member."""
    owners = {}
    for tree in package:
        for cls, name in _class_members(tree):
            owners.setdefault(name, set()).add(cls)
    return {
        f"{cls}.{name}" for tree in engine for cls, name in _class_members(tree, True)
        if owners.get(name, set()) - {cls}
    }


def test_engine_has_no_test_only_functions():
    # Every function of the curve engine has a reader in the package or
    # the benchmark; a second route read only by tests lives in the tests.
    # Strings count only in perfbench, whose tracer names its targets;
    # the package's lazy export lists are strings too, and do not count.
    root = Path(epops.__file__).parent
    bench = Path(__file__).parents[1] / "perfbench"
    paths = [(path, False) for path in sorted(root.rglob("*.py"))]
    paths += [(path, True) for path in sorted(bench.glob("*.py"))]
    sources = [(path.stem if path.parent == root else None,
                ast.parse(path.read_text(), str(path)), strings) for path, strings in paths]
    unread = [qualified for qualified in _unread(_engine_functions(root), sources)
              if qualified not in DOCUMENTED_UNREAD]
    assert not unread, unread


PLANTED_TABLE = """
class Table:
    def prefix(self, k): ...
    def length(self): ...

def helper(): ...
"""

PLANTED_READER = """
def run(table, helper):
    prefix = table.length()
    return prefix, helper()
"""


def test_unread_scan_reads_a_method_only_through_an_attribute():
    # A local variable named like a method once passed a method no module read.
    engine = ast.parse(PLANTED_TABLE)
    sources = [("table", engine, False), ("reader", ast.parse(PLANTED_READER), False)]
    assert _unread(_functions(engine, "table"), sources) == ["Table.prefix"]


def test_engine_methods_named_like_another_member_name_their_reader():
    # The scan above counts any read of a name, so it passes Frontier.fidelity
    # on the reads of every ``.fidelity`` field.  A method that shares its
    # name with a method, field or ``_init`` keyword of another class must
    # name a file that reads it, or be documented as unread.
    repo = Path(__file__).parents[1]
    root = Path(epops.__file__).parent
    package = [ast.parse(path.read_text()) for path in sorted(root.rglob("*.py"))]
    engine = [ast.parse((root / f"{module}.py").read_text()) for module in ENGINE]
    ambiguous = _ambiguous_methods(engine, package)
    assert ambiguous - DOCUMENTED_UNREAD.keys() == AMBIGUOUS_READERS.keys(), ambiguous
    for qualified, path in AMBIGUOUS_READERS.items():
        reads = {name for name, _, kind in _reads(ast.parse((repo / path).read_text()), False)
                 if kind == "attribute"}
        assert qualified.split(".")[1] in reads, (qualified, path)
    readme = (repo / "README.md").read_text()
    for qualified in DOCUMENTED_UNREAD:
        assert "." + qualified.split(".")[1] in readme, qualified


PLANTED_PACKAGE = """
class Record(NamedTuple):
    weight: float

class Value(Frozen):
    def __init__(self, n):
        self._init(length=n)

    def point(self):
        return 0
"""

PLANTED_ENGINE = """
class Engine:
    def weight(self): ...
    def length(self): ...
    def point(self): ...
    def unique(self): ...
    def __len__(self): ...
"""


def test_ambiguity_scan_flags_members_of_other_classes():
    engine = ast.parse(PLANTED_ENGINE)
    package = [ast.parse(PLANTED_PACKAGE), engine]
    assert _ambiguous_methods([engine], package) == {
        "Engine.weight", "Engine.length", "Engine.point"}


#: Iterator builders with no length hint: a tuple taken from one grows
#: by resizing, just as from a generator.
UNSIZED_ITERATORS = {"map", "filter", "zip", "enumerate", "starmap", "accumulate", "chain",
                     "islice"}


def _generators(trees) -> set:
    """Names of the functions in ``trees`` that yield: each call of one is a generator."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))}


def _tuple_builds(tree, generators=frozenset()):
    """Each call in ``tree`` that builds a tuple from an unsized iterable:
    ``tuple(x)``, or ``f(*x)``, whose lone starred argument becomes the
    argument tuple (``f(a, *x)`` gathers its arguments in a list first)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or len(node.args) != 1:
            continue
        (arg,) = node.args
        if isinstance(arg, ast.Starred):
            source = arg.value
        elif isinstance(node.func, ast.Name) and node.func.id == "tuple":
            source = arg
        else:
            continue
        if _unsized(source, generators):
            yield node


def _unsized(arg, generators=frozenset()) -> bool:
    if isinstance(arg, ast.GeneratorExp):
        return True
    if not isinstance(arg, ast.Call):
        return False
    # ``map(...)``, ``itertools.chain(...)`` and ``chain.from_iterable(...)``.
    func = arg.func.value if (
        isinstance(arg.func, ast.Attribute) and arg.func.attr == "from_iterable"
    ) else arg.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in UNSIZED_ITERATORS or name in generators


def test_engine_builds_no_tuple_from_a_generator():
    # The reason is in the epops.spectra docstring: a tuple grown from a
    # generator, or from an iterator without a length hint, strands
    # resized tuples on the interpreter's free lists.
    root = Path(epops.__file__).parent
    engine = ("spectra", "channels", "recursive", "coarse", "optimal")
    paths = [root / f"{name}.py" for name in engine] + sorted((root / "apps").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    generators = _generators(trees.values())
    assert {"_ratio_groups", "_poisson_groups"} <= generators
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path, tree in trees.items() for node in _tuple_builds(tree, generators)]
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
    ("tuple(islice(y, 3))", True),
    ("tuple(list(map(f, y)))", False),
    ("tuple([x for x in y])", False),
    ("tuple(sorted(y))", False),
    ("tuple(y)", False),
])
def test_tuple_guard_flags_unsized_iterators(source, flagged):
    assert _unsized(ast.parse(source, mode="eval").body.args[0]) is flagged


def test_tuple_guard_flags_starred_generators():
    # A starred argument is packed into a tuple, grown from a generator
    # just as tuple(...) is.
    tree = ast.parse("def g():\n    yield 1\n"
                     "zip(*g())\nzip(*list(g()))\nzip(*islice(y, 2))\nf(*rows)\n"
                     "tuple(g())\nf(a, *g())\n")
    assert [node.lineno for node in _tuple_builds(tree, _generators([tree]))] == [3, 5, 7]


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
