"""Optimal energy-preserving operations on pure-state sector profiles.

Everything a zero-energy-cost channel can do to a pure state is decided by
two weight profiles over energy sectors: the input's and the target's.
This package computes the reachable fidelity-probability region for such
conversions, the filters that attain its boundary, the recursive protocol
that sweeps it, and mixed-state generalizations, together with an
independent Hilbert-space oracle for cross-checking everything on small
dimensions.
"""

from __future__ import annotations

from importlib import import_module


def _lazy_exports(namespace: dict, modules: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the package ``namespace``,
    and its export names sorted, for ``__all__``.

    ``modules`` maps each submodule to the public names it defines, as one
    space-separated string.  A name resolves by importing its submodule on
    first access and then stays in the package namespace, so importing the
    package itself loads no submodule.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in modules.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module("." + exports[name], package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__, sorted(exports)


__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    "channels": "SectorFilter deterministic_fidelity filter_fidelity "
                "filter_success_probability",
    "coarse": "CurvePoint TradeoffCurve tradeoff_curve",
    "errors": "EpopsError",
    "optimal": "TradeoffPoint optimal_tradeoff_point ultimate_optimum",
    "recursive": "ProtocolRound ProtocolRun cumulative run_protocol",
    "spectra": "EnergyProfile RatioTable binomial_profile build_profile "
               "common_support poisson_profile ratio_table sine_profile uniform_profile",
})

__version__ = "0.1.0"
__all__.append("__version__")
