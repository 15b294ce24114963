"""Concrete conversion tasks built on the protocol engine."""

from __future__ import annotations

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    "amplification": "AmplificationResult amplification_tradeoff",
    "cloning": "cloning_tradeoff first_round_fidelity",
    "correction": "CorrectionResult correction_tradeoff haar_average_fidelity",
    "estimation": "GainPoint asymptotic_gain deterministic_gain estimation_profiles "
                  "estimation_tradeoff holevo_gain",
})
