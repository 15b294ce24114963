"""Exception types raised by the epops modules.

Every error is a subclass of :class:`EpopsError`, so callers can catch the
whole family at once.  The CLI maps these onto exit code 3 (infeasible
parameters), except :class:`ConsistencyError`, which exits with code 4;
argument-parsing problems exit with code 2.
"""


class EpopsError(Exception):
    """Base class for all epops errors."""


class AllZeroWeights(EpopsError):
    """Every supplied weight is zero (or below the zero threshold)."""


class DuplicateLabel(EpopsError):
    """The same sector index appears more than once."""


class NegativeWeight(EpopsError):
    """A weight is negative beyond numerical noise."""


class NonFiniteWeight(EpopsError):
    """A weight is NaN or infinite."""


class RatioOverflow(EpopsError):
    """A weight ratio p_E/q_E leaves the double range."""


class ConsistencyError(EpopsError):
    """Two routes to one quantity disagree by more than ``tolerance``."""

    def __init__(self, quantity: str, first, second, tolerance) -> None:
        super().__init__(f"{quantity}: {first!r} vs {second!r}, tolerance {tolerance}")
        self.first, self.second, self.tolerance = first, second, tolerance


class DisjointSpectra(EpopsError):
    """Input and target share no energy sector."""


class ZeroSuccessProbability(EpopsError):
    """A filter transmits nothing of the input state."""


class NotTraceNonIncreasing(EpopsError):
    """A Kraus set increases the trace of some state."""


class InfeasibleProbability(EpopsError):
    """No valid filter coefficients reach the requested success probability."""


class NoFeasiblePartition(EpopsError):
    """No partition of the common spectrum admits the requested probability."""


class SpectrumTooLarge(EpopsError):
    """The spectrum exceeds the cap of an exhaustive search."""


class RoundOutOfRange(EpopsError):
    """A round index lies outside the produced protocol rounds."""


class DimensionMismatch(EpopsError):
    """Explicit-matrix model dimensions do not match the profiles."""


class NotNormalized(EpopsError):
    """An amplitude vector is not normalized."""


class ParityMismatch(EpopsError):
    """Copy numbers differ by an odd amount."""


class CutoffTooSmall(EpopsError):
    """A truncation cutoff is too small for the requested amplitude."""


class NotBlockPositive(EpopsError):
    """Block positivity was not certified for the given state."""


class NotOdd(EpopsError):
    """An odd qubit count is required."""


class TooLarge(EpopsError):
    """A size parameter exceeds the supported range."""


class BelowDoubleRange(EpopsError):
    """A curve row's success probability lies below the normal double range."""
