"""Exception types shared across the library.

Everything derives from ``GrussBoundsError`` (a ``ValueError``), so callers
who do not care about the distinction can catch one class.
"""

from __future__ import annotations


class GrussBoundsError(ValueError):
    """Base class for all library errors."""


class ContractViolationError(GrussBoundsError):
    """An operation was called with inputs outside its contract."""


class DimensionMismatchError(ContractViolationError):
    """Inputs do not conform to a common space, length or shape."""


class DegenerateInputError(GrussBoundsError):
    """Degenerate input: constant sequence, single point, or lo == hi."""


class EnclosureFitError(GrussBoundsError):
    """A fitted enclosure could not be validated within the inflation budget."""


class GradientCheckError(GrussBoundsError):
    """An oracle's gradient disagrees with central differences of its values."""


class HypothesisError(GrussBoundsError):
    """A ball/box/disc hypothesis required by a bound does not hold.

    Carries the offending :class:`~grussbounds.conditions.ConditionReport`.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SoundnessError(GrussBoundsError):
    """A certified inequality was numerically violated.

    Raised by the sharpness search when a candidate produces a ratio above
    1 + 1e-9, which would mean either the inequality is false or the
    implementation is buggy. Carries the offending input as ``witness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InstanceFormatError(GrussBoundsError):
    """An instance document is malformed; the message names the bad field."""
