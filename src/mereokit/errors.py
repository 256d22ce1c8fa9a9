"""Exception types shared across the toolkit."""


class MereokitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(MereokitError, ValueError):
    """Operands have incompatible shapes or factor dimensions."""


class InvariantViolation(MereokitError, ValueError):
    """A checked algebraic invariant fails at construction."""


class HypothesisViolation(MereokitError, ValueError):
    """A spectral precondition of the fingerprint construction fails.

    ``reason`` is one of ``"degenerate_spectrum"`` (eigenvalue gap below
    threshold) or ``"zero_projection"`` (the state has a vanishing
    component on some eigenvector).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class NoWitnessError(MereokitError):
    """The two structures are not on the same orbit; no unitary maps one to the other."""


class ScaleOutOfRange(MereokitError, ArithmeticError):
    """An operator's spectrum, or its nonzero weight masses, overflow, all underflow or fall subnormal in float64."""


class ObjectiveUndefined(MereokitError, ValueError):
    """The locality objective is undefined (operator proportional to the identity)."""


class IncomparableFingerprints(MereokitError, ValueError):
    """Fingerprints of different shapes (probe counts or sites) cannot be compared."""
