"""Exception types shared across the package."""


class DimfactorError(Exception):
    """Base class for all package-specific errors."""


class InvalidWeightError(DimfactorError, ValueError):
    """The weight is odd or below 2."""


class DomainError(DimfactorError, ValueError):
    """Input outside the mathematical domain of the requested quantity."""


class InternalInconsistencyError(DimfactorError, ArithmeticError):
    """An identity that must hold for correct inputs failed; signals a bug
    or an impossible (lying-oracle) input combination."""


class InconsistentInputsError(DimfactorError, ValueError):
    """Supplied invariant values cannot all be true for any integer."""


class FactoringFailureError(DimfactorError, RuntimeError):
    """A probabilistic reduction ran out of split rounds or its inputs
    were provably wrong (e.g. the exponent passed as a totient multiple
    is not one)."""
