"""Exception hierarchy shared by every module in the package."""


class AtkinError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AtkinError):
    """Argument lies outside the mathematical domain of the operation."""


class NonConvergent(AtkinError):
    """A series or quadrature cannot meet its tolerance (bad
    preconditions, or the term or level cap was reached)."""


class DenominatorPole(DomainError):
    """A denominator Pochhammer symbol vanishes inside a terminating sum."""


class DenominatorNotInvertible(AtkinError):
    """A rational coefficient has a denominator divisible by the prime."""


class ParameterDegeneracy(DomainError):
    """Recurrence coefficients are undefined for these parameters."""


class ComplexBranch(DomainError):
    """A real square root was requested but the discriminant is negative."""


class InvalidPrime(DomainError):
    """The prime argument is composite or smaller than 5."""


class InternalInconsistency(AtkinError):
    """Two independent computations of the same quantity disagree."""
