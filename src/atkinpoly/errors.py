"""Exception hierarchy shared by every module in the package: one class
per failure kind, each with its own exit code in the CLI."""


class AtkinError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AtkinError):
    """Exit 1: the quantity is undefined at the arguments (a pole, a
    composite prime, a negative discriminant, a value past the range of a
    double), or an argument lies outside the range the operation takes."""


class NonConvergent(AtkinError):
    """Exit 2: the quantity exists, but the method cannot reach it (a
    series or quadrature cap, an argument the formula does not cover)."""


class InternalInconsistency(AtkinError):
    """Exit 2: two independent computations of the same quantity disagree."""
