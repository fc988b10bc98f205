"""Exception hierarchy shared across the package."""


class ContestError(Exception):
    """Base class for every error raised by contestlab."""


class ArgumentError(ContestError, ValueError):
    """An input violates an operation's contract (shape, range, consistency)."""


class DomainError(ArgumentError):
    """A value lies outside the mathematical domain of the operation."""


class CapabilityError(ContestError):
    """The operation needs structure the environment does not have.

    Raised by closed-form routines that require a parametric (or linear
    parametric) type-space when handed a mixed or tabulated one; the caller
    should fall back to the general-purpose numeric path instead.
    """


class NumericError(ContestError, ArithmeticError):
    """An iterative numeric procedure failed to produce a usable result."""

