"""Exception hierarchy shared by all quadform modules."""


class QuadformError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(QuadformError, ValueError):
    """An argument violates a documented precondition."""


class DivisionByZero(QuadformError, ZeroDivisionError):
    """Exact division by zero."""


class NotIrrational(QuadformError, ValueError):
    """A construction that must produce an irrational value got q = 0."""


class InvalidDiscriminant(QuadformError, ValueError):
    """Discriminant is not a positive nonsquare integer."""


class DiscriminantMismatch(QuadformError, ValueError):
    """Two values with different discriminants were combined."""


class NotUnimodular(QuadformError, ValueError):
    """Integer 2x2 matrix whose determinant is not +1 or -1."""


class NotAFormRoot(QuadformError, ValueError):
    """Quadratic irrational is not the root of any integer form."""


class ComposeMismatch(QuadformError, ValueError):
    """Morphisms composed with incompatible endpoints."""


class ZeroTarget(QuadformError, ValueError):
    """Representation target m = 0 is out of scope."""


class NotDivisible(QuadformError, ValueError):
    """Expected exact integer divisibility failed."""


class InternalLimit(QuadformError, RuntimeError):
    """A safety cap was hit or a certificate failed; indicates a bug, not a
    normal outcome."""
