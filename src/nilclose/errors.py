"""Exception hierarchy shared by all nilclose modules."""


class NilcloseError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatch(NilcloseError):
    """Operands belong to different fields."""


class DivisionByZero(NilcloseError, ZeroDivisionError):
    """Division by the zero element of a field."""


class NotCoprime(NilcloseError):
    """The requested root-of-unity order is divisible by the characteristic."""


class DimensionMismatch(NilcloseError):
    """Matrix operands have incompatible dimensions."""


class MalformedMatrix(NilcloseError, ValueError):
    """A matrix file or JSON object does not describe a square matrix."""


class ZeroPolynomial(NilcloseError):
    """Operation undefined for the zero polynomial."""


class NotNilpotent(NilcloseError):
    """Matrix is not nilpotent where nilpotency is required."""


class PartitionTooLarge(NilcloseError):
    """Partition does not fit in the ambient dimension."""


class OutOfRange(NilcloseError):
    """Numeric argument outside its documented range."""


class InseparableMinimalPolynomial(NilcloseError):
    """Squarefree reduction failed; cannot occur over the supported fields."""


class InvalidQ(NilcloseError):
    """Cell-size set contains an element outside {2, ..., n}."""


class NonPrimeChar(NilcloseError):
    """Characteristic argument is neither 0 nor a prime."""


class BoundExceeded(NilcloseError):
    """Enumeration bound exceeded."""


class IsCharPower(NilcloseError):
    """Neighbor construction unavailable: the cell size is a power of the
    characteristic, so the relevant root-of-unity group is trivial."""


class DimensionTooSmall(NilcloseError):
    """Ambient dimension too small for the requested construction."""


class InternalInconsistency(NilcloseError):
    """A constructed certificate failed self-verification (implementation bug)."""


class BudgetExceeded(NilcloseError):
    """Exhaustive enumeration would exceed the stated budget."""

    def __init__(self, message, partition=None, required=None):
        super().__init__(message)
        self.partition = partition
        self.required = required


class InfiniteField(NilcloseError):
    """Exhaustive enumeration requires a finite field."""


class Inconsistency(NilcloseError):
    """Criterion, oracle and witness modules disagree in a forbidden direction."""
