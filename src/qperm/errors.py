"""Exception types shared across the package."""


class QpermError(Exception):
    """Base class for all library errors."""


class MalformedMatrix(QpermError):
    """Input matrix is not square, not unimodular, or otherwise unusable."""


class ShapeMismatch(QpermError):
    """Operands have incompatible shapes."""


class NotHadamard(QpermError):
    """A Hadamard matrix was required but the rows are not orthogonal."""


class UnknownName(QpermError):
    """Catalog lookup for a name that is not registered."""


class OrderTooLarge(QpermError):
    """Exhaustive equivalence search refused beyond its order bound."""


class SingularGram(QpermError):
    """Gram matrix is singular; Weingarten integration refuses."""


class BudgetExceeded(QpermError):
    """A configured node or memory budget was exhausted."""


class RankAmbiguous(QpermError):
    """A float verdict has no safe gap: a singular value, or a distance
    between compared values, lies between tol and _GAP_FACTOR * tol."""


class MethodDisagreement(QpermError):
    """Two supposedly equivalent computations returned different results."""


class CertificationFailed(QpermError):
    """The exact linear-algebra certificate could not be completed."""


class NotBlockDiagonal(QpermError):
    """Conjugated magic unitary is not in the expected block form."""


class DegenerateParameter(QpermError):
    """Parameter lies outside the validity region of a closed formula."""


class ParseError(QpermError):
    """Matrix file could not be parsed; carries line and column info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class VerifyFailed(QpermError):
    """A matrix read from disk failed the Hadamard verification gate."""
