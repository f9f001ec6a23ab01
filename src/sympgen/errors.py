"""Exception hierarchy shared by every module in the package."""


class SympgenError(Exception):
    """Base class for all package-specific errors."""


class CompositeCharacteristic(SympgenError):
    pass


class ReducibleModulus(SympgenError):
    pass


class DivisionByZero(SympgenError):
    pass


class MixedFields(SympgenError):
    pass


class ZeroElement(SympgenError):
    pass


class NoEmbedding(SympgenError):
    pass


class ZeroPolynomial(SympgenError):
    pass


class SingularMatrix(SympgenError):
    pass


class ShapeMismatch(SympgenError):
    pass


class NotSquare(SympgenError):
    pass


class BadParam(SympgenError):
    pass


class NoTauDefined(SympgenError):
    pass


class OutOfRange(SympgenError):
    pass


class UnknownClaim(SympgenError):
    pass


class UnknownLemma(SympgenError):
    pass


class OddCharacteristic(SympgenError):
    pass


class CheckFailed(SympgenError):
    """An internal consistency check on a computed result failed."""
