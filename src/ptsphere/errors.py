"""Exception types shared across the package."""


class PtsphereError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(PtsphereError):
    pass


class DimensionMismatch(PtsphereError):
    pass


class UnsupportedRank(PtsphereError):
    pass


class UnsupportedOrder(PtsphereError):
    pass


class WordTooLong(PtsphereError):
    pass


class BadBasisIndex(PtsphereError):
    pass


class NotPTCompatible(PtsphereError):
    pass


class ParamOutOfRange(PtsphereError):
    pass


class UnknownName(PtsphereError):
    pass


class DegenerateMasa(PtsphereError):
    pass


class SamplingExhausted(PtsphereError):
    pass


class FitUnderdetermined(PtsphereError):
    pass


class ComplexCouplings(PtsphereError):
    pass


class SingularPotential(PtsphereError):
    pass


class BadCouplings(PtsphereError):
    pass


class PoleInC(PtsphereError):
    pass


class MultiValuedConfiguration(PtsphereError):
    pass


class NoDefiniteParity(PtsphereError):
    pass
