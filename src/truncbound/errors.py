"""Exception hierarchy.

Guards in this package are part of the certification contract: when an
assumption or a residual check fails the computation must stop rather than
emit an uncertified number."""


class TruncboundError(Exception):
    """Base class for all package errors."""


class ModelError(TruncboundError):
    """Invalid model data (bad rows, unstable parameters, ...)."""


class EnumerationLimitError(ModelError):
    """State enumeration (a truncation, or a ball of states) exceeded the cap."""


class IrreducibilityError(TruncboundError):
    """The censored matrix (or an input matrix) is reducible where the
    method requires irreducibility."""


class ReducibleMatrixError(IrreducibilityError):
    """Reducibility detected through a degenerate stationary solve."""


class NumericalError(TruncboundError):
    """A residual or denominator guard failed; results would be uncertified."""


class CertificateError(TruncboundError):
    """A drift certificate is missing, unverified, or used out of scope."""
