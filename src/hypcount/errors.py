"""Exception types shared across the package."""


class HypcountError(Exception):
    """Base class for all library errors."""


class DomainError(HypcountError):
    """Argument outside the operation's domain."""


class ZeroConstantTerm(HypcountError):
    """Inversion (or a negative power) of a series with zero constant term."""


class NonzeroConstantTerm(HypcountError):
    """Composition with an inner series whose constant term is nonzero."""


class BoundTooSmall(HypcountError):
    """Lattice-sum truncation bound too small for the requested order."""
