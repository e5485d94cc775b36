"""Exception types shared across the package.

Everything user-facing derives from DomainError so the CLI can map
domain failures to a single exit code while usage errors stay separate.
"""

__all__ = [
    "DomainError",
    "PolygonSyntaxError",
    "EndpointMismatchError",
    "AsymmetricPolygonError",
    "InvalidDatumError",
    "BadResidueError",
    "InconsistentSignatureError",
    "NotAdmissibleError",
    "UnsupportedPairError",
    "NotABaseCaseError",
    "GeneratorError",
    "CertificationError",
    "EnumerationCapError",
]


class DomainError(ValueError):
    """A mathematically invalid request (bad input, undefined operation)."""


class PolygonSyntaxError(DomainError):
    """Text or JSON that does not describe a Newton polygon."""


class EndpointMismatchError(DomainError):
    """Comparison of polygons with different endpoints; the order is undefined there."""


class AsymmetricPolygonError(DomainError):
    """An operation that needs a symmetric polygon got an asymmetric one."""


class InvalidDatumError(DomainError):
    """A tuple (m, N, a) that fails one of the monodromy-datum conditions."""


class BadResidueError(DomainError):
    """A residue class that is not a unit modulo m (e.g. p dividing m)."""


class InconsistentSignatureError(DomainError):
    """Signature values violate f(n) + f(m-n) constancy on a Frobenius orbit."""


class NotAdmissibleError(DomainError):
    """A pair of monodromy data that cannot be clutched at the chosen points."""


class UnsupportedPairError(DomainError):
    """Compatibility test requested for a pair with m1 not dividing m2."""


class NotABaseCaseError(DomainError):
    """No known occurrence criterion applies to the requested base datum."""


class GeneratorError(DomainError):
    """A hypothesis check failed mid-derivation, or a recipe precondition is unmet."""


class CertificationError(GeneratorError):
    """A derivation's own bookkeeping check failed, so its claim is not certified."""


class EnumerationCapError(DomainError):
    """Per-orbit stratum enumeration exceeded the configured candidate cap."""
