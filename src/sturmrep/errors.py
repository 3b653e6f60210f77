"""Exception types shared across the package.

DomainError covers inputs that are well-formed but outside an operation's
domain; ParseError covers malformed text input.  The CLI maps them to exit
codes 1 and 2 respectively.
"""


class DomainError(Exception):
    pass


class ParseError(ValueError):
    pass


class FieldMismatchError(DomainError):
    """Arithmetic mixed two distinct irrational quadratic fields."""


class MembershipError(DomainError):
    """Matrix is not in the represented monoid; .certificate names the
    first violated constraint."""

    def __init__(self, certificate: str):
        super().__init__(f"membership failed: {certificate}")
        self.certificate = certificate


class NotPrimitiveError(DomainError):
    pass


class CyclicMorphismError(DomainError):
    pass


class ScanBoundError(DomainError):
    """No square prefix found within the configured scan bound."""
