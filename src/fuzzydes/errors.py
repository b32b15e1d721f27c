"""Exception types shared by all fuzzydes modules."""


class FuzzyDESError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(FuzzyDESError, ValueError):
    """A value, document, or structure violates a construction invariant."""


class DimensionMismatch(ValidationError):
    """Vector/matrix dimensions do not agree."""


class UnknownEvent(FuzzyDESError, LookupError):
    """An event name is not part of the automaton's alphabet."""


class DomainError(FuzzyDESError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PreconditionError(FuzzyDESError, ValueError):
    """A checked precondition failed; carries the offending witness if any."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class WitnessRejected(PreconditionError):
    """A supplied certificate failed verification: a negative verdict on the
    certificate rather than a malformed request."""
