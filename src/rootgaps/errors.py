"""Exception types shared across the package."""


class RootgapsError(Exception):
    """Base class for every package-specific error."""


class ParameterDomainError(RootgapsError, ValueError):
    """A family parameter or argument lies outside its admissible range."""


class EmptyProblemError(RootgapsError, ValueError):
    """An operation was requested for a zero-size problem (N = 0)."""


class MagnitudeError(RootgapsError, OverflowError):
    """A computed quantity left the representable floating-point range.

    ``scale_hint`` carries an approximate base-2 exponent of the offending
    magnitude when one is known.
    """

    def __init__(self, message: str, scale_hint: float | None = None):
        super().__init__(message)
        self.scale_hint = scale_hint


class FamilyMismatchError(RootgapsError, TypeError):
    """An operation received data belonging to the wrong polynomial family."""


class SingularConfigurationError(RootgapsError, ValueError):
    """Roots are coincident or sit on the orthogonality boundary."""


class InternalConsistencyError(RootgapsError, RuntimeError):
    """Two independent routes to the same quantity disagree.

    Raised when a cross-check fails, which indicates a transcription bug
    rather than bad user input.
    """
