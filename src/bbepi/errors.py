"""Exception types shared across the package.

Every error raised by the library derives from :class:`AnalysisError`, so
callers (including the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(AnalysisError):
    """Matrix or vector shapes are inconsistent with the model layout."""


class DegenerateB(AnalysisError):
    """The transmission matrix is identically zero; rank structure undefined."""


class NoConvergence(AnalysisError):
    """An iterative solver hit its iteration cap before meeting tolerance."""


class RankTestFailure(AnalysisError):
    """A matrix expected to be numerically rank one failed the test."""


class SingularMatrix(AnalysisError):
    """A matrix that must be invertible is singular to working precision."""


class NotRankOne(AnalysisError):
    """An operation requiring rank-one transmission structure got a general model."""


class MissingState(AnalysisError):
    """A required state or equilibrium was not supplied or not found."""


class BelowThreshold(AnalysisError):
    """Requested object only exists above the epidemic threshold."""


class NoBracket(AnalysisError):
    """Root bracketing failed within the allotted expansion budget."""


class NotApplicable(AnalysisError):
    """The operation's structural preconditions are not met by this model."""


class NotCaseP(NotApplicable):
    """Operation requires the shared-susceptibility (equal P columns) structure."""


class NonDiagonalAS(NotApplicable):
    """Operation requires a diagonal susceptible flow matrix."""


class NonPositiveState(AnalysisError):
    """A state required to be strictly positive has a zero or negative entry."""


class IdentityViolation(AnalysisError):
    """A numerical identity that holds by construction failed beyond its tolerance."""


class NotRegularSplitting(AnalysisError):
    """The supplied (gain, loss) splitting is not a regular splitting."""


class TooManySpecies(AnalysisError):
    """Exact siphon enumeration refused above its species cap."""


class NotInvariantFace(AnalysisError):
    """The coordinate face is not forward invariant for the dynamics."""


class NotEquilibrium(AnalysisError):
    """The supplied point is not an equilibrium to tolerance."""


class NotBalancedBilinear(AnalysisError):
    """The reaction network does not reduce to a balanced bilinear model."""


class PositivityViolation(AnalysisError):
    """Integration left the nonnegative orthant beyond the clamp tolerance."""


class StepUnderflow(AnalysisError):
    """Adaptive integration drove the step size below its floor."""


class ParseError(AnalysisError):
    """A reaction or model file failed to parse.

    Attributes
    ----------
    line : int or None
        One-based line number of the offending input line, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NegativeRate(ParseError):
    """A reaction was given a zero or negative rate constant."""


class UnknownSpecies(ParseError):
    """A reaction mentions a species absent from the declared species list."""
