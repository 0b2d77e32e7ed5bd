"""Exception types shared across the package.

Every error raised by the library derives from :class:`AnalysisError`, so
callers (including the CLI) can distinguish domain failures from bugs.
Each class carries ``exit_code``, the CLI exit status of a run it ends:
2 for malformed or invalid input, 4 for a model outside a method's
hypotheses, and the base-class 3 for a failed solver, integration or
numerical identity.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 3


def is_solver_failure(exc: AnalysisError) -> bool:
    """Whether exc reports a failed solve (exit 3), not bad input or an unmet hypothesis."""
    return exc.exit_code == AnalysisError.exit_code


class InvalidModel(AnalysisError):
    """A model failed validate_model's checks."""

    exit_code = 2


class DimensionMismatch(AnalysisError):
    """Matrix or vector shapes are inconsistent with the model layout."""

    exit_code = 2


class DegenerateB(AnalysisError):
    """The transmission matrix is identically zero; rank structure undefined."""

    exit_code = 2


class NoConvergence(AnalysisError):
    """An iterative solver hit its iteration cap before meeting tolerance."""


class RankTestFailure(AnalysisError):
    """A matrix expected to be numerically rank one failed the test."""


class SingularMatrix(AnalysisError):
    """A matrix that must be invertible is singular to working precision."""


class NotRankOne(AnalysisError):
    """An operation requiring rank-one transmission structure got a general model."""

    exit_code = 4


class BelowThreshold(AnalysisError):
    """Requested object only exists above the epidemic threshold."""

    exit_code = 4


class NotApplicable(AnalysisError):
    """The operation's structural preconditions are not met by this model."""

    exit_code = 4


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

    exit_code = 2


class NotInvariantFace(AnalysisError):
    """The coordinate face is not forward invariant for the dynamics."""


class NotEquilibrium(AnalysisError):
    """The supplied point is not an equilibrium to tolerance."""


class NotBalancedBilinear(AnalysisError):
    """The reaction network does not reduce to a balanced bilinear model."""

    exit_code = 2


class PositivityViolation(AnalysisError):
    """Integration left the nonnegative orthant beyond the clamp tolerance."""


class StepUnderflow(AnalysisError):
    """Adaptive integration drove the step size below its floor."""


class NonFiniteValue(AnalysisError):
    """A state or computed value overflowed to inf or NaN."""


class ParseError(AnalysisError):
    """An input file or argument failed to parse or asks for too much work.

    Attributes
    ----------
    line : int or None
        One-based line number of the offending input line, when known.
    """

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NegativeRate(ParseError):
    """A reaction was given a zero, negative or non-finite rate constant."""


class UnknownSpecies(ParseError):
    """A reaction mentions a species absent from the declared species list."""
