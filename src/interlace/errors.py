"""Exception taxonomy shared by all interlace modules."""

import functools


class InterlaceError(Exception):
    """Base class for every error raised by this package.

    It pickles as a call of its class on the constructor's own arguments, so
    a subclass that formats them into its message, or that takes more than
    one, comes back from another process with the same text and attributes.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args)
        self._arguments = args, kwargs
        return self

    def __reduce__(self):
        args, kwargs = self._arguments
        return functools.partial(type(self), **kwargs), args, self.__dict__


# -- series ------------------------------------------------------------

class ModeMismatchError(InterlaceError):
    """Operands carry different coefficient modes."""


class OrderUnderflowError(InterlaceError):
    """Operation would need a negative truncation order."""


class OrderExceededError(InterlaceError):
    """Operation needs coefficients beyond the available order."""


class CompositionAtUnitError(InterlaceError):
    """Inner series of a composition has a nonzero constant term."""


class NonUnitDivisorError(InterlaceError):
    """Series divisor has valuation >= 1."""


class NonzeroConstantTermError(InterlaceError):
    """exp of a series with constant term is not exactly representable."""


class UndefinedValuationError(InterlaceError):
    """Valuation of the zero polynomial requested."""


# -- expressions -------------------------------------------------------

class ExprSyntaxError(InterlaceError):
    """Malformed expression text; carries the 0-based offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(InterlaceError):
    """Identifier not allowed in this context."""


class EvaluationSingularityError(InterlaceError):
    """Division by zero while evaluating; carries the sub-expression."""

    def __init__(self, subexpr_text, point=None):
        msg = f"division by zero in {subexpr_text!r}"
        if point is not None:
            msg += f" at {point}"
        super().__init__(msg)
        self.subexpr_text = subexpr_text
        self.point = point


class NonUnitDenominatorError(InterlaceError):
    """Denominator has zero constant term after series substitution."""


# -- curves / fields ---------------------------------------------------

class DegenerateCurveError(InterlaceError):
    """All curve components vanish identically."""


class ConstantCurveError(InterlaceError):
    """Every component derivative vanishes identically."""


class NonAdaptedChartError(InterlaceError):
    """First field component is identically zero; the x-chart fails."""


class DomainError(InterlaceError):
    """Probe point outside the trajectory domain."""


# -- integration -------------------------------------------------------

class SolverError(InterlaceError):
    """Base class for numerical integration failures; carries last x."""

    def __init__(self, message, last_x=None):
        if last_x is not None:
            message += f" (last x = {last_x!r})"
        super().__init__(message)
        self.last_x = last_x


class StiffnessError(SolverError):
    """Step size underflow (h below 1e-14 * x) or collapsed progress rate."""


class MaxStepsError(StiffnessError):
    """Step budget exhausted before reaching the endpoint."""


class BlowUpError(SolverError):
    """A solution value, or a census value along it, overflowed."""


class AdaptedChartError(SolverError):
    """Right-hand side hit an evaluation singularity."""


class ZeroEpsilonError(InterlaceError):
    """The difference curve vanishes where a direction is required."""


# -- relation search ---------------------------------------------------

class ExactnessRequiredError(InterlaceError):
    """Operation requires exact-rational coefficients."""
