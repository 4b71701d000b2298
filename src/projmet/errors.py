"""Exception types shared across the package."""


class ProjmetError(Exception):
    """Base class for all package errors."""


class ParseError(ProjmetError):
    """Bad expression or spec syntax; carries 1-based line/column."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DegreeAboveCap(ParseError):
    """A power or product in an expression is above the degree cap."""

    def __init__(self, degree, cap, line=1, column=1):
        super().__init__(f"total degree {degree}, above the cap of {cap}",
                         line, column)
        self.degree = degree


class PoleError(ProjmetError):
    """Denominator vanishes at the requested point."""


class NotPolynomial(ProjmetError):
    """Operation restricted to polynomial components got a rational one."""


class ShapeError(ProjmetError):
    """Tensor signature or component shape mismatch."""


class NotSpecial(ProjmetError):
    """Connection is not in the special (volume-preserving) gauge."""


class InternalError(ProjmetError):
    """An identity that must hold by construction failed; implementation bug."""


class PoleAtBasePoint(PoleError):
    """Connection or curvature has a pole at the jet base point."""


class PoleOnPath(PoleError):
    """Integration path passes through a pole."""


class StepUnderflow(ProjmetError):
    """Adaptive integrator could not reach the tolerance."""


class DegenerateSigma(ProjmetError):
    """Candidate solution is singular at the base point."""


class DegenerateMetric(ProjmetError):
    """Metric is singular where it must be invertible."""


class NotEquivalent(ProjmetError):
    """Connections are not projectively equivalent; carries the offending component."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class DimensionTooSmall(ProjmetError):
    """Requested decomposition needs a higher dimension."""
