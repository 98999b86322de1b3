"""Exception types raised across the toolkit."""


class HalflineError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(HalflineError, ValueError):
    """Matrices are not square or do not share a dimension."""


class SelfAdjointnessViolated(HalflineError, ValueError):
    """A†B is not Hermitian within tolerance."""


class Degenerate(HalflineError, ValueError):
    """A†A + B†B is not positive definite (or B+iA is numerically singular)."""


class NumericalSingularity(HalflineError, ArithmeticError):
    """A computation on validated input failed or broke an invariant the maths guarantees.

    Raised for a singular linear solve, a count that falls along a nested
    mesh ladder, and a negative Bargmann bound integral.
    """


class AngleOutOfRange(HalflineError, ValueError):
    """A boundary angle lies outside (0, pi]."""


class NegativeCoordinate(HalflineError, ValueError):
    """Potential evaluated at x < 0."""


class NonHermitianInput(HalflineError, ValueError):
    """A matrix that must be Hermitian is not."""


class DivergentMoment(HalflineError, ValueError):
    """The potential fails the integrability / first-moment requirement."""


class SingularJost(HalflineError, ArithmeticError):
    """The free Jost matrix is singular at the requested spectral point."""


class RegimeViolation(HalflineError, ValueError):
    """Operation called outside the parameter regime where its formula holds."""


class MeshTooCoarse(HalflineError, ValueError):
    """Discretization has too few nodes to be trusted."""


class IndefiniteMass(HalflineError, ArithmeticError):
    """Assembled mass matrix is not positive definite (assembly bug)."""


class NotNegativePotential(HalflineError, ValueError):
    """Birman-Schwinger machinery requires V <= 0 on its support."""


class EigenvalueNearOne(HalflineError, ArithmeticError):
    """A Birman-Schwinger eigenvalue sits too close to 1 for an unambiguous count."""


class ParseError(HalflineError, ValueError):
    """Malformed instance JSON; message names the offending field."""
