"""Exception hierarchy shared by all metronlab modules.

Two base classes split failures into "the inputs were never admissible"
(ValidationError, CLI exit code 2) and "the computation did not reach its
goal" (NumericalError, CLI exit code 3).  ValidationError is also a
ValueError, so callers catching the builtin still see bad inputs.
"""


class MetronLabError(Exception):
    pass


class ValidationError(MetronLabError, ValueError):
    exit_code = 2


class NumericalError(MetronLabError):
    exit_code = 3


# --- shared numerics -------------------------------------------------------

class StepUnderflow(NumericalError):
    """Adaptive integrator needed a step below the hard floor (stiff/singular)."""


class NonFiniteState(NumericalError):
    """A state component became NaN/Inf during integration."""


class NoBracket(ValidationError):
    """Radial eigenfrequency at or below the bracket's lower end (well too deep)."""


class NotTrapped(NumericalError):
    """No exponentially decaying bound solution exists / tail test failed."""


class NonDecayingSource(ValidationError):
    """Poisson source does not decay; the Coulomb exterior match is invalid."""


# --- trapped modes ---------------------------------------------------------

class NoConvergence(NumericalError):
    """Fixed-point iteration exhausted max_iters; carries the last residuals."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class LambdaOutOfRange(ValidationError):
    """Scale factor outside the admissible interval."""


class WindowEmpty(ValidationError):
    """Trapping window is empty (well parameter outside (0, 1))."""


class TailNotFree(NumericalError):
    """Far field does not fit the expected 1/r free-wave tail."""


# --- bragg -----------------------------------------------------------------

class OffShell(ValidationError):
    """Wavenumber does not satisfy the free-wave dispersion relation."""


class DegenerateCoupling(ValidationError):
    """Zero coupling: trapping classification is degenerate."""


class NoEquilibrium(ValidationError):
    """|B| > 1: the phase equation has no stationary point."""


# --- orbits ----------------------------------------------------------------

class ComplexRoots(NumericalError):
    """Drift equilibrium discriminant is negative."""


class ResonanceSingularity(ValidationError):
    """Stationary response requested exactly on resonance."""


class GridMismatch(ValidationError):
    """Time series do not share one sampling grid."""


class InvalidSamples(ValidationError):
    """Lorentz-factor samples violate u4 >= 1."""


# --- greens ----------------------------------------------------------------

class OriginSingular(ValidationError):
    """Kernel evaluated at r = 0."""


class SuperluminalCone(ValidationError):
    """Stationary-phase evaluation requested outside the light cone (v >= 1)."""


class QuadratureNotConverged(NumericalError):
    """Two-cutoff check of the oscillatory quadrature disagreed."""


class KernelUnresolved(ValidationError):
    """Regularization width exceeds the minimum trajectory separation."""


# --- algebra ---------------------------------------------------------------

class MetricMismatch(NumericalError):
    """Computed spinor metric deviates from the declared target."""

    def __init__(self, message, deviations=None):
        super().__init__(message)
        self.deviations = deviations


class ColorPlaneViolation(ValidationError):
    """Color wavenumber has components outside the color plane."""


class InvalidSignature(ValidationError):
    """Electroweak wavenumbers violate the positivity inequalities."""


class SingularVChoice(ValidationError):
    """Diagonal direction vectors have parallel color-plane projections."""


class DivisionDegenerate(ValidationError):
    """Calibration denominator (beta or |a|^2) vanishes."""
