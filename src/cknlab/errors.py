"""Exception hierarchy shared by all cknlab modules."""


class CknError(Exception):
    """Base class for all cknlab errors."""


# -- parameter validation -----------------------------------------------------

class ParameterError(CknError, ValueError):
    """A parameter triple (d, gamma, p) violates the admissible range."""


class DimensionTooSmall(ParameterError):
    pass


class GammaOutOfRange(ParameterError):
    pass


class POutOfRange(ParameterError):
    pass


# -- quadrature and norms ------------------------------------------------------

class NonConvergent(CknError):
    """Adaptive refinement exhausted without meeting the tolerance."""


class NaNEncountered(CknError):
    """An integrand produced NaN or an uncontrolled infinity."""


class DivergentNorm(CknError):
    """Tail decay too slow for the requested weighted norm."""


class ZeroDenominator(CknError):
    """A quotient was requested for a profile with vanishing norm."""


class AmplitudeOverflow(CknError):
    """A closed-form profile's peak, or one of its moments, exceeds the float range."""


# -- ODE shooting ---------------------------------------------------------------

class ClassificationAmbiguous(CknError):
    """Shots cannot place the ground state within the requested tolerance."""


class BracketNotFound(CknError):
    """No sign change of the shooting classification could be bracketed."""


# -- minimization ----------------------------------------------------------------

class NoDescent(CknError):
    """Minimizer stalled above its own reference candidate."""


class GridTooCoarse(CknError):
    """Discretization error estimate exceeds the requested tolerance."""


# -- spectral ---------------------------------------------------------------------

class SingularMass(CknError):
    """Weight underflow made the mass matrix numerically singular."""


class EigenSolverFailure(CknError):
    pass


# -- flow --------------------------------------------------------------------------

class StepFailure(CknError):
    """An implicit flow step did not converge, or a run ran out of steps."""


class NegativeDensity(CknError):
    """Density left the admissible cone; the run is aborted rather than clipped."""


class RootNotBracketed(CknError):
    pass
