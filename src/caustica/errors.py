"""Exception hierarchy shared by all caustica modules."""


class CausticaError(Exception):
    """Base class for all errors raised by caustica."""


class StepUnderflow(CausticaError):
    """Finite-difference scheme could not reach the requested tolerance."""


class UnknownIntegrand(CausticaError):
    """Registry lookup for an unknown integrand name."""


class BadParameter(CausticaError):
    """Input parameter outside its documented range."""


class NoConvergence(CausticaError):
    """Newton iteration failed to converge within the iteration budget."""


class DegenerateCubic(CausticaError):
    """Third derivative vanishes at the expansion point (higher-order catastrophe)."""


class PartnerNotFound(CausticaError):
    """Second saddle collapsed onto the first or the iteration diverged."""


class WrongRegime(CausticaError):
    """Inputs lie outside the supported parameter regime."""


class CausticDivergence(CausticaError):
    """Gaussian (WKB) prefactor is divergent because the curvature vanished."""


class BranchAmbiguous(CausticaError):
    """No root-branch labeling produces a real fold parameter."""


class ToleranceNotMet(CausticaError):
    """Quadrature error estimate exceeds the requested tolerance."""


class RayDivergence(CausticaError):
    """Integrand does not decay along a configured contour ray."""


class DimensionTooLarge(CausticaError):
    """Brute-force cubature requested beyond the supported dimension."""


class NegativeArgument(CausticaError):
    """Negative fold argument (two-complex-saddle side, unsupported)."""
