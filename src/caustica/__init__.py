"""caustica: asymptotic evaluation of exponential integrals near fold caustics.

Airy-corrected saddle-point approximations (expansion-point form,
saddle-anchored form, and the two-saddle CFU expansion) for one-variable
contour integrals and multivariable Laplace-type integrals with one soft
Hessian mode, validated against brute-force quadrature oracles.
"""

from .airy import AiryKind, airy_ai, airy_ai_scaled, airy_bi, airy_bi_scaled, recovery_factor
from .asym1d import (
    ApproxValue,
    Method,
    Regime,
    ZetaParams,
    approx_cfu,
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    classify_regime,
    regime_report,
)
from .asymnd import approx_corrected_nd, approx_wkb_nd, mean_field_compare
from .errors import (
    BadParameter,
    BranchAmbiguous,
    CausticaError,
    CausticDivergence,
    DegenerateCubic,
    DimensionTooLarge,
    NegativeArgument,
    NoConvergence,
    PartnerNotFound,
    RayDivergence,
    StepUnderflow,
    ToleranceNotMet,
    UnknownIntegrand,
    WrongRegime,
)
from .integrand import (
    ContourPath,
    Integrand1D,
    IntegrandND,
    derive,
    derive_nd,
    registry_get,
    registry_names,
)
from .oracle import QuadResult, bessel_ref, cubature_nd, quad_contour
from .saddle import (
    CausticInfo,
    NdSaddleInfo,
    SaddleInfo,
    find_caustic,
    find_partner,
    find_saddle,
    find_saddle_nd,
)

__version__ = "0.1.0"
