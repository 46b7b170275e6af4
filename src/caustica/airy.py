"""Airy functions and the caustic recovery factor.

Thin wrappers over ``scipy.special.airy`` and ``airye``; this is the only
module in caustica that decides how Ai and Bi are evaluated.  There is no
range limit: the scaled variants stay finite for any x >= 0, which is what
overflow-free fold corrections need.  The recovery factor R interpolates
between 0 at the caustic and 1 deep in the Gaussian-saddle regime.
"""

from __future__ import annotations

import enum
import math

from scipy.special import airy, airye

from .errors import NegativeArgument

__all__ = [
    "AiryKind",
    "airy_ai",
    "airy_bi",
    "airy_ai_scaled",
    "airy_bi_scaled",
    "airy_ai_scaled_pair",
    "recovery_factor",
]


class AiryKind(enum.Enum):
    """Which Airy-type solution a correction factor is built from."""

    RECESSIVE = "recessive"  # standard Ai
    DOMINANT = "dominant"    # standard Bi


def airy_ai(x: float) -> float:
    """Standard recessive Airy function Ai(x)."""
    return float(airy(x)[0])


def airy_bi(x: float) -> float:
    """Dominant Airy function Bi(x)."""
    return float(airy(x)[2])


def _airy_ai_prime(x: float) -> float:
    """Ai'(x)."""
    return float(airy(x)[1])


def _airy_bi_prime(x: float) -> float:
    """Bi'(x)."""
    return float(airy(x)[3])


def airy_ai_scaled_pair(x: float) -> tuple[float, float]:
    """(Ai(x), Ai'(x)) * exp(+(2/3) x^{3/2}) for x >= 0, from one airye call."""
    if x < 0:
        raise NegativeArgument("scaled Ai defined for x >= 0 only")
    ai, aip, _, _ = airye(x)
    return float(ai), float(aip)


def airy_ai_scaled(x: float) -> float:
    """Ai(x) * exp(+(2/3) x^{3/2}) for x >= 0; overflow-free for large x."""
    return airy_ai_scaled_pair(x)[0]


def airy_bi_scaled(x: float) -> float:
    """Bi(x) * exp(-(2/3) x^{3/2}) for x >= 0; overflow-free for large x."""
    if x < 0:
        raise NegativeArgument("scaled Bi defined for x >= 0 only")
    return float(airye(x)[2])


def recovery_factor(zeta_prime: float, kind: AiryKind = AiryKind.RECESSIVE) -> float:
    """Dimensionless multiplier converting the Gaussian saddle term into the
    fold-corrected value.

    Normalized so R -> 1 as zeta_prime -> infinity and R(0) = 0 exactly (the
    zeta_prime^{1/4} suppression; caustic values must come from the
    cancelled forms in asym1d/asymnd).
    """
    if zeta_prime < 0:
        raise NegativeArgument("negative fold argument: two-complex-saddle side is unsupported")
    if zeta_prime == 0.0:
        return 0.0
    q = zeta_prime ** 0.25
    if kind is AiryKind.DOMINANT:
        return math.sqrt(math.pi) * q * airy_bi_scaled(zeta_prime)
    return 2.0 * math.sqrt(math.pi) * q * airy_ai_scaled(zeta_prime)
