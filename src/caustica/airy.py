"""Airy functions and the caustic recovery factor.

Thin wrappers over ``scipy.special.airy`` and ``airye``; this is the only
module in caustica that decides how Ai and Bi are evaluated.  There is no
range limit: the scaled Ai and Ai' stay finite for any finite x >= 0, which
is what overflow-free fold corrections need.  ``airye`` (AMOS) returns NaN
from about x = 2^20 up, so from 2^19 on two terms of the asymptotic series
(DLMF 9.7.5-9.7.6) take over; there they are exact to rounding.  The scaled
pair of one real x in [0, 2^19), given alone or as a one-entry sequence (a
formula's single N), is one scalar ``airye`` call without numpy's array
wrapping; each AMOS value does not depend on the batch it is computed in, so
the bits are those of the array call.  Every formula is built on the
recessive solution Ai; Bi is here for checks against tabulated values.
The recovery factor R interpolates between 0 at the caustic and 1 deep in
the Gaussian-saddle regime.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from scipy.special import airy, airye

from .errors import NegativeArgument

__all__ = [
    "airy_ai",
    "airy_bi",
    "airy_ai_scaled",
    "airy_ai_scaled_pair",
    "recovery_factor",
]

_SERIES_MIN = 2.0 ** 19  # from here on the asymptotic series, not airye
# the real scalars the scalar path takes; each goes to airye as a float, as
# the array path converts it, since airye keeps float32 (and int8) in single
_SCALAR = (float, int, np.floating, np.integer)


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


def airy_ai_scaled_pair(
    x: "float | Sequence[float]",
) -> "tuple[float, float] | tuple[tuple[float, float], ...]":
    """(Ai(x), Ai'(x)) * exp(+(2/3) x^{3/2}) for x >= 0, from one airye call
    and, from x = 2^19 on, two terms of the asymptotic series.

    For a sequence of x, a tuple of such pairs, one per entry and each equal
    to the pair for that entry alone.  A real scalar in [0, 2^19), alone or
    as the one entry of a list or tuple, takes one scalar airye call; every
    other input (negative, NaN, from 2^19 on, arrays, longer sequences)
    takes the array path, with the same bits.
    """
    one = x[0] if isinstance(x, (list, tuple)) and len(x) == 1 else x
    if isinstance(one, _SCALAR) and 0.0 <= one < _SERIES_MIN:
        ai, aip, _, _ = airye(float(one))
        pair = float(ai), float(aip)
        return pair if one is x else (pair,)
    xs = np.asarray(x, dtype=float)
    if (xs < 0).any():
        raise NegativeArgument("scaled Ai defined for x >= 0 only")
    ai, aip, _, _ = airye(xs)
    big = xs >= _SERIES_MIN
    if big.any():
        xa = np.maximum(xs, _SERIES_MIN)  # no 1/0 on the entries airye serves
        xi = (2.0 / 3.0) * xa ** 1.5
        c = 0.5 / math.sqrt(math.pi)
        ai = np.where(big, c * xa ** -0.25 * (1.0 - 5.0 / (72.0 * xi)), ai)
        aip = np.where(big, -c * xa ** 0.25 * (1.0 + 7.0 / (72.0 * xi)), aip)
    if xs.ndim == 0:
        return float(ai), float(aip)
    return tuple(zip(ai.tolist(), aip.tolist()))


def airy_ai_scaled(x: float) -> float:
    """Ai(x) * exp(+(2/3) x^{3/2}) for x >= 0; overflow-free for large x."""
    return airy_ai_scaled_pair(x)[0]


def recovery_factor(zeta_prime: float) -> float:
    """Dimensionless multiplier converting the Gaussian saddle term into the
    fold-corrected value.

    Normalized so R -> 1 as zeta_prime -> infinity, R(inf) = 1 and R(0) = 0
    exactly (the zeta_prime^{1/4} suppression; caustic values must come from
    the cancelled forms in asym1d/asymnd).
    """
    if zeta_prime < 0:
        raise NegativeArgument("negative fold argument: two-complex-saddle side is unsupported")
    if zeta_prime == math.inf:  # the limit, where inf^{1/4} * 0 is NaN
        return 1.0
    return 2.0 * math.sqrt(math.pi) * zeta_prime ** 0.25 * airy_ai_scaled(zeta_prime)
