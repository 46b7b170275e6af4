"""Multivariable asymptotics on the one-variable engine.

``find_saddle_nd`` integrates the transverse coordinates out by Laplace's
method (the splitting lemma) and leaves a one-variable integrand in the
soft coordinate.  ``wkb-nd`` and ``corrected-nd`` are ``approx_wkb`` and
``approx_saddle_form`` on that integrand, at its saddle, times the
transverse Gaussian factor (2 pi / N)^((n-1)/2).  The saddle is the one the
soft contour passes through: the recessive one on the registry families.
"""

from __future__ import annotations

import dataclasses
import math

from .airy import AiryKind, recovery_factor
# not called here: kept bound because the benchmark's span tracer wraps
# asymnd.airy_ai_scaled by name
from .airy import airy_ai_scaled  # noqa: F401
from .asym1d import (
    ZetaParams,
    _over_grid,
    _saddle_zeta,
    approx_saddle_form,
    approx_wkb,
    classify_regime,
)
from .errors import CausticaError, CausticDivergence, DegenerateCubic, WrongRegime
from .integrand import Integrand1D, IntegrandND
from .saddle import NdSaddleInfo, SaddleInfo, find_caustic, find_saddle, find_saddle_nd

__all__ = ["approx_wkb_nd", "approx_corrected_nd", "mean_field_compare"]


def _soft_saddle(intg: IntegrandND, s: NdSaddleInfo) -> SaddleInfo:
    """The reduced saddle; WrongRegime where the soft coordinate is real and
    the saddle is a minimum along it."""
    if intg.soft_contour is None and s.saddle.f2.real > 0.0:
        raise WrongRegime("soft minimum on a real soft coordinate: not a fold")
    return s.saddle


def _with_gaussians(intg: IntegrandND, N, values):
    """Each value times its N's transverse Gaussian factor (2 pi / N)^((n-1)/2)."""
    return [
        dataclasses.replace(v, value=v.value * (2.0 * math.pi / n) ** ((intg.dim - 1) / 2.0))
        for n, v in zip(N, values)
    ]


@_over_grid
def approx_wkb_nd(intg: IntegrandND, alpha: float, N, s: NdSaddleInfo):
    """``approx_wkb`` on the reduced integrand, times the transverse
    Gaussians.  N is one number or a sequence of them, as for the 1-D
    formulas; CausticDivergence raises for the whole grid."""
    return _with_gaussians(intg, N, approx_wkb(s.reduced, alpha, N, _soft_saddle(intg, s)))


@_over_grid
def approx_corrected_nd(intg: IntegrandND, alpha: float, N, s: NdSaddleInfo):
    """``approx_saddle_form`` on the reduced integrand, times the transverse
    Gaussians: finite through the fold.  The reduced caustic is solved from
    this alpha and the saddle's cubic model.  N is one number or a sequence
    of them, as for the 1-D formulas."""
    sd = _soft_saddle(intg, s)
    if sd.f3 == 0:
        raise DegenerateCubic("f''' vanishes at the saddle")
    c = find_caustic(s.reduced, alpha, sd.z0 - sd.f2 / sd.f3)
    return _with_gaussians(intg, N, approx_saddle_form(s.reduced, alpha, N, sd, c))


def mean_field_compare(intg, alpha_grid, N_grid) -> list[dict]:
    """Leading-exponent comparison of WKB and corrected values.

    Demonstrates that both share the mean-field exponent while only the
    corrected prefactor stays finite through the caustic.  Accepts a 1-D
    real-line integrand (the mean-field toy) or an IntegrandND.
    """
    rows = []
    if isinstance(intg, Integrand1D):
        caustic = find_caustic(intg)
        for a in alpha_grid:
            guess = intg.saddle_guess(a) if intg.saddle_guess else 1.0 + 0.0j
            s = find_saddle(intg, a, guess)
            wkbs = approx_wkb(intg, a, N_grid, s)
            # status of the Gaussian term at the coalescing (fold) saddle,
            # which depends on alpha only
            fold_status = "finite"
            try:
                zt = caustic.z_tilde_at(a)
                fold_s = find_saddle(intg, a, zt + 0.05)
                approx_wkb(intg, a, N_grid, fold_s)
            except CausticDivergence:
                fold_status = "divergent"
            except CausticaError:
                fold_status = "unavailable"
            for N, wkb in zip(N_grid, wkbs):
                zp = ZetaParams.from_zeta(_saddle_zeta(s), N).zeta_prime
                corr = wkb.value * recovery_factor(zp, AiryKind.RECESSIVE)
                rows.append(
                    {
                        "alpha": a,
                        "N": N,
                        "wkb_exponent": math.log(abs(wkb.value)) / N,
                        "corrected_exponent": math.log(abs(corr)) / N
                        if corr != 0
                        else -math.inf,
                        "exponent_gap": abs(
                            math.log(abs(wkb.value)) - math.log(abs(corr))
                        )
                        / N
                        if corr != 0
                        else math.inf,
                        "prefactor_ratio": abs(corr) / abs(wkb.value),
                        "corrected": corr,
                        "wkb": wkb.value,
                        "fold_wkb": fold_status,
                        "zeta_prime": zp,
                        "regime": classify_regime(zp).value,
                    }
                )
        return rows

    if not isinstance(intg, IntegrandND):
        raise WrongRegime("mean_field_compare needs an Integrand1D or IntegrandND")
    for a in alpha_grid:
        guess = intg.saddle_guess(a) if intg.saddle_guess else [0.0] * intg.dim
        s = find_saddle_nd(intg, a, guess)
        corrs = approx_corrected_nd(intg, a, N_grid, s)
        try:
            wkbs = approx_wkb_nd(intg, a, N_grid, s)
        except CausticDivergence:
            wkbs = [None] * len(corrs)
        for N, corr, wkb in zip(N_grid, corrs, wkbs):
            corr_exp = math.log(abs(corr.value)) / N
            wkb_exp = math.nan if wkb is None else math.log(abs(wkb.value)) / N
            rows.append(
                {
                    "alpha": a,
                    "N": N,
                    "wkb_exponent": wkb_exp,
                    "corrected_exponent": corr_exp,
                    "exponent_gap": abs(wkb_exp - corr_exp),
                    "prefactor_ratio": math.inf if wkb is None else abs(corr.value / wkb.value),
                    "corrected": corr.value,
                    "wkb": None if wkb is None else wkb.value,
                    "fold_wkb": "divergent" if wkb is None else "finite",
                    "zeta_prime": corr.zeta_prime,
                    "regime": classify_regime(corr.zeta_prime).value,
                }
            )
    return rows
