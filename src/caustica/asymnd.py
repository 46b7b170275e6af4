"""Multivariable asymptotics: Gaussian (WKB) leading term and the
fold-corrected formula built from the soft Hessian mode.

The soft coordinate may be a genuine real direction (lambda_1 < 0, a local
maximum going flat) or a complex-deformed one declared through the
integrand's ``soft_contour`` (lambda_1 > 0 along the real axis but recessive
along the deformed contour).  All tilde-point quantities are produced from
saddle-anchored approximations; the expansion point itself is never located.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .airy import AiryKind, airy_ai_scaled, recovery_factor
from .asym1d import ZetaParams, _saddle_zeta, approx_wkb, classify_regime
from .errors import CausticDivergence, DegenerateCubic, WrongRegime
from .integrand import Integrand1D, IntegrandND
from .saddle import NdSaddleInfo, find_caustic, find_saddle, find_saddle_nd

__all__ = [
    "NdMethod",
    "NdApproxValue",
    "approx_wkb_nd",
    "approx_corrected_nd",
    "mean_field_compare",
]

_A111_FLOOR = 1e-8


class NdMethod(enum.Enum):
    WKB_ND = "wkb-nd"
    CORRECTED_ND = "corrected-nd"


@dataclass(frozen=True)
class NdApproxValue:
    value: complex
    method: NdMethod
    zeta_prime: float
    det_neg_hessian: float
    soft_lambda: float
    warnings: tuple[str, ...] = ()


def _soft_phase(intg: IntegrandND, lam1: float) -> complex:
    if lam1 > 0.0:
        if intg.soft_contour is None:
            raise WrongRegime(
                "soft eigenvalue positive on a purely real domain (minimum, not fold)"
            )
        return 1.0j
    return 1.0 if intg.soft_contour is None else 1.0j


def _zeta_params(s: NdSaddleInfo, N: float) -> ZetaParams:
    if abs(s.a111) < _A111_FLOOR * max(1.0, np.max(np.abs(s.eigenvalues))):
        raise DegenerateCubic(
            f"soft-mode cubic coefficient a111 = {s.a111:.3e} below threshold"
        )
    zeta = (abs(s.eigenvalues[0]) ** 3 / (2.0 * s.a111 ** 2)) ** (2.0 / 3.0)
    return ZetaParams.from_zeta(zeta, N)


def approx_wkb_nd(
    intg: IntegrandND, alpha: float, N: float, s: NdSaddleInfo
) -> NdApproxValue:
    """Gaussian fluctuation determinant around the n-D saddle."""
    lam = s.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))))
    # the gradient solve resolves the saddle only to ~sqrt(residual), so the
    # soft eigenvalue has a floor ~sqrt(a111 * residual) below which it is
    # numerically indistinguishable from zero
    floor = math.sqrt(50.0 * max(abs(s.a111), 1.0) * max(s.grad_residual, 1e-13))
    if abs(lam[0]) < max(1e-10 * scale, floor):
        raise CausticDivergence(
            f"soft eigenvalue {lam[0]:.3e}: fluctuation determinant divergent"
        )
    if np.any(lam[1:] >= 0.0):
        raise WrongRegime("transverse eigenvalues must be negative")
    phase = _soft_phase(intg, lam[0])
    f0 = complex(intg.F(s.x0, alpha))
    det_eff = abs(lam[0]) * float(np.prod(-lam[1:]))
    value = (
        phase
        * cmath.exp(N * f0)
        * (2.0 * math.pi / N) ** (intg.dim / 2.0)
        / math.sqrt(det_eff)
    )
    try:
        zp = _zeta_params(s, N).zeta_prime
    except DegenerateCubic:
        zp = math.inf
    return NdApproxValue(
        value=value,
        method=NdMethod.WKB_ND,
        zeta_prime=zp,
        det_neg_hessian=float(np.prod(-lam)),
        soft_lambda=float(lam[0]),
    )


def approx_corrected_nd(
    intg: IntegrandND, alpha: float, N: float, s: NdSaddleInfo
) -> NdApproxValue:
    """Fold-corrected fluctuation formula, caustic-safe at lambda_1 = 0.

    The expansion-point exponent is reconstructed from saddle data as
    F_tilde = F(x0) + lambda_1^3 / (3 a111^2); the mixed cubic terms a_i11
    are dropped but their relative size is recorded as a warning metric.
    Leading order: on a separable integrand it is the leading 1-D tilde
    form times the transverse Gaussians.
    """
    lam = s.eigenvalues
    if np.any(lam[1:] >= 0.0):
        raise WrongRegime("transverse eigenvalues must be negative")
    zp = _zeta_params(s, N)
    phase = _soft_phase(intg, lam[0]) if lam[0] != 0.0 else (
        1.0j if intg.soft_contour is not None else 1.0
    )
    f0 = complex(intg.F(s.x0, alpha))
    # N*F_tilde - exp_shift; the shift cancels exactly for a recessive anchor
    f_tilde = f0 + lam[0] ** 3 / (3.0 * s.a111 ** 2)
    exponent = N * f_tilde - zp.exp_shift
    root3 = math.copysign(abs(2.0 / (N * s.a111)) ** (1.0 / 3.0), s.a111)
    value = (
        phase
        * 2.0 * math.pi
        * (2.0 * math.pi / N) ** ((intg.dim - 1) / 2.0)
        * root3
        / math.sqrt(float(np.prod(-lam[1:])))
        * airy_ai_scaled(zp.zeta_prime)
        * cmath.exp(exponent)
    )
    warnings = []
    if s.a111 != 0.0 and abs(lam[0]) > 0.0:
        metric = np.abs(s.a_i11[1:] * lam[0] ** 2 / (lam[1:] * s.a111 ** 2))
        worst = float(np.max(metric)) if metric.size else 0.0
        if worst > 0.05:
            warnings.append(f"dropped mixed cubic terms not small: metric {worst:.3f}")
    return NdApproxValue(
        value=value,
        method=NdMethod.CORRECTED_ND,
        zeta_prime=zp.zeta_prime,
        det_neg_hessian=float(np.prod(-lam)),
        soft_lambda=float(lam[0]),
        warnings=tuple(warnings),
    )


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
            for N in N_grid:
                wkb = approx_wkb(intg, a, N, s)
                zp = ZetaParams.from_zeta(_saddle_zeta(s), N).zeta_prime
                corr = wkb.value * recovery_factor(zp, AiryKind.RECESSIVE)
                # status of the Gaussian term at the coalescing (fold) saddle
                fold_status = "finite"
                try:
                    zt = caustic.z_tilde_at(a)
                    fold_s = find_saddle(intg, a, zt + 0.05)
                    approx_wkb(intg, a, N, fold_s)
                except CausticDivergence:
                    fold_status = "divergent"
                except Exception:
                    fold_status = "unavailable"
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
        guess = intg.saddle_guess(a) if intg.saddle_guess else np.zeros(intg.dim)
        s = find_saddle_nd(intg, a, guess)
        for N in N_grid:
            corr = approx_corrected_nd(intg, a, N, s)
            try:
                wkb = approx_wkb_nd(intg, a, N, s)
                wkb_exp = math.log(abs(wkb.value)) / N
                ratio = abs(corr.value) / abs(wkb.value)
                fold = "finite"
            except CausticDivergence:
                wkb_exp = math.nan
                ratio = math.inf
                fold = "divergent"
            rows.append(
                {
                    "alpha": a,
                    "N": N,
                    "wkb_exponent": wkb_exp,
                    "corrected_exponent": math.log(abs(corr.value)) / N,
                    "exponent_gap": abs(wkb_exp - math.log(abs(corr.value)) / N)
                    if not math.isnan(wkb_exp)
                    else math.nan,
                    "prefactor_ratio": ratio,
                    "corrected": corr.value,
                    "wkb": None if fold == "divergent" else wkb.value,
                    "fold_wkb": fold,
                    "zeta_prime": corr.zeta_prime,
                    "regime": classify_regime(corr.zeta_prime).value,
                }
            )
    return rows
