"""Multivariable asymptotics on the one-variable engine.

``find_saddle_nd`` integrates the transverse coordinates out by Laplace's
method (the splitting lemma), leaves a one-variable integrand in the soft
coordinate and alone decides if its saddle is usable.  ``wkb-nd`` and
``corrected-nd`` are ``approx_wkb`` and ``approx_saddle_form`` on that
integrand, at that saddle, times the transverse Gaussian factor
(2 pi / N)^((n-1)/2).  The saddle is the one the soft contour passes
through: the recessive one on the registry families.
``corrected-nd`` reads its exponent sign at the fold point z_tilde(alpha) of
that saddle's own pair, from one Newton solve at this alpha, not alpha_hat.

``mean_field_compare`` sets ``wkb`` beside WKB * R on the 1-D mean-field toy.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

from .airy import recovery_factor
# nothing in the package calls this name here; the only reason the import
# exists is that the span tracer (bench/spans.py, TARGETS) wraps
# asymnd.airy_ai_scaled by name.  It goes when TARGETS drops that entry.
from .airy import airy_ai_scaled  # noqa: F401
from .asym1d import _over_grid, _saddle_form, approx_wkb
from .errors import BadParameter, CausticaError, CausticDivergence, DegenerateCubic, WrongRegime
from .integrand import Integrand1D, IntegrandND, _n_grid
from .saddle import NdSaddleInfo, _check_fold, _fold_point, find_caustic, find_saddle

__all__ = ["approx_wkb_nd", "approx_corrected_nd", "mean_field_compare"]


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
    return _with_gaussians(intg, N, approx_wkb(s.reduced, alpha, N, s.saddle))


@_over_grid
def approx_corrected_nd(intg: IntegrandND, alpha: float, N, s: NdSaddleInfo):
    """``approx_saddle_form`` on the reduced integrand, times the transverse
    Gaussians: finite through the fold.  z_tilde(alpha) of the saddle's own
    pair is solved at this alpha from the inflection z0 - f''/f''' of its
    cubic model (no alpha_hat), and DegenerateCubic raised where f''' is
    zero there.  N is one number or a sequence of them, as for 1-D."""
    sd = s.saddle
    if sd.f3 == 0:
        raise DegenerateCubic("f''' vanishes at the saddle")
    _, ft, (_, f2, f3, f4) = _fold_point(s.reduced, alpha, sd.z0 - sd.f2 / sd.f3, sd.f3)
    _check_fold(f3, f4, abs(f2), order=2)
    return _with_gaussians(intg, N, _saddle_form(s.reduced, alpha, N, sd, ft))


def mean_field_compare(intg, alpha_grid, N_grid) -> list[dict]:
    """Leading-exponent comparison of WKB and corrected values.

    Demonstrates that both share the mean-field exponent while only the
    corrected prefactor stays finite through the caustic.  Takes a 1-D
    integrand (the mean-field toy) and raises WrongRegime for anything else,
    and where a wkb value underflows to zero; BadParameter where it has no
    ``saddle_guess`` to solve from.  N_grid is one N or a grid of them, as
    for the formulas.
    """
    if not isinstance(intg, Integrand1D):
        raise WrongRegime("mean_field_compare needs an Integrand1D")
    if intg.saddle_guess is None:
        raise BadParameter("mean_field_compare needs the integrand's saddle_guess")
    N_grid = _n_grid(N_grid)
    rows = []
    caustic = find_caustic(intg)
    for a in alpha_grid:
        s = find_saddle(intg, a, intg.saddle_guess(a))
        wkbs = approx_wkb(intg, a, N_grid, s)
        if s.f3 == 0:  # no cubic term: the records' zeta' is infinite, no fold
            raise DegenerateCubic("f''' vanishes at the saddle")
        # the Gaussian term's status at the coalescing (fold) saddle depends on
        # alpha only; the probe starts at the cubic model's z_tilde + sqrt(-2 f'/f''')
        fold_status = "finite"
        try:
            zt, _, (f1, _, f3, _) = _fold_point(intg, a, caustic.z_tilde, caustic.f3_tilde)
            fold_s = find_saddle(intg, a, zt + cmath.sqrt(-2.0 * f1 / f3))
            approx_wkb(intg, a, N_grid, fold_s)
        except CausticDivergence:
            fold_status = "divergent"
        except CausticaError:
            fold_status = "unavailable"
        for N, wkb in zip(N_grid, wkbs):
            if wkb.value == 0:  # e^{N f0} below the double range: no exponent to read
                raise WrongRegime(
                    f"mean_field_compare: |wkb| underflows a double at alpha={a}, N={N}"
                )
            corr = wkb.value * recovery_factor(wkb.zeta_prime)
            log_corr = math.log(abs(corr)) if corr != 0 else -math.inf
            rows.append(
                {
                    "alpha": a,
                    "N": N,
                    "wkb_exponent": math.log(abs(wkb.value)) / N,
                    "corrected_exponent": log_corr / N,
                    "exponent_gap": abs(math.log(abs(wkb.value)) - log_corr) / N,
                    "prefactor_ratio": abs(corr) / abs(wkb.value),
                    "corrected": corr,
                    "wkb": wkb.value,
                    "fold_wkb": fold_status,
                    "zeta_prime": wkb.zeta_prime,
                    "regime": wkb.regime.value,
                }
            )
    return rows
