"""One-variable asymptotic approximations of contour integrals
I(alpha, N) = prefactor * int g(z) exp(N f(z, alpha)) dz
near a fold caustic: naive WKB, the expansion-point ("tilde") Airy form,
the saddle-anchored caustic-safe form, and the two-saddle CFU expansion.

``tilde`` and ``cfu`` carry their first correction term, of relative order
N^{-1/3}; ``wkb`` and ``saddle`` are leading order.

Each formula takes N as one number or as a sequence of numbers.  The
per-alpha work (expansion-point and saddle data, descent phase, branch
candidates, the checks that raise) is done once for the whole sequence, and
the result is one ApproxValue per N, each equal to the call at that N alone.

Phase conventions
-----------------
All square and cube roots are taken in the descent frame: the effective
curvature at a saddle is |f''| with phase theta0 = (pi - arg f'')/2,
adjusted mod pi so that exp(i*theta0) has positive projection onto the
travel direction of the integration contour at the saddle.  This single
rule fixes every root branch and reproduces the classical Debye formula
on the Bessel family.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Number

from .airy import AiryKind, airy_ai_scaled, airy_ai_scaled_pair, recovery_factor
from .errors import (
    CausticDivergence,
    BranchAmbiguous,
    DegenerateCubic,
    WrongRegime,
)
from .integrand import Integrand1D, _derivative, derive
from .saddle import CausticInfo, SaddleInfo

__all__ = [
    "Method",
    "Regime",
    "ZetaParams",
    "ApproxValue",
    "approx_wkb",
    "approx_tilde",
    "approx_saddle_form",
    "approx_cfu",
    "regime_report",
]

# regime thresholds (zeta_prime)
CAUSTIC_WINDOW_MAX = 2.0
WKB_SAFE_MIN = 10.0

_IM_TOL = 1e-6


class Method(enum.Enum):
    WKB = "wkb"
    TILDE = "tilde"
    SADDLE_FORM = "saddle"
    CFU = "cfu"


class Regime(enum.Enum):
    CAUSTIC_WINDOW = "CausticWindow"
    TRANSITION = "Transition"
    WKB_SAFE = "WkbSafe"


@dataclass(frozen=True)
class ZetaParams:
    """The fold parameter and its N-scaled companions."""

    zeta: float
    zeta_prime: float
    branch_index: int
    exp_shift: float  # (2/3) * zeta_prime^{3/2}

    @classmethod
    def from_zeta(cls, zeta: float, N: float, branch_index: int = 0) -> "ZetaParams":
        zp = N ** (2.0 / 3.0) * zeta
        return cls(
            zeta=zeta,
            zeta_prime=zp,
            branch_index=branch_index,
            exp_shift=(2.0 / 3.0) * zp ** 1.5,
        )


@dataclass(frozen=True)
class ApproxValue:
    value: complex
    method: Method
    zeta_prime: float
    regime: Regime
    warnings: tuple[str, ...] = ()
    params: "ZetaParams | None" = None


def classify_regime(zeta_prime: float) -> Regime:
    if zeta_prime < CAUSTIC_WINDOW_MAX:
        return Regime.CAUSTIC_WINDOW
    if zeta_prime > WKB_SAFE_MIN:
        return Regime.WKB_SAFE
    return Regime.TRANSITION


def _descent_phase(intg: Integrand1D, z0: complex, f2: complex) -> float:
    """theta0 = (pi - arg f2)/2, flipped by pi if anti-parallel to the contour."""
    theta = (math.pi - cmath.phase(f2)) / 2.0
    u = intg.contour.tangent_near(z0)
    if math.cos(theta - cmath.phase(u)) < 0.0:
        theta += math.pi
    return theta


def _saddle_zeta(s: SaddleInfo) -> float:
    """zeta = [|f2|^3 / (2 |f3|^2)]^{2/3} built from saddle data alone."""
    if s.f3 == 0:
        raise DegenerateCubic("f''' vanishes at the saddle")
    return (abs(s.f2) ** 3 / (2.0 * abs(s.f3) ** 2)) ** (2.0 / 3.0)


def _over_grid(formula):
    """Let a formula written for a tuple of N also take one number.

    The formula does its per-alpha work, and raises its per-alpha errors,
    once for the whole grid and returns one ApproxValue per N; a single N
    is a one-element grid and gets its ApproxValue back unwrapped.
    """

    @functools.wraps(formula)
    def over_grid(intg, alpha, N, *args, **kwargs):
        if isinstance(N, Number):
            return formula(intg, alpha, (N,), *args, **kwargs)[0]
        return tuple(formula(intg, alpha, tuple(N), *args, **kwargs))

    return over_grid


@_over_grid
def approx_wkb(
    intg: Integrand1D, alpha: float, N: "float | Sequence[float]", s: SaddleInfo
) -> "ApproxValue | tuple[ApproxValue, ...]":
    """Leading Gaussian saddle-point term, phase-fixed in the descent frame.

    N is one number or a sequence of them (then one ApproxValue per N, in
    order); CausticDivergence depends on alpha only and raises for the
    whole grid.
    """
    scale = max(1.0, abs(s.f3))
    # at a near-double root the solver stalls with f1 ~ residual and
    # f2^2 ~ 2 f3 f1, so curvature below that floor is numerically zero
    floor = math.sqrt(50.0 * abs(s.f3) * max(s.residual, 1e-300))
    if abs(s.f2) < max(1e-10 * scale, floor):
        raise CausticDivergence(
            f"|f''(z0)| = {abs(s.f2):.2e}: Gaussian prefactor divergent at alpha={alpha}"
        )
    rotation = cmath.exp(1j * _descent_phase(intg, s.z0, s.f2))
    amplitude = intg.prefactor * intg.g(s.z0)
    curvature = abs(s.f2)
    try:
        zeta = _saddle_zeta(s)
    except DegenerateCubic:
        zeta = None
    out = []
    for n in N:
        value = (
            amplitude
            * cmath.exp(n * s.f0)
            * math.sqrt(2.0 * math.pi / (n * curvature))
            * rotation
        )
        zp = math.inf if zeta is None else ZetaParams.from_zeta(zeta, n).zeta_prime
        out.append(ApproxValue(value=value, method=Method.WKB, zeta_prime=zp,
                               regime=classify_regime(zp)))
    return out


def _cube_roots(w: complex) -> list[complex]:
    r = abs(w) ** (1.0 / 3.0)
    p = cmath.phase(w)
    return [r * cmath.exp(1j * (p + 2.0 * math.pi * k) / 3.0) for k in range(3)]


@_over_grid
def approx_tilde(
    intg: Integrand1D, alpha: float, N: "float | Sequence[float]", c: CausticInfo
) -> "ApproxValue | tuple[ApproxValue, ...]":
    """Expansion-point form anchored at z_tilde, where f'' vanishes, with its
    first correction term.

    With z = z_tilde + r N^{-1/3} u and r^3 = 2/f''', the cubic model turns
    the integral into 2 pi i g r N^{-1/3} e^{N f} Ai(zeta').  The quartic
    f'''' and the slope g' of the prefactor add the relative-order N^{-1/3}
    Airy moments (all derivatives at z_tilde(alpha)):

        Ai -> Ai + (f'''' r^4/24) N^{-1/3} (2 Ai' + zeta'^2 Ai)
                 - (g'/g) r N^{-1/3} Ai'.

    Exact for a pure cubic exponent with g at most linear.  N is one number
    or a sequence of them (then one ApproxValue per N, in order); z_tilde
    and its derivatives are found once, and DegenerateCubic and WrongRegime
    depend on alpha only and raise for the whole grid.  With
    ``real_result_hint`` the cube-root branch is chosen per N.
    """
    zt = c.z_tilde_at(alpha)
    ft = intg.f(zt, alpha)
    f1 = derive(intg, zt, alpha, 1)
    f3 = derive(intg, zt, alpha, 3)
    if abs(f3) < 1e-8 * max(1.0, abs(c.f3_tilde)):
        raise DegenerateCubic("f''' vanishes at the expansion point")
    f4 = derive(intg, zt, alpha, 4)
    g0 = intg.g(zt)
    g1 = complex(_derivative(lambda s: intg.g(zt + s), max(1.0, abs(zt)), 1))

    candidates = []
    for k, r in enumerate(_cube_roots(2.0 / f3)):
        zeta_c = -r * f1
        # an absolute floor: at the caustic zeta is zero up to the rounding
        # that the solve for z_tilde leaves in its imaginary part
        if abs(zeta_c.imag) > _IM_TOL * max(abs(zeta_c), 1e-12):
            continue
        if zeta_c.real < -_IM_TOL:
            continue
        candidates.append((k, r, max(zeta_c.real, 0.0)))
    if not candidates:
        raise WrongRegime(
            f"no cube-root branch yields a real fold parameter at alpha={alpha} "
            "(complex-saddle side?)"
        )
    # the first branch, unless real_result_hint asks for the most nearly
    # real value, which is chosen per N
    if not (intg.real_result_hint and len(candidates) > 1):
        candidates = candidates[:1]

    # per branch: the constant prefixes of the quartic term, of the value
    # and of the g' term, and the fold parameters over the grid
    prefixes = [
        (f4 * r ** 4 / 24.0, intg.prefactor * 2.0j * math.pi * r, g1 * r)
        for _, r, _ in candidates
    ]
    zps = [[ZetaParams.from_zeta(zeta, n, branch_index=k) for n in N]
           for k, _, zeta in candidates]
    pairs = airy_ai_scaled_pair([zp.zeta_prime for row in zps for zp in row])

    out = []
    for i, n in enumerate(N):
        n3 = n ** (-1.0 / 3.0)
        built = []
        for j, (quartic_c, value_c, g1r) in enumerate(prefixes):
            zp = zps[j][i]
            x = zp.zeta_prime
            ai, aip = pairs[j * len(N) + i]
            quartic = quartic_c * n3 * (2.0 * aip + x * x * ai)
            val = (
                value_c
                * n3
                * (g0 * (ai + quartic) - g1r * n3 * aip)
                * cmath.exp(n * ft - zp.exp_shift)
            )
            built.append((zp, val))
        zp, val = min(built, key=lambda t: abs(t[1].imag) / max(abs(t[1]), 1e-300))

        warnings = []
        if intg.real_result_hint and abs(val.imag) > _IM_TOL * abs(val):
            warnings.append("tilde: nonzero imaginary part despite real_result_hint")
        out.append(ApproxValue(
            value=val,
            method=Method.TILDE,
            zeta_prime=zp.zeta_prime,
            regime=classify_regime(zp.zeta_prime),
            warnings=tuple(warnings),
            params=zp,
        ))
    return out


@_over_grid
def approx_saddle_form(
    intg: Integrand1D,
    alpha: float,
    N: "float | Sequence[float]",
    s: SaddleInfo,
    c: CausticInfo,
) -> "ApproxValue | tuple[ApproxValue, ...]":
    """Saddle-anchored Airy form, evaluated in the cancelled (caustic-safe)
    shape so the zeta'^{1/4} suppression never meets a divergent Gaussian
    prefactor.  Leading order: it carries no correction term.

    N is one number or a sequence of them (then one ApproxValue per N, in
    order); z_tilde is found once, and DegenerateCubic depends on alpha
    only and raises for the whole grid.
    """
    if s.f3 == 0:
        raise DegenerateCubic("f''' vanishes at the saddle")
    zeta = _saddle_zeta(s)

    # exponent-sign constant from the consistency identity
    # N f(z_tilde) = N f(z0) - sgn * (2/3) zeta_prime^{3/2}
    ft = intg.f(c.z_tilde_at(alpha), alpha)
    df = (s.f0 - ft).real
    sgn = -1.0 if df <= 0.0 else 1.0
    shift = sgn + 1.0

    rotation = cmath.exp(1j * _descent_phase(intg, s.z0, s.f2))
    amplitude = (
        intg.prefactor * 2.0 * math.pi * intg.g(s.z0) * (2.0 / abs(s.f3)) ** (1.0 / 3.0)
    )
    # cross-check against the naive product form WKB * R
    naive = None
    if sgn < 0 and abs(s.f2) > 1e-6 * max(1.0, abs(s.f3)):
        naive = approx_wkb(intg, alpha, N, s)

    out = []
    for i, n in enumerate(N):
        zp = ZetaParams.from_zeta(zeta, n)
        aie = airy_ai_scaled(zp.zeta_prime)
        value = (
            amplitude
            * n ** (-1.0 / 3.0)
            * rotation
            * aie
            * cmath.exp(n * s.f0 - shift * zp.exp_shift)
        )
        warnings = []
        if naive is not None:
            product = naive[i].value * recovery_factor(zp.zeta_prime, AiryKind.RECESSIVE)
            denom = max(abs(value), 1e-300)
            if abs(product - value) / denom > 1e-9:
                warnings.append(
                    f"saddle-form: cancelled/naive mismatch {abs(product - value) / denom:.2e}"
                )
        out.append(ApproxValue(
            value=value,
            method=Method.SADDLE_FORM,
            zeta_prime=zp.zeta_prime,
            regime=classify_regime(zp.zeta_prime),
            warnings=tuple(warnings),
            params=zp,
        ))
    return out


@_over_grid
def approx_cfu(
    intg: Integrand1D,
    alpha: float,
    N: "float | Sequence[float]",
    s: SaddleInfo,
    p: SaddleInfo,
) -> "ApproxValue | tuple[ApproxValue, ...]":
    """Two-saddle uniform (Chester-Friedman-Ursell) form with its first
    correction term:

        2 pi i e^{N A} [a0 N^{-1/3} Ai(zeta') + b0 N^{-2/3} Ai'(zeta')],

    where a0 and b0 are the half-sum and the half-difference over sqrt(zeta)
    of the two saddle amplitudes.  b0 vanishes for a symmetric pair.

    N is one number or a sequence of them (then one ApproxValue per N, in
    order); a0, b0 and zeta are built once, and BranchAmbiguous depends on
    alpha only and raises for the whole grid.
    """
    if abs(p.z0 - s.z0) < 1e-12 * max(1.0, abs(s.z0)):
        raise BranchAmbiguous("CFU needs two distinct saddles")
    # label so that f(z0) - f(z0^*) has positive real part, making zeta real
    if (s.f0 - p.f0).real < 0.0:
        s, p = p, s
    w = 0.75 * (s.f0 - p.f0)
    if abs(w.imag) > _IM_TOL * max(abs(w), 1e-300):
        raise BranchAmbiguous(
            f"no saddle labeling makes the fold parameter real (Im = {w.imag:.2e})"
        )
    zeta = w.real ** (2.0 / 3.0)

    sq = math.sqrt(zeta)
    term_s = intg.g(s.z0) * cmath.sqrt(2.0 * sq / (-s.f2))
    term_p = intg.g(p.z0) * cmath.sqrt(2.0 * sq / p.f2)
    a0 = 0.5 * (term_s + term_p)
    b0 = 0.5 * (term_s - term_p) / sq

    big_a = 0.5 * (s.f0 + p.f0)
    amplitude = intg.prefactor * 2.0j * math.pi
    zps = [ZetaParams.from_zeta(zeta, n) for n in N]
    out = []
    for n, zp, (ai, aip) in zip(N, zps, airy_ai_scaled_pair([zp.zeta_prime for zp in zps])):
        n3 = n ** (-1.0 / 3.0)
        # exp(N*A) * Ai(zeta') evaluated log-safe: N*A - exp_shift = N f(z0^*)
        value = (
            amplitude
            * n3
            * (a0 * ai + b0 * n3 * aip)
            * cmath.exp(n * big_a - zp.exp_shift)
        )
        warnings = []
        if intg.real_result_hint and abs(value.imag) > _IM_TOL * max(abs(value), 1e-300):
            warnings.append("cfu: nonzero imaginary part despite real_result_hint")
        out.append(ApproxValue(
            value=value,
            method=Method.CFU,
            zeta_prime=zp.zeta_prime,
            regime=classify_regime(zp.zeta_prime),
            warnings=tuple(warnings),
            params=zp,
        ))
    return out


def regime_report(intg: Integrand1D, alpha: float, N: float) -> dict:
    """Best-effort diagnostic of where (alpha, N) sits relative to the fold."""
    from .saddle import find_caustic, find_saddle

    report = {"alpha": alpha, "N": N}
    try:
        c = find_caustic(intg)
        zt = c.z_tilde_at(alpha)
        f1t = derive(intg, zt, alpha, 1)
        f3t = derive(intg, zt, alpha, 3)
        zeta = (-_cube_roots(2.0 / f3t)[0] * f1t).real
        zeta = max(zeta, 0.0)
        zp = N ** (2.0 / 3.0) * zeta
        report["zeta_prime"] = zp
        report["fold_displacement"] = (
            N ** (2.0 / 3.0) * abs(f1t) * abs(2.0 / f3t) ** (1.0 / 3.0)
        )
        report["regime"] = classify_regime(zp).value
    except Exception as exc:  # best-effort: partial report on failure
        report["caustic_error"] = str(exc)
    try:
        guess = intg.saddle_guess(alpha) if intg.saddle_guess else 0.1 + 0.0j
        s = find_saddle(intg, alpha, guess)
        report["curvature_scale"] = N ** (1.0 / 3.0) * abs(s.f2)
        if "zeta_prime" in report:
            report["saddle_tilde_gap"] = abs(c.z_tilde_at(alpha) - s.z0)
    except Exception as exc:
        report["saddle_error"] = str(exc)
    return report
