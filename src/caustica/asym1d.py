"""One-variable asymptotic approximations of contour integrals
I(alpha, N) = prefactor * int g(z) exp(N f(z, alpha)) dz
near a fold caustic: naive WKB, the expansion-point ("tilde") Airy form,
the saddle-anchored caustic-safe form, and the two-saddle CFU expansion.

``tilde`` and ``cfu`` carry their first correction term, of relative order
N^{-1/3}; ``wkb`` and ``saddle`` are leading order.

Each formula takes N as one number or as a sequence of numbers.  The
per-alpha set-up (expansion-point and saddle data, descent phase, branch
candidates, the checks that raise) is done once for the whole sequence, and
the result is one ApproxValue per N, each equal to the call at that N alone.
Per N only arithmetic is left: one ``airy_ai_scaled_pair`` call serves the
grid, and for a single N it is one scalar ``airye`` call (``airy`` module
docstring).  The set-up's solves, jets and contour projection are steps of the
integrand's memo (``integrand`` module docstring), as is ``tilde``'s whole
set-up, so a formula called once per N at one alpha runs them on the first
call only; a typed error is raised again on every call.  Where |I|
overflows a double the formula raises WrongRegime.

An ApproxValue holds the value, the fold parameter zeta' = N^{2/3} zeta,
the warnings and, for ``tilde`` only, the cube-root branch index; its
``regime`` is derived from zeta'.

Phase conventions
-----------------
``wkb``'s and ``saddle``'s square roots are taken in the descent frame: the
effective curvature at a saddle is |f''| with phase theta0 = (pi - arg f'')/2,
adjusted mod pi so that exp(i*theta0) has positive projection onto the
travel direction of the integration contour at its point nearest the
saddle (``ContourPath.project``), the point that ``quad_contour`` moves
through the saddle.  This rule reproduces the classical Debye formula on
the Bessel family.  ``tilde``'s cube root r of 2/f''' is the branch that
makes zeta = -r f' real and non-negative; where several do (zeta ~ 0, at
the caustic) it is the most nearly real r.  ``cfu`` takes principal square
roots.  Neither ``tilde`` nor ``cfu`` reads the contour, so on a contour
traversed the other way both return -I.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .airy import airy_ai_scaled_pair
from .errors import BadParameter, CausticDivergence, BranchAmbiguous, DegenerateCubic, WrongRegime
from .integrand import _NUMBER, Integrand1D, _derivatives, _jet, _n_grid, _per_alpha
from .saddle import CausticInfo, NdSaddleInfo, SaddleInfo, _fold_point
# nothing in the package calls these names here; the span tracer (bench/spans.py,
# TARGETS) wraps them in asym1d by name.  They go when TARGETS drops them.
from .airy import airy_ai_scaled, recovery_factor  # noqa: F401
from .integrand import derive  # noqa: F401

__all__ = [
    "Regime",
    "ApproxValue",
    "approx_wkb",
    "approx_tilde",
    "approx_saddle_form",
    "approx_cfu",
]

# regime thresholds (zeta_prime)
CAUSTIC_WINDOW_MAX = 2.0
WKB_SAFE_MIN = 10.0

_IM_TOL = 1e-6


class Regime(enum.Enum):
    CAUSTIC_WINDOW = "CausticWindow"
    TRANSITION = "Transition"
    WKB_SAFE = "WkbSafe"


@dataclass(frozen=True)
class ApproxValue:
    """One formula's value at one (alpha, N).

    ``zeta_prime`` = N^{2/3} zeta places the value relative to the fold; it
    is infinite for ``wkb`` where f''' vanishes at the saddle.  ``regime``
    is derived from it.  ``branch`` is the cube-root branch index that
    ``tilde`` chose; the other formulas have no branch choice and leave it
    None.
    """

    value: complex
    zeta_prime: float
    warnings: tuple[str, ...] = ()
    branch: "int | None" = None

    @property
    def regime(self) -> "Regime":
        return classify_regime(self.zeta_prime)


def classify_regime(zeta_prime: float) -> Regime:
    if zeta_prime < CAUSTIC_WINDOW_MAX:
        return Regime.CAUSTIC_WINDOW
    if zeta_prime > WKB_SAFE_MIN:
        return Regime.WKB_SAFE
    return Regime.TRANSITION


@_per_alpha("project")
def _descent_phase(intg: Integrand1D, alpha: float, z0: complex, f2: complex) -> float:
    """theta0 = (pi - arg f2)/2, flipped by pi if anti-parallel to the contour."""
    theta = (math.pi - cmath.phase(f2)) / 2.0
    u = intg.contour.project(z0)[2]
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
    BadParameter where alpha is not finite, N is not a grid (``_n_grid``)
    or a saddle argument (a ``SaddleInfo``, or an ``NdSaddleInfo``'s
    ``saddle``) was solved at another alpha; WrongRegime where a value
    overflows a double.
    """

    @functools.wraps(formula)
    def over_grid(intg, alpha, N, *args, **kwargs):
        if not math.isfinite(alpha):
            raise BadParameter(f"alpha must be finite, got {alpha}")
        for s in (*args, *kwargs.values()):
            s = s.saddle if isinstance(s, NdSaddleInfo) else s
            if isinstance(s, SaddleInfo) and s.alpha != alpha:
                raise BadParameter(
                    f"{formula.__name__}: saddle solved at alpha={s.alpha}, not at alpha={alpha}"
                )
        try:
            values = formula(intg, alpha, _n_grid(N), *args, **kwargs)
        except OverflowError as exc:
            raise WrongRegime(
                f"{formula.__name__}: |I| overflows a double at alpha={alpha}, N={N}"
            ) from exc
        return values[0] if isinstance(N, _NUMBER) else tuple(values)

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
    rotation = cmath.exp(1j * _descent_phase(intg, alpha, s.z0, s.f2))
    scale = max(1.0, abs(s.f3))
    # at a near-double root the solver stalls with f1 ~ residual and
    # f2^2 ~ 2 f3 f1, so curvature below that floor is numerically zero
    floor = math.sqrt(50.0 * abs(s.f3) * max(s.residual, 1e-300))
    if abs(s.f2) < max(1e-10 * scale, floor):
        raise CausticDivergence(
            f"|f''(z0)| = {abs(s.f2):.2e}: Gaussian prefactor divergent at alpha={alpha}"
        )
    zeta = None if s.f3 == 0 else _saddle_zeta(s)
    amplitude, curvature = intg.prefactor * intg.g(s.z0), abs(s.f2)
    return [
        ApproxValue(
            amplitude * cmath.exp(n * s.f0) * math.sqrt(2.0 * math.pi / (n * curvature)) * rotation,
            math.inf if zeta is None else n ** (2.0 / 3.0) * zeta,
        )
        for n in N
    ]


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
    depend on alpha only and raise for the whole grid, as does the
    cube-root branch (module docstring).
    """
    return _airy_grid(intg, "tilde", N, *_tilde_setup(intg, alpha, c.z_tilde, c.f3_tilde))


@_per_alpha("tilde")
def _tilde_setup(intg: Integrand1D, alpha: float, z_tilde: complex, f3_tilde: complex):
    """``approx_tilde``'s arguments to ``_airy_grid`` after ``N``."""
    zt, ft, (f1, _, f3, f4) = _fold_point(intg, alpha, z_tilde, f3_tilde)
    if abs(f3) < 1e-8 * max(1.0, abs(f3_tilde)):
        raise DegenerateCubic("f''' vanishes at the expansion point")
    g0 = intg.g(zt)
    g1 = complex(_derivatives(*_jet(lambda s: intg.g(zt + s), max(1.0, abs(zt))), 1)[0])

    w, candidates = 2.0 / f3, []
    for k in range(3):
        r = abs(w) ** (1.0 / 3.0) * cmath.exp(1j * (cmath.phase(w) + 2.0 * math.pi * k) / 3.0)
        zeta_c = -r * f1
        # an absolute floor: at the caustic zeta is zero up to the rounding
        # that the solve for z_tilde leaves in its imaginary part
        if not (abs(zeta_c.imag) > _IM_TOL * max(abs(zeta_c), 1e-12) or zeta_c.real < -_IM_TOL):
            candidates.append((k, r, max(zeta_c.real, 0.0)))
    if not candidates:
        raise WrongRegime(
            f"no cube-root branch yields a real fold parameter at alpha={alpha} "
            "(complex-saddle side?)"
        )
    # several branches pass only where zeta ~ 0; the most nearly real r is
    # the one that continues from the real-saddle side, where r = -zeta/f'
    k, r, zeta = min(candidates, key=lambda t: abs(t[1].imag) / abs(t[1]))

    quartic_c, g1r = f4 * r ** 4 / 24.0, g1 * r
    return (
        zeta, intg.prefactor * 2.0j * math.pi * r, ft,
        lambda n3, x, ai, aip: (
            g0 * (ai + quartic_c * n3 * (2.0 * aip + x * x * ai)) - g1r * n3 * aip
        ),
        k,
    )


def _airy_grid(intg, name, N, zeta, amplitude, exponent, inner, branch=None):
    """``tilde``'s and ``cfu``'s values over the tuple N: per N, with
    zeta' = N^{2/3} zeta, n3 = N^{-1/3} and the scaled Ai, Ai' at zeta' from
    one Airy call, the log-safe product
    amplitude * n3 * inner(n3, zeta', Ai, Ai') * exp(N exponent - (2/3) zeta'^{3/2}).
    """
    xs = [n ** (2.0 / 3.0) * zeta for n in N]
    out = []
    for n, x, (ai, aip) in zip(N, xs, airy_ai_scaled_pair(xs)):
        n3 = n ** (-1.0 / 3.0)
        value = (
            amplitude
            * n3
            * inner(n3, x, ai, aip)
            * cmath.exp(n * exponent - (2.0 / 3.0) * x ** 1.5)
        )
        warnings = []
        if intg.real_result_hint and abs(value.imag) > _IM_TOL * abs(value):
            warnings.append(f"{name}: nonzero imaginary part despite real_result_hint")
        out.append(ApproxValue(value, x, tuple(warnings), branch))
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
    order); z_tilde is found once, Ai over the grid comes from one Airy
    call, and DegenerateCubic depends on alpha only and raises for the whole
    grid.
    """
    return _saddle_form(intg, alpha, N, s, _fold_point(intg, alpha, c.z_tilde, c.f3_tilde)[1])


def _saddle_form(intg: Integrand1D, alpha: float, N: tuple, s: SaddleInfo, ft: complex):
    """``approx_saddle_form`` over the tuple N, with f(z_tilde(alpha)) given."""
    zeta = _saddle_zeta(s)

    # exponent-sign constant sgn from the consistency identity
    # N f(z_tilde) = N f(z0) - sgn * (2/3) zeta_prime^{3/2}; shift = sgn + 1
    shift = 0.0 if (s.f0 - ft).real <= 0.0 else 2.0

    rotation = cmath.exp(1j * _descent_phase(intg, alpha, s.z0, s.f2))
    amplitude = (
        intg.prefactor * 2.0 * math.pi * intg.g(s.z0) * (2.0 / abs(s.f3)) ** (1.0 / 3.0)
    )
    xs = [n ** (2.0 / 3.0) * zeta for n in N]
    return [
        ApproxValue(
            amplitude
            * n ** (-1.0 / 3.0)
            * rotation
            * aie
            * cmath.exp(n * s.f0 - shift * ((2.0 / 3.0) * x ** 1.5)),
            x,
        )
        for n, x, (aie, _) in zip(N, xs, airy_ai_scaled_pair(xs))
    ]


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
    if w == 0:  # b0 would divide by sqrt(zeta) = 0
        raise BranchAmbiguous("the two saddles have equal f(z0): the fold parameter is zero")
    zeta = w.real ** (2.0 / 3.0)

    sq = math.sqrt(zeta)
    term_s = intg.g(s.z0) * cmath.sqrt(2.0 * sq / (-s.f2))
    term_p = intg.g(p.z0) * cmath.sqrt(2.0 * sq / p.f2)
    a0 = 0.5 * (term_s + term_p)
    b0 = 0.5 * (term_s - term_p) / sq

    # A = (f(z0) + f(z0^*))/2, and N A - (2/3) zeta'^{3/2} = N f(z0^*)
    return _airy_grid(
        intg, "cfu", N, zeta, intg.prefactor * 2.0j * math.pi, 0.5 * (s.f0 + p.f0),
        lambda n3, x, ai, aip: a0 * ai + b0 * n3 * aip,
    )
