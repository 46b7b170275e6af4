"""Brute-force reference values.

``quad_contour`` integrates g(z) exp(N f(z, alpha)) along the declared
contour moved through the saddle: a fixed 16-node Gauss–Legendre rule on
panels graded geometrically away from the saddle, halved where the rule
disagrees with itself on the two halves of a panel, all nodes of a round in
one array call of f and g.  The rule converges exponentially for these
analytic integrands (Trefethen & Weideman, SIAM Rev. 2014; Gil, Segura &
Temme 2007, ch. 5).  Where one saddle dominates, the integrand on the moved
contour is no larger than |I| calls for, so the error test is relative to
|I|, and a rounding term makes cancellation raise rather than pass.
``cubature_nd`` runs iterated adaptive QUADPACK quadrature for the n-D
integrands, and ``bessel_ref`` is J_N from scipy.  Quadrature values carry
an error estimate and are exponent-shifted so that the largest integrand
magnitude is O(1) during quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import jv

from .errors import (
    CausticaError,
    DimensionTooLarge,
    RayDivergence,
    ToleranceNotMet,
)
from .integrand import ContourPath, Integrand1D, IntegrandND
from .saddle import find_saddle

__all__ = ["QuadResult", "quad_contour", "cubature_nd", "bessel_ref"]

_TRUNC_FACTOR = 1e-3  # envelope cutoff relative to tol
_RAY_MAX = 400.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_MAX_ROUNDS = 10  # rounds of quad_contour, each halving the panels it rejects
_ROUNDING = 8.0  # c in the rounding term c eps sum |w h|
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


def _ray_length(h, tol_abs):
    """March along a ray until the envelope drops below the cutoff."""
    r = 1.0
    while r <= _RAY_MAX:
        if abs(h(r)) < tol_abs and abs(h(min(r * 1.3, _RAY_MAX))) < tol_abs:
            return r
        r *= 1.5
    raise RayDivergence("integrand does not decay along a contour ray")


def _quad_segments(segments, tol):
    """Sum of complex quad panels h(t) dt over parametrized segments.

    Each segment is (callable t -> complex, t_lo, t_hi).
    """
    total = 0.0 + 0.0j
    err = 0.0
    nev = 0
    for func, lo, hi in segments:
        counter = [0]

        def wrapped(t, func=func, counter=counter):
            counter[0] += 1
            return func(t)

        val, e = quad(wrapped, lo, hi, complex_func=True,
                      epsabs=tol, epsrel=tol, limit=400)
        total += val
        err += abs(e)
        nev += counter[0]
    return total, err, nev


def _contour_segments(contour: ContourPath, h, tol_abs):
    """Parametrized panels for the polyline plus truncated rays.

    ``h`` maps a complex point to the (shifted) integrand value; returned
    segment callables already include the dz/dt Jacobian.
    """
    segs = []
    # incoming ray: travel runs from infinity toward nodes[0]; parametrize
    # with increasing t and fold the direction reversal into the sign
    # (scipy's quad mishandles reversed limits with complex_func=True)
    u_in = cmath.exp(1j * contour.tail_angle)
    a0 = contour.nodes[0]
    r_in = _ray_length(lambda r: h(a0 + r * u_in), tol_abs)
    segs.append((lambda t: -h(a0 + t * u_in) * u_in, 0.0, r_in))
    for a, b in zip(contour.nodes, contour.nodes[1:]):
        d = b - a
        segs.append((lambda t, a=a, d=d: h(a + t * d) * d, 0.0, 1.0))
    u_out = cmath.exp(1j * contour.head_angle)
    b0 = contour.nodes[-1]
    r_out = _ray_length(lambda r: h(b0 + r * u_out), tol_abs)
    segs.append((lambda t: h(b0 + t * u_out) * u_out, 0.0, r_out))
    return segs


def _polyline(contour: ContourPath, r_in: float, r_out: float):
    """Vertices of the contour with its rays cut at r_in and r_out, in travel
    order, and their arc positions measured from ``nodes[0]``."""
    u_in = cmath.exp(1j * contour.tail_angle)
    u_out = cmath.exp(1j * contour.head_angle)
    nodes = contour.nodes
    v = np.array([nodes[0] + r_in * u_in, *nodes, nodes[-1] + r_out * u_out])
    s = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(v))))) - r_in
    return v, s


def _project(v, s, z):
    """The point of the polyline (v, s) nearest z, and its arc position."""
    a, d = v[:-1], np.diff(v)
    t = np.clip(((z - a) / d).real, 0.0, 1.0)
    i = int(np.argmin(np.abs(z - (a + t * d))))
    return a[i] + t[i] * d[i], s[i] + t[i] * (s[i + 1] - s[i])


def _gauss_legendre(a, b):
    """Nodes and weights (dz included) of the rule on each panel [a, b]."""
    half = (b - a) / 2.0
    return ((a + b) / 2.0)[:, None] + half[:, None] * _GL_X, half[:, None] * _GL_W


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def quad_contour(
    intg: Integrand1D, alpha: float, N: float, tol: float = 1e-10
) -> QuadResult:
    """Reference value of the contour integral, within ``10 tol |I|``.

    The declared contour is translated by z_s - p, where z_s is the saddle
    from ``find_saddle`` started at ``saddle_guess(alpha)`` and p the contour
    point nearest it; the ray angles, and so the end valleys, are kept.
    Without a guess, or where the solve raises, the declared contour is used
    as it is, graded from its node of largest Re f.  Each ray is cut where
    N (Re f - Re f(z_s)) drops below log(tol 1e-3) for good, judged on a
    geometric grid of radii.  Panel breakpoints lie at arc distances
    N^(-1/2) 2^k from the saddle and at the contour's corners; each panel
    gets a 16-node Gauss–Legendre rule, and its error estimate is
    |GL(panel) - GL(left half) - GL(right half)|.  Panels whose estimate
    exceeds their share of tol |I| are halved, for at most ``_MAX_ROUNDS``
    rounds.  The exponent is shifted by the largest Re f over the first
    round's nodes.

    The error estimate sums the panel estimates, a rounding term
    8 eps sum |w h| over the nodes, and the truncation cutoff.  Unless it is
    at most 10 tol |I|, ToleranceNotMet is raised: the rounding term turns
    cancellation, where |I| is far below the integrand's size on the
    contour, into that error rather than a wrong value.  It is raised too
    where |I| over- or underflows a normal double.  ``evaluations`` counts
    integrand points.
    """
    contour = intg.contour
    v, s = _polyline(contour, _RAY_MAX, _RAY_MAX)
    saddle = None
    if intg.saddle_guess is not None:
        try:
            saddle = find_saddle(intg, alpha, intg.saddle_guess(alpha))
        except CausticaError:
            pass
    if saddle is None:
        nodes = np.array(contour.nodes)
        fn = intg.f(nodes, alpha).real
        k = int(np.argmax(fn))
        ref, s_c = fn[k], s[k + 1]
    else:
        p, s_c = _project(v, s, saddle.z0)
        contour = replace(contour, nodes=tuple(z + (saddle.z0 - p) for z in contour.nodes))
        ref = saddle.f0.real

    # cut each ray at the first radius of the grid from which N (Re f - ref)
    # stays below the cutoff; both rays in one call of f
    r = np.concatenate(([0.0], _RAY_MAX * 2.0 ** (np.arange(-25, 1) / 2.0)))
    u = np.exp(1j * np.array([[contour.tail_angle], [contour.head_angle]]))
    ends = np.array([[contour.nodes[0]], [contour.nodes[-1]]])
    above = ~(N * (intg.f(ends + r * u, alpha).real - ref) < math.log(tol * _TRUNC_FACTOR))
    if above[:, -1].any():
        raise RayDivergence("integrand does not decay along a contour ray")
    cuts = [r[np.flatnonzero(row)[-1] + 1] if row.any() else 0.0 for row in above]
    v, s = _polyline(contour, *cuts)

    # panel breakpoints at arc distances N^(-1/2) 2^k from the saddle and at
    # the corners of the contour
    lo, hi = s[0], s[-1]
    h0 = N ** -0.5
    steps = h0 * 2.0 ** np.arange(math.ceil(math.log2(max(hi - lo, h0) / h0)) + 1)
    bp = np.concatenate((s, [s_c], s_c - steps, s_c + steps))
    bp = np.unique(bp[(bp >= lo) & (bp <= hi)])
    zb = np.interp(bp, s, v.real) + 1j * np.interp(bp, s, v.imag)
    a, b = zb[:-1], zb[1:]

    shift = None
    total = err = absum = 0.0
    nev = 0
    for rnd in range(_MAX_ROUNDS):
        # every open panel and its two halves, in one call of f and g
        n, m = len(a), (a + b) / 2.0
        z, w = _gauss_legendre(np.concatenate((a, a, m)), np.concatenate((b, m, b)))
        fz = intg.f(z, alpha)
        if shift is None:
            shift = float(np.max(fz.real))
        hw = intg.g(z) * np.exp(N * (fz - shift)) * w
        nev += z.size
        whole, left, right = hw.sum(axis=1).reshape(3, n)
        mag = np.abs(hw[n:]).sum(axis=1).reshape(2, n).sum(axis=0)
        pair = left + right
        est = np.abs(whole - pair)
        share = (tol * abs(total + pair.sum()) - err) / n
        done = (est <= share) | (rnd == _MAX_ROUNDS - 1)
        total += pair[done].sum()
        err += est[done].sum()
        absum += mag[done].sum()
        keep = ~done
        a, b = np.concatenate((a[keep], m[keep])), np.concatenate((m[keep], b[keep]))
        if not len(a):
            break

    abs_err = err + _ROUNDING * _EPS * absum + tol * _TRUNC_FACTOR * np.exp(N * (ref - shift))
    if not abs_err <= 10.0 * tol * abs(total):
        raise ToleranceNotMet(
            f"quadrature error {abs_err:.2e} exceeds 10 tol |I| for |I|={abs(total):.2e}"
            " (scaled by the exponent shift)"
        )
    scale = np.exp(N * shift)
    if not np.finfo(float).tiny <= abs(total) * scale < math.inf:
        raise ToleranceNotMet(
            f"|I| = {abs(total):.2e} e^({N * shift:.4g}) is outside the double range"
        )
    scale = float(scale) * contour.orientation * intg.prefactor
    return QuadResult(
        value=complex(total * scale), abs_error_estimate=abs_err * abs(scale), evaluations=nev
    )


def _real_halfwidth(F, center, direction, alpha, N, tol_abs):
    """Distance along a real direction until exp(N dF) falls below cutoff."""
    base = F(center, alpha).real
    target = math.log(tol_abs) / N
    t = 0.5
    while t <= _RAY_MAX:
        if (F(center + t * direction, alpha).real - base) < target and (
            F(center - t * direction, alpha).real - base
        ) < target:
            return 1.3 * t
        t *= 1.4
    raise RayDivergence("n-D integrand does not decay along a real axis")


def cubature_nd(
    intg: IntegrandND, alpha: float, N: float, tol: float = 1e-8
) -> QuadResult:
    """Iterated adaptive quadrature; soft coordinate may run on a complex
    contour, the rest on truncated real intervals."""
    n = intg.dim
    if n > 4:
        raise DimensionTooLarge(f"cubature supports n <= 4, got {n}")
    center = np.zeros(n)
    if intg.saddle_guess is not None:
        center = np.asarray(intg.saddle_guess(alpha), dtype=float)
    f0 = float(np.real(intg.F(center, alpha)))
    tol_abs = tol * _TRUNC_FACTOR
    evals = [0]

    # half-widths for the real (outer) coordinates
    widths = []
    for i in range(1, n):
        e = np.zeros(n)
        e[i] = 1.0
        widths.append(_real_halfwidth(intg.F, center, e, alpha, N, tol_abs))

    soft = intg.soft_contour

    def inner(outer):
        # innermost: soft coordinate
        if soft is None:
            e = np.zeros(n)
            e[0] = 1.0
            w = _real_halfwidth(intg.F, center, e, alpha, N, tol_abs)

            def h(t):
                evals[0] += 1
                x = np.concatenate(([t], outer))
                return cmath.exp(N * (intg.F(x, alpha) - f0))

            val, err = quad(h, center[0] - w, center[0] + w,
                            complex_func=True, epsabs=tol, epsrel=tol, limit=200)
            return val, abs(err)

        def h(z):
            evals[0] += 1
            x = np.empty(n, dtype=complex)
            x[0] = z
            x[1:] = outer
            return cmath.exp(N * (intg.F(x, alpha) - f0))

        segs = _contour_segments(soft, h, tol_abs)
        v, e, _ = _quad_segments(segs, tol)
        return v, e

    # error estimates collected per nesting depth; a depth's mean estimate is
    # weighted by the measure of the variables enclosing it rather than summed
    # over every evaluation node, which would overcount by the node count
    err_lists = [[] for _ in range(n)]

    def level(i, outer):
        # integrate coordinate index n-1-i ... build from the outside in
        if i == n - 1:
            v, e = inner(outer)
            err_lists[i].append(e)
            return v
        idx = n - 1 - i
        w = widths[idx - 1]

        def h(t):
            return level(i + 1, np.concatenate(([t], outer)))

        val, e = quad(h, center[idx] - w, center[idx] + w,
                      complex_func=True, epsabs=tol, epsrel=tol, limit=100)
        err_lists[i].append(abs(e))
        return val

    total = level(0, np.array([]))
    err_acc = 0.0
    measure = 1.0
    for i in range(n):
        if err_lists[i]:
            err_acc += measure * float(np.mean(err_lists[i]))
        if i < n - 1:
            measure *= 2.0 * widths[n - 2 - i]
    shift = cmath.exp(N * f0)
    value = total * shift
    abs_err = (err_acc + tol_abs) * abs(shift)
    if abs_err > tol * max(1.0, abs(value)) * 100.0:
        raise ToleranceNotMet(
            f"cubature error {abs_err:.2e} too large for |I|={abs(value):.2e}"
        )
    return QuadResult(value=value, abs_error_estimate=abs_err, evaluations=evals[0])


def bessel_ref(N: int, x: float) -> float:
    """J_N(x) from scipy's Bessel function of the first kind."""
    return float(jv(N, x))
