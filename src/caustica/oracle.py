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
``cubature_nd`` runs the same panel loop over the soft coordinate of an
n-D integrand, through its saddle, and at each soft node a tensor
Gauss–Legendre sum over a real box in the transverse coordinates, whose own
error estimate enters the same relative test.  ``bessel_ref`` is J_N from
scipy.  Quadrature values carry an error estimate and are exponent-shifted
so that the largest integrand magnitude is O(1) during quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import jv

from .errors import (
    CausticaError,
    DimensionTooLarge,
    RayDivergence,
    ToleranceNotMet,
)
from .integrand import ContourPath, Integrand1D, IntegrandND
from .saddle import find_saddle, find_saddle_nd

__all__ = ["QuadResult", "quad_contour", "cubature_nd", "bessel_ref"]

_TRUNC_FACTOR = 1e-3  # envelope cutoff relative to tol
_RAY_MAX = 400.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_MAX_ROUNDS = 10  # rounds of quad_contour, each halving the panels it rejects
_ROUNDING = 8.0  # c in the rounding term c eps sum |w h|
_EPS = np.finfo(float).eps
_MAX_POINTS = 2 ** 18  # integrand points per call of F in cubature_nd


@dataclass(frozen=True)
class QuadResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


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
    anchor = None
    if intg.saddle_guess is not None:
        try:
            saddle = find_saddle(intg, alpha, intg.saddle_guess(alpha))
            anchor = saddle.z0, saddle.f0.real
        except CausticaError:
            pass

    def sample(z, shift):
        fz = intg.f(z, alpha)
        if shift is None:
            shift = float(np.max(fz.real))
        return intg.g(z) * np.exp(N * (fz - shift)), None, shift

    return _contour_sum(
        intg.contour, anchor, lambda z: intg.f(z, alpha), sample, N, tol, intg.prefactor
    )


def _cuts(r, e, tol):
    """Per row of ``e``, N (Re f - ref) at the radii ``r`` along one ray: the
    first radius from which it stays below log(tol 1e-3)."""
    above = ~(e < math.log(tol * _TRUNC_FACTOR))
    if above[:, -1].any():
        raise RayDivergence("integrand does not decay along a ray")
    return [r[np.flatnonzero(row)[-1] + 1] if row.any() else 0.0 for row in above]


def _contour_sum(contour, anchor, f, sample, N, tol, prefactor=1.0):
    """The panel loop that ``quad_contour`` documents, along ``contour``.

    ``anchor`` is (z_s, Re f(z_s)) for the saddle, or None; ``f`` maps an
    array of points to the exponent there, which grades the declared
    contour and cuts the rays.  ``sample(z, shift)`` returns the integrand
    times e^(-N shift) at an array of points, an error bound for each value
    (None where they are exact to rounding) and the shift, which it picks
    itself when given None.  The bounds, weighted by |w|, add to the error
    estimate but do not halve panels.
    """
    v, s = _polyline(contour, _RAY_MAX, _RAY_MAX)
    if anchor is None:
        fn = f(np.array(contour.nodes)).real
        k = int(np.argmax(fn))
        ref, s_c = fn[k], s[k + 1]
    else:
        z_s, ref = anchor
        p, s_c = _project(v, s, z_s)
        contour = replace(contour, nodes=tuple(z + (z_s - p) for z in contour.nodes))

    # cut each ray at the first radius of the grid from which N (Re f - ref)
    # stays below the cutoff; both rays in one call of f
    r = np.concatenate(([0.0], _RAY_MAX * 2.0 ** (np.arange(-25, 1) / 2.0)))
    u = np.exp(1j * np.array([[contour.tail_angle], [contour.head_angle]]))
    ends = np.array([[contour.nodes[0]], [contour.nodes[-1]]])
    v, s = _polyline(contour, *_cuts(r, N * (f(ends + r * u).real - ref), tol))

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
    total = err = absum = inner = 0.0
    nev = 0
    for rnd in range(_MAX_ROUNDS):
        # every open panel and its two halves, in one call of sample
        n, m = len(a), (a + b) / 2.0
        z, w = _gauss_legendre(np.concatenate((a, a, m)), np.concatenate((b, m, b)))
        h, h_err, shift = sample(z, shift)
        hw = h * w
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
        if h_err is not None:
            inner += np.abs(h_err * w)[n:].sum(axis=1).reshape(2, n).sum(axis=0)[done].sum()
        keep = ~done
        a, b = np.concatenate((a[keep], m[keep])), np.concatenate((m[keep], b[keep]))
        if not len(a):
            break

    abs_err = (
        err + _ROUNDING * _EPS * absum + inner
        + tol * _TRUNC_FACTOR * np.exp(N * (ref - shift))
    )
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
    scale = float(scale) * contour.orientation * prefactor
    return QuadResult(
        value=complex(total * scale), abs_error_estimate=abs_err * abs(scale), evaluations=nev
    )


def _box_rule(lo, hi, panels):
    """Nodes (d, P) and weights (P,) of the tensor product over the box
    [lo, hi] of the 16-node rule on ``panels`` equal panels per axis."""
    axes = []
    for a, b in zip(lo, hi):
        edges = np.linspace(a, b, panels + 1)
        axes.append(_gauss_legendre(edges[:-1], edges[1:]))
    nodes = np.meshgrid(*[x.ravel() for x, _ in axes], indexing="ij")
    weights = np.meshgrid(*[w.ravel() for _, w in axes], indexing="ij")
    return np.array([x.ravel() for x in nodes]), np.prod([w.ravel() for w in weights], axis=0)


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def cubature_nd(
    intg: IntegrandND, alpha: float, N: float, tol: float = 1e-8
) -> QuadResult:
    """Reference value of the n-D integral, within ``10 tol |I|``.

    The soft coordinate runs the panel loop of ``quad_contour`` along
    ``soft_path``, through the saddle from ``find_saddle_nd`` started at
    ``saddle_guess(alpha)``, or graded from the node of largest Re F where
    there is none, with the transverse coordinates held at the saddle's
    (the guess's) for the ray cuts.  At each soft node the transverse
    coordinates are summed over one real box around the saddle's: each axis
    is cut in both directions where N (Re F - Re F(saddle)) drops below
    log(tol 1e-3) for good, on a grid of ratio 2^(1/8), and carries the
    16-node rule on 2 and on 4 equal panels.  The tensor sum on 4 panels
    per axis is the value at the node, its difference from the sum on 2
    panels plus a rounding term its error bound, which enters the error
    estimate.  ``evaluations`` counts integrand points.
    """
    n = intg.dim
    if n > 4:
        raise DimensionTooLarge(f"cubature supports n <= 4, got {n}")
    center, anchor = np.zeros(n), None
    if intg.saddle_guess is not None:
        center = np.asarray(intg.saddle_guess(alpha), dtype=float)
        try:
            s = find_saddle_nd(intg, alpha, center)
            center, anchor = s.x0.real, (s.x0[0], float(intg.F(s.x0, alpha).real))
        except CausticaError:
            pass

    r = np.concatenate(([0.0], _RAY_MAX * 2.0 ** (np.arange(-160, 1) / 8.0)))
    axes = np.concatenate((np.eye(n)[1:], -np.eye(n)[1:]))
    x = (center[:, None, None] + axes.T[:, :, None] * r).reshape(n, -1)
    e = N * (intg.F(x, alpha).real.reshape(len(axes), -1) - intg.F(center, alpha).real)
    cut = np.array(_cuts(r, e, tol))
    lo, hi = center[1:] - cut[n - 1:], center[1:] + cut[:n - 1]
    whole, w_whole = _box_rule(lo, hi, 2)
    halves, w_halves = _box_rule(lo, hi, 4)
    xt = np.concatenate((whole, halves), axis=1)
    k, size = whole.shape[1], xt.shape[1]
    chunk = max(1, _MAX_POINTS // size)

    def on_axis(z):
        x = np.empty((n, z.size), dtype=complex)
        x[0], x[1:] = z.ravel(), center[1:, None]
        return intg.F(x, alpha).reshape(z.shape)

    def sample(z, shift):
        shape, z = z.shape, z.ravel()
        e = np.empty((z.size, size), dtype=complex)
        for i in range(0, z.size, chunk):
            zc = z[i:i + chunk]
            x = np.empty((n, zc.size, size), dtype=complex)
            x[0], x[1:] = zc[:, None], xt[:, None, :]
            e[i:i + chunk] = intg.F(x.reshape(n, -1), alpha).reshape(-1, size)
        if shift is None:
            shift = float(np.max(e.real))
        t = np.exp(N * (e - shift))
        value = (t[:, k:] * w_halves).sum(axis=1)
        bound = (np.abs((t[:, :k] * w_whole).sum(axis=1) - value)
                 + _ROUNDING * _EPS * np.abs(t[:, k:] * w_halves).sum(axis=1))
        return value.reshape(shape), bound.reshape(shape), shift

    res = _contour_sum(intg.soft_path, anchor, on_axis, sample, N, tol)
    return replace(res, evaluations=res.evaluations * size)


def bessel_ref(N: int, x: float) -> float:
    """J_N(x) from scipy's Bessel function of the first kind."""
    return float(jv(N, x))
