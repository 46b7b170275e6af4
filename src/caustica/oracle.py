"""Brute-force reference values.

``quad_contour`` integrates g(z) exp(N f(z, alpha)) along the declared
contour moved through the saddle: a 21-node Gauss–Kronrod rule on panels
graded geometrically away from the saddle, halved where it disagrees with
the 10-node Gauss rule on every other one of its nodes, all nodes of a round
in one array call of f and g.  The rules converge exponentially for these
analytic integrands (Trefethen & Weideman, SIAM Rev. 2014; Gil, Segura &
Temme 2007, ch. 5).  Where one saddle dominates, the integrand on the moved
contour is no larger than |I| calls for, so the error test is relative to
|I|, and a rounding term makes cancellation raise rather than pass.
``cubature_nd`` runs the same panel loop over the soft coordinate of an
n-D integrand, through its saddle, and at each soft node a tensor
Gauss–Hermite sum in the real transverse coordinates, centred on the
saddle's and scaled to the width of its peak (adaptive Gauss–Hermite, Liu &
Pierce, Biometrika 1994); the difference from a coarser such sum is its
error bound, which enters the same relative test.  ``bessel_ref`` is J_N from
scipy.  Quadrature values carry an error estimate.  The panel loop forms
exp(N (f - shift)) itself, with one shift per pass, the largest Re f over
the first round's nodes; an oracle supplies only the integrand over
exp(N f), so ``cubature_nd``'s values do not depend on how it chunks points.

Both oracles take N as one number or as a grid, like the formulas, and serve
the whole grid from one pass per alpha: one saddle solve from
``saddle_guess`` (``find_saddle``, ``find_saddle_nd``) and one contour move;
rays cut at the smallest N, where they reach furthest; panel breakpoints
graded at the largest N, where the saddle's width N^(-1/2) is smallest; f
and g evaluated once per node, and exp(N (f - shift)) per N, with one shift
for every N.  Each panel stays open for the N that have not accepted it yet,
and every N starts on the panels that reach into its own ray cuts and keeps
its own totals, error test and range check, so each N gets the value and
error estimate a pass of its own would give, to within those estimates.
``cubature_nd`` shares the soft panels the same way but gives each N its own
transverse scale, from the ray cuts at that N: the transverse peak narrows
as N^(-1/2), and a rule of fixed size fits one width only.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from numbers import Number

import numpy as np
from scipy.special import jv

from .errors import (
    BadParameter,
    CausticaError,
    DimensionTooLarge,
    RayDivergence,
    ToleranceNotMet,
)
from .integrand import _RAY_MAX, Integrand1D, IntegrandND, _n_grid
from .saddle import find_saddle, find_saddle_nd

__all__ = ["QuadResult", "quad_contour", "cubature_nd", "bessel_ref"]

_TRUNC_FACTOR = 1e-3  # envelope cutoff relative to tol
# QUADPACK dqk21's (G10, K21) pair (Kronrod 1965; Piessens et al. 1983) in doubles: the
# nodes in [0, 1), largest first, K21's weights, and G10's at the 2nd, 4th, ..., 10th node
_KR_X = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                  0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                  0.2943928627014602, 0.14887433898163122, 0.0])
_KR_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                   0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                   0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                   0.14773910490133849, 0.1494455540029169])
_KR_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                   0.26926671930999635, 0.29552422471475287])
# the 21 nodes on [-1, 1], K21's weights, and K21's less G10's (on the odd nodes)
_GK_X = np.concatenate((-_KR_X, _KR_X[-2::-1]))
_GK_W = np.concatenate((_KR_WK, _KR_WK[-2::-1]))
_GK_D = _GK_W - np.insert(np.concatenate((_KR_WG, _KR_WG[::-1])), range(11), 0.0)
_GH_X, _GH_W = np.polynomial.hermite.hermgauss(16)  # transverse value in cubature_nd
_GH_X_ERR, _GH_W_ERR = np.polynomial.hermite.hermgauss(10)  # and its error bound
_MAX_ROUNDS = 10  # rounds of quad_contour, each halving the panels it rejects
_ROUNDING = 8.0  # c in the rounding term c eps sum |w h|
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the smallest normal double
_MAX_POINTS = 2 ** 18  # integrand points per call of F in cubature_nd


@dataclass(frozen=True)
class QuadResult:
    """``value`` and ``abs_error_estimate`` are one number for one N and
    arrays in the grid's order for a grid; ``evaluations`` counts the
    integrand points evaluated.  ``quad_contour`` evaluates each point once
    for the whole grid, ``cubature_nd`` each N's transverse points on its
    own and counts them all, but not the on-axis points of the soft nodes
    that grade, cut and shift its panel loop."""

    value: "complex | np.ndarray"
    abs_error_estimate: "float | np.ndarray"
    evaluations: int


def _as_given(res: QuadResult, N) -> QuadResult:
    """``res`` with its one value unwrapped where N was one number."""
    if not isinstance(N, Number):
        return res
    return replace(res, value=complex(res.value[0]),
                   abs_error_estimate=float(res.abs_error_estimate[0]))


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def quad_contour(
    intg: Integrand1D, alpha: float, N: "float | Sequence[float]", tol: float = 1e-10
) -> QuadResult:
    """Reference value of the contour integral, within ``10 tol |I|``.

    The declared contour is translated by z_s - p, where z_s is the saddle
    from ``find_saddle`` started at ``saddle_guess(alpha)`` and p the contour
    point nearest it; the ray angles, and so the end valleys, are kept.
    Without a guess, or where the solve raises, the declared contour is used
    as it is, graded from its node of largest Re f.  Each ray is cut where
    N (Re f - Re f(z_s)) drops below log(tol 1e-3) for good, judged on a
    geometric grid of radii, and never before the first radius past a
    saddle on it; the panels run to the smallest N's cuts, and
    each N starts on those that reach into its own.  Panel breakpoints lie
    at arc distances N^(-1/2) 2^k from the saddle, at the largest N, and at
    the contour's corners; each panel gets the Gauss–Kronrod rule K21, and
    its error estimate is |K21 - G10|.  Each N halves the panels whose
    estimate exceeds its share of tol |I| at that N, for at most
    ``_MAX_ROUNDS`` rounds, and accepts the rest.  The exponent is shifted
    by the largest Re f over the first round's nodes.

    Per N, the error estimate sums the panel estimates, a rounding term
    8 eps sum |w h| over the nodes, and the truncation cutoff.  Unless it is
    at most 10 tol |I| at every N, ToleranceNotMet is raised: the rounding
    term turns cancellation, where |I| is far below the integrand's size on
    the contour, into that error rather than a wrong value.  It is raised
    too where f or |I| (at some N) leaves the range of a normal double, or
    where the cuts leave no panel.  BadParameter where alpha is not finite,
    and unless 0 < tol < inf.

    N is one number or a grid; for a grid, ``value`` and
    ``abs_error_estimate`` are arrays in its order.  ``evaluations`` counts
    integrand points.
    """
    if not math.isfinite(alpha):
        raise BadParameter(f"alpha must be finite, got {alpha}")
    ns = np.asarray(_n_grid(N), dtype=float)
    anchor = None
    if intg.saddle_guess is not None:
        try:
            saddle = find_saddle(intg, alpha, intg.saddle_guess(alpha))
            anchor = saddle.z0, saddle.f0.real
        except CausticaError:
            pass

    def amplitude(z, fz, kk, pp):
        return np.broadcast_to(intg.g(z), z.shape)[pp], None

    try:
        res = _contour_sum(intg.contour, anchor, lambda z: intg.f(z, alpha), amplitude, ns, tol,
                           intg.prefactor)
    except OverflowError as exc:
        raise ToleranceNotMet(f"f overflows a double on the contour: {exc}") from exc
    return _as_given(res, N)


def _cuts(r, e, tol):
    """Per row of ``e`` (along its last axis), N (Re f - ref) at the radii
    ``r`` along one ray: the first radius from which it stays below
    log(tol 1e-3).  BadParameter unless 0 < tol < inf: both oracles read
    ``tol`` here first."""
    if not 0.0 < tol < math.inf:
        raise BadParameter(f"tol must be finite and > 0, got {tol}")
    above = ~(e < math.log(tol * _TRUNC_FACTOR))
    if above[..., -1].any():
        raise RayDivergence("integrand does not decay along a ray")
    last = above.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1)
    return np.where(above.any(axis=-1), r[np.minimum(last + 1, len(r) - 1)], 0.0)


def _per_n(k, x, size):
    """Sums of the complex ``x`` grouped by grid index ``k``."""
    return np.bincount(k, x.real, size) + 1j * np.bincount(k, x.imag, size)


def _contour_sum(contour, anchor, f, amplitude, ns, tol, prefactor=1.0):
    """The panel loop that ``quad_contour`` documents, along ``contour``, for
    every N of the grid ``ns`` at once.

    ``anchor`` is (z_s, Re f(z_s)) for the saddle, or None; ``f`` maps an
    array of points to the exponent there, which grades the declared
    contour, cuts the rays and is taken at every round's nodes.  The shift
    is one number, the largest Re f over the first round's nodes, and the
    loop forms e^(N (f - shift)) itself.  ``amplitude(z, fz, kk, pp)`` gets
    the nodes z, shape (panels, 21), f there, and the grid and panel
    indices of the open (N, panel) pairs, in ``np.nonzero`` order of the
    (len(ns), panels) mask of the N each panel is open for.  It returns,
    for every pair, the integrand over e^(N f) at the panel's nodes, shape
    (pairs, 21), and an error bound in the same units (None where the
    values are exact to rounding).  The bounds, weighted by |w|, add to the
    error estimate but do not halve panels.  Returns a QuadResult over the
    grid.
    """
    if anchor is None:
        fn = f(np.array(contour.nodes)).real
        k = int(np.argmax(fn))
        ref, s_c = fn[k], contour.polyline(_RAY_MAX, _RAY_MAX)[1][k + 1]
    else:
        z_s, ref = anchor
        p, s_c, _ = contour.project(z_s)
        contour = replace(contour, nodes=tuple(z + (z_s - p) for z in contour.nodes))

    # cut each ray, per N, at the first radius of the grid from which
    # N (Re f - ref) stays below the cutoff; both rays in one call of f.  A
    # saddle on a ray has a peak that can fall between two radii, so each
    # cut reaches at least the first radius past the saddle.  The smallest N
    # reaches furthest and sets the panels' span; each N starts on the
    # panels that reach into its own span
    r = np.concatenate(([0.0], _RAY_MAX * 2.0 ** (np.arange(-25, 1) / 2.0)))
    u = np.exp(1j * np.array([[contour.tail_angle], [contour.head_angle]]))
    ends = np.array([[contour.nodes[0]], [contour.nodes[-1]]])
    cut = _cuts(r, ns[:, None, None] * (f(ends + r * u).real - ref), tol)
    on_rays = np.array([-s_c, s_c - np.abs(np.diff(contour.nodes)).sum()])
    cut = np.maximum(cut, r[np.searchsorted(r, on_rays).clip(max=len(r) - 1)])
    v, s = contour.polyline(*cut.max(axis=0))
    span_lo, span_hi = -cut[:, 0, None], s[-2] + cut[:, 1, None]

    # panel breakpoints at arc distances N^(-1/2) 2^k from the saddle, at the
    # largest N, and at the corners of the contour
    lo, hi = s[0], s[-1]
    h0 = ns.max() ** -0.5
    steps = h0 * 2.0 ** np.arange(math.ceil(math.log2(max(hi - lo, h0) / h0)) + 1)
    bp = np.concatenate((s, [s_c], s_c - steps, s_c + steps))
    bp = np.unique(bp[(bp >= lo) & (bp <= hi)])
    zb = np.interp(bp, s, v.real) + 1j * np.interp(bp, s, v.imag)
    a, b = zb[:-1], zb[1:]

    K = len(ns)
    if not len(a):
        raise ToleranceNotMet("the ray cuts leave no panel to integrate")
    live = (bp[:-1] < span_hi) & (bp[1:] > span_lo)
    total = np.zeros(K, dtype=complex)
    err, absum, inner = np.zeros(K), np.zeros(K), np.zeros(K)
    nev = 0
    for rnd in range(_MAX_ROUNDS):
        # the 21 nodes of every panel open for some N in one call of f and
        # of amplitude; the first round's largest Re f is the shift
        n, m, half = len(a), (a + b) / 2.0, (b - a) / 2.0
        z = m[:, None] + half[:, None] * _GK_X
        fz = f(z)
        if not rnd:
            shift = float(np.max(fz.real))
        kk, pp = np.nonzero(live)
        ez = np.exp(ns[kk, None] * (fz[pp] - shift))
        h, h_err = amplitude(z, fz, kk, pp)
        hw = h * ez * half[pp, None]
        nev += z.size
        value, est, mag = hw @ _GK_W, np.abs(hw @ _GK_D), np.abs(hw) @ _GK_W
        share = (tol * np.abs(total + _per_n(kk, value, K)) - err) / np.maximum(live.sum(1), 1)
        done = (est <= share[kk]) | (rnd == _MAX_ROUNDS - 1)
        kd = kk[done]
        total += _per_n(kd, value[done], K)
        err += np.bincount(kd, est[done], K)
        absum += np.bincount(kd, mag[done], K)
        if h_err is not None:
            inner += np.bincount(kd, (np.abs(h_err * ez) @ _GK_W * np.abs(half[pp]))[done], K)
        # halve each panel some N rejected; the halves are open for those N
        live = np.zeros((K, n), dtype=bool)
        live[kk[~done], pp[~done]] = True
        keep = live.any(axis=0)
        a, b = np.concatenate((a[keep], m[keep])), np.concatenate((m[keep], b[keep]))
        live = np.concatenate((live[:, keep], live[:, keep]), axis=1)
        if not len(a):
            break

    abs_err = (
        err + _ROUNDING * _EPS * absum + inner
        + tol * _TRUNC_FACTOR * np.exp(ns * (ref - shift))
    )
    log_scale = ns * shift
    scale = np.exp(log_scale)
    for N, e, t, ls, sc in zip(ns, abs_err, np.abs(total), log_scale, scale):
        if not e <= 10.0 * tol * t:
            raise ToleranceNotMet(
                f"quadrature error {e:.2e} exceeds 10 tol |I| for |I|={t:.2e}"
                f" at N={N:g} (scaled by the exponent shift)"
            )
        if not _TINY <= t * sc < math.inf:
            raise ToleranceNotMet(
                f"|I| = {t:.2e} e^({ls:.4g}) at N={N:g} is outside the double range"
            )
    scale = scale * prefactor
    return QuadResult(value=total * scale, abs_error_estimate=abs_err * np.abs(scale),
                      evaluations=nev)


def _hermite_rule(center, scale, x, w):
    """Nodes (d, P) and weights (P,) of the tensor product of the rule (x, w)
    for the weight e^(-t^2), moved to ``center`` and stretched by ``scale``
    per axis, with e^(t^2) folded into the weights."""
    nodes = np.meshgrid(*[c + s * x for c, s in zip(center, scale)], indexing="ij")
    weights = np.meshgrid(*[s * w * np.exp(x * x) for s in scale], indexing="ij")
    return np.array([t.ravel() for t in nodes]), np.prod([v.ravel() for v in weights], axis=0)


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def cubature_nd(
    intg: IntegrandND,
    alpha: float,
    N: "float | Sequence[float]",
    tol: float = 1e-8,
) -> QuadResult:
    """Reference value of the n-D integral, within ``10 tol |I|``.

    The soft coordinate runs the panel loop of ``quad_contour`` along
    ``soft_path``, through the saddle from ``find_saddle_nd`` started at
    ``saddle_guess(alpha)`` as given (kept in the integrand's memo), or
    graded from the node of largest Re F without a guess or where the solve
    raises, with the transverse coordinates held at the saddle's (the real
    part of the guess's) for the ray cuts.  At each soft node the transverse
    coordinates are summed by a tensor Gauss–Hermite rule per N, centred on
    the saddle's: each axis is cut in both directions where
    N (Re F - Re F(saddle)) drops below L = log(tol 1e-3) for good, on a
    grid of ratio 2^(1/8), and the larger cut over sqrt(-L) scales its
    nodes, about sqrt(2) times the peak's standard deviation where it is
    Gaussian.  The integrand is weighted by e^(t^2), so a Gaussian peak is
    integrated almost exactly.  The 16-node tensor sum is the value at the
    node, its difference from the 10-node sum plus a rounding term its error
    bound, which enters that N's error estimate.  Both sums are taken
    relative to e^(N F) at the soft node on the axis.  A transverse peak
    that moves away from the saddle's with the soft node is followed only as
    far as the fixed centre allows; beyond that the error bound grows and
    ToleranceNotMet is raised.

    N is one number or a grid; for a grid, ``value`` and
    ``abs_error_estimate`` are arrays in its order.  ``evaluations`` counts
    integrand points.  BadParameter where alpha is not finite.
    """
    if not math.isfinite(alpha):
        raise BadParameter(f"alpha must be finite, got {alpha}")
    ns = np.asarray(_n_grid(N), dtype=float)
    n = intg.dim
    if n > 4:
        raise DimensionTooLarge(f"cubature supports n <= 4, got {n}")
    center, anchor = np.zeros(n), None
    if intg.saddle_guess is not None:
        center = np.asarray(guess := intg.saddle_guess(alpha)).real
        try:
            s = find_saddle_nd(intg, alpha, guess)
            center, anchor = s.x0.real, (s.x0[0], s.saddle.f0.real)
        except CausticaError:
            pass

    # each N's transverse scales, from cuts on the same rays
    r = np.concatenate(([0.0], _RAY_MAX * 2.0 ** (np.arange(-160, 1) / 8.0)))
    axes = np.concatenate((np.eye(n)[1:], -np.eye(n)[1:]))
    x = (center[:, None, None] + axes.T[:, :, None] * r).reshape(n, -1)
    e = intg.F(x, alpha).real.reshape(len(axes), -1)
    d = e - e[:, :1]  # r[0] = 0: each axis's first column is the centre
    rules = []
    for cut in _cuts(r, ns[:, None, None] * d, tol):
        scale = np.maximum(cut[:n - 1], cut[n - 1:]) / math.sqrt(-math.log(tol * _TRUNC_FACTOR))
        coarse, w_coarse = _hermite_rule(center[1:], scale, _GH_X_ERR, _GH_W_ERR)
        fine, w_fine = _hermite_rule(center[1:], scale, _GH_X, _GH_W)
        rules.append((np.concatenate((coarse, fine), axis=1), w_coarse, w_fine))
    k, size = len(rules[0][1]), rules[0][0].shape[1]
    chunk = max(1, _MAX_POINTS // size)
    points = 0

    def on_axis(z):
        x = np.empty((n, z.size), dtype=complex)
        x[0], x[1:] = z.ravel(), center[1:, None]
        return intg.F(x, alpha).reshape(z.shape)

    def amplitude(z, fz, kk, pp):
        # per N, F at its transverse points about the nodes of its open
        # panels and the sums there relative to e^(N F) on the axis, a chunk
        # of nodes at a time
        nonlocal points
        value, bound = [], []
        for j, (nk, (xt, w_coarse, w_fine)) in enumerate(zip(ns, rules)):
            rows = pp[kk == j]
            if not len(rows):
                continue
            zk, fk = z[rows].ravel(), fz[rows].ravel()
            points += zk.size * size
            v, b = np.empty(zk.size, dtype=complex), np.empty(zk.size)
            for i in range(0, zk.size, chunk):
                zc = zk[i:i + chunk]
                x = np.empty((n, zc.size, size), dtype=complex)
                x[0], x[1:] = zc[:, None], xt[:, None, :]
                e = intg.F(x.reshape(n, -1), alpha).reshape(-1, size)
                t = np.exp(nk * (e - fk[i:i + chunk, None]))
                v[i:i + chunk] = (t[:, k:] * w_fine).sum(axis=1)
                b[i:i + chunk] = (np.abs((t[:, :k] * w_coarse).sum(axis=1) - v[i:i + chunk])
                                  + _ROUNDING * _EPS * np.abs(t[:, k:] * w_fine).sum(axis=1))
            value.append(v.reshape(-1, z.shape[1]))
            bound.append(b.reshape(-1, z.shape[1]))
        return np.concatenate(value), np.concatenate(bound)

    res = _contour_sum(intg.soft_path, anchor, on_axis, amplitude, ns, tol)
    return _as_given(replace(res, evaluations=points), N)


def bessel_ref(N: int, x: float) -> float:
    """J_N(x) from scipy's Bessel function of the first kind."""
    return float(jv(N, x))
