"""Brute-force reference values.

Adaptive quadrature along the declared complex contour (QUADPACK panels per
polyline segment, rays truncated by a magnitude envelope), iterated cubature
for the n-D integrands, and J_N from scipy for the Bessel family.  The
quadrature values carry an error estimate and are exponent-shifted so that
the largest integrand magnitude is O(1) during quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import jv

from .errors import (
    DimensionTooLarge,
    RayDivergence,
    ToleranceNotMet,
)
from .integrand import ContourPath, Integrand1D, IntegrandND

__all__ = ["QuadResult", "quad_contour", "cubature_nd", "bessel_ref"]

_TRUNC_FACTOR = 1e-3  # envelope cutoff relative to tol
_RAY_MAX = 400.0


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


def quad_contour(
    intg: Integrand1D, alpha: float, N: float, tol: float = 1e-10
) -> QuadResult:
    """Reference value of the contour integral by adaptive quadrature."""
    contour = intg.contour
    # exponent shift: largest Re f over a coarse sample of the finite part
    samples = list(contour.nodes)
    for a, b in zip(contour.nodes, contour.nodes[1:]):
        samples.extend(a + t * (b - a) for t in np.linspace(0.1, 0.9, 9))
    f0 = max((intg.f(z, alpha).real for z in samples), default=0.0)

    def h(z):
        return intg.g(z) * cmath.exp(N * (intg.f(z, alpha) - f0))

    segs = _contour_segments(contour, h, tol * _TRUNC_FACTOR)
    total, err, nev = _quad_segments(segs, tol)
    shift = cmath.exp(N * f0) * contour.orientation * intg.prefactor
    value = total * shift
    abs_err = err * abs(shift) + tol * _TRUNC_FACTOR * abs(shift)
    if abs_err > tol * max(1.0, abs(value)) * 10.0:
        raise ToleranceNotMet(
            f"quadrature error {abs_err:.2e} exceeds tolerance for |I|={abs(value):.2e}"
        )
    return QuadResult(value=value, abs_error_estimate=abs_err, evaluations=nev)


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
