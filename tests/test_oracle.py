import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airye, jv

from caustica import (
    DimensionTooLarge,
    IntegrandND,
    ToleranceNotMet,
    bessel_ref,
    cubature_nd,
    find_saddle,
    quad_contour,
    registry_get,
)
from caustica.airy import airy_ai

# frozen references, cross-checked against extended-precision evaluation
J1_1 = 0.4400505857449335
J30_24 = 0.005625680842695062
J30_30 = 0.14393585001030706
AI_1 = 0.13529241631288141


def test_cubic_contour_is_airy_closed_form():
    # int over the Airy contour = 2 pi i N^{-1/3} Ai(alpha N^{2/3})
    intg = registry_get("cubic")
    for alpha, N in [(0.25, 8.0), (1.0, 1.0), (0.04, 27.0)]:
        r = quad_contour(intg, alpha, N, tol=1e-11)
        exact = 2.0j * math.pi * N ** (-1.0 / 3.0) * airy_ai(alpha * N ** (2.0 / 3.0))
        assert abs(r.value - exact) <= 1e-10 * max(abs(exact), 1e-3)
        assert r.abs_error_estimate <= 1e-8
        assert r.evaluations > 0


def test_golden_airy_one():
    intg = registry_get("cubic")
    r = quad_contour(intg, 1.0, 1.0, tol=1e-11)
    assert r.value == pytest.approx(2.0j * math.pi * AI_1, abs=1e-10)


def test_two_bessel_representations_agree():
    # the sinh contour and scipy's J_N compute the same J_N(x)
    intg = registry_get("bessel-sinh")
    for alpha, N in [(0.8, 30), (1.0, 30), (0.95, 20)]:
        contour = quad_contour(intg, alpha, N, tol=1e-11)
        ref = bessel_ref(N, alpha * N)
        assert abs(contour.value.imag) <= 1e-9
        assert abs(contour.value.real - ref) <= 1e-9 * max(abs(ref), 1e-3)


def test_small_integral_against_mpmath():
    # |I| ~ 1e-47 while the integrand is O(1) on the declared contour: only
    # a rule through the saddle gets it.  The reference runs from the saddle
    # 0.5 along its steepest-descent direction (f'' > 0: vertical), then out
    # on rays at the declared angles +-pi/3
    mpmath = pytest.importorskip("mpmath")
    intg = registry_get("perturbed-cubic", {"eps": "0.05"})
    alpha, N = 0.3, 1000
    zs = find_saddle(intg, alpha, intg.saddle_guess(alpha)).z0
    with mpmath.workdps(30):
        eps = mpmath.mpf("0.05")

        def f(z):
            return z ** 3 / 3 - alpha * z + eps * z ** 4

        z0 = mpmath.findroot(lambda z: z ** 2 - alpha + 4 * eps * z ** 3, zs.real)
        ref = 0
        for sign in (1, -1):
            u = mpmath.expj(sign * mpmath.pi / 3)
            leg = mpmath.quad(lambda t: mpmath.exp(N * (f(z0 + sign * 1j * t) - f(z0))), [0, 0.5])
            ray = mpmath.quad(
                lambda t: mpmath.exp(N * (f(z0 + sign * 0.5j + t * u) - f(z0))) * u,
                [0, mpmath.inf],
            )
            ref += sign * (sign * 1j * leg + ray)
        ref = complex(ref * mpmath.exp(N * f(z0)))
    assert abs(ref) < 1e-46
    r = quad_contour(intg, alpha, N)
    assert abs(r.value - ref) <= 1e-8 * abs(ref)


def _airy_closed_form(alpha, N):
    x = alpha * N ** (2.0 / 3.0)
    return 2.0j * math.pi * N ** (-1.0 / 3.0) * airye(x)[0] * math.exp(-(2.0 / 3.0) * x ** 1.5)


def test_cubic_against_airy_over_alpha():
    # down to 1.7e-291i at alpha = 1, N = 1000
    intg = registry_get("cubic")
    for alpha in np.linspace(0.0, 1.0, 11):
        for N in (10, 100, 1000):
            exact = _airy_closed_form(alpha, N)
            assert abs(quad_contour(intg, alpha, N).value - exact) <= 1e-9 * abs(exact)


def test_bessel_against_jv():
    intg = registry_get("bessel-sinh")
    for alpha in np.linspace(0.6, 0.997, 12):
        for N in (10, 31, 100, 316, 1000):
            ref = jv(N, alpha * N)
            assert abs(quad_contour(intg, alpha, N).value - ref) <= 1e-9 * abs(ref)


def test_cancellation_raises():
    # without a saddle guess the declared contour through 0 is used, where
    # the integrand is O(1) and I = 1.7e-291i: the rounding term must turn
    # the cancellation into an error
    intg = dataclasses.replace(registry_get("cubic"), saddle_guess=None)
    with pytest.raises(ToleranceNotMet):
        quad_contour(intg, 1.0, 1000)


def test_bessel_golden_values():
    assert bessel_ref(1, 1.0) == pytest.approx(J1_1, abs=1e-12)
    assert bessel_ref(30, 24.0) == pytest.approx(J30_24, abs=1e-12)
    assert bessel_ref(30, 30.0) == pytest.approx(J30_30, abs=1e-12)
    assert bessel_ref(0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_bessel_large_order_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.besselj(1000, 1000))
    assert bessel_ref(1000, 1000.0) == pytest.approx(ref, rel=1e-12)


def test_quad_stable_under_tolerance_halving():
    intg = registry_get("bessel-sinh")
    a = quad_contour(intg, 0.9, 30, tol=1e-9).value
    b = quad_contour(intg, 0.9, 30, tol=5e-10).value
    assert abs(a - b) <= 1e-9 * max(abs(a), 1e-3)


def test_cubature_separable_is_product():
    # nd-separable factorizes: (1-D contour integral) x (transverse Gaussian)
    intg = registry_get("nd-separable", {"dim": "2", "eps": "0.05"})
    intg1 = registry_get("perturbed-cubic", {"eps": "0.05"})
    alpha, N = 0.2, 30.0
    r = cubature_nd(intg, alpha, N, tol=1e-9)
    r1 = quad_contour(intg1, alpha, N, tol=1e-11)
    exact = r1.value * math.sqrt(2.0 * math.pi / N)
    assert abs(r.value - exact) <= 1e-8 * max(abs(exact), 1e-6)


def test_cubature_three_dim():
    intg = registry_get("nd-separable", {"dim": "3", "eps": "0.05", "lambda3": "-2.0"})
    intg1 = registry_get("perturbed-cubic", {"eps": "0.05"})
    alpha, N = 0.2, 30.0
    r = cubature_nd(intg, alpha, N, tol=1e-8)
    r1 = quad_contour(intg1, alpha, N, tol=1e-11)
    exact = r1.value * math.sqrt(2.0 * math.pi / N) * math.sqrt(2.0 * math.pi / (2.0 * N))
    assert abs(r.value - exact) <= 1e-6 * max(abs(exact), 1e-6)


def test_cubature_dimension_guard():
    intg = registry_get(
        "nd-separable",
        {"dim": "5", "lambda3": "-1", "lambda4": "-1", "lambda5": "-1"},
    )
    with pytest.raises(DimensionTooLarge):
        cubature_nd(intg, 0.2, 30.0)


def test_real_line_gaussian():
    # mean-field toy at weak coupling: compare against direct numpy quadrature
    intg = registry_get("mean-field-toy", {"m": 0.1})
    gamma, N = 0.95, 40.0
    r = quad_contour(intg, gamma, N, tol=1e-10)
    xs = np.linspace(-6.0, 6.0, 200001)
    ys = np.exp([N * intg.f(x, gamma).real for x in xs])
    ref = np.trapezoid(ys, xs)
    assert abs(r.value.imag) <= 1e-9 * abs(r.value)
    assert r.value.real == pytest.approx(ref, rel=1e-7)


def test_bessel_above_fold_against_jv():
    # above alpha = 1 the saddles are +-i acos(1/alpha): the contour moves
    # through one of them, where J_N is an oscillatory sum of both
    intg = registry_get("bessel-sinh")
    for alpha in (1.01, 1.03, 1.05):
        for N in (100, 1000):
            ref = jv(N, alpha * N)
            assert abs(quad_contour(intg, alpha, N).value - ref) <= 1e-9 * abs(ref)


def test_cubature_transverse_quartic_is_product():
    # F = perturbed cubic(x1) - x2^2/2 - 0.05 x2^4 factorizes into the 1-D
    # contour integral and a real transverse integral; the reduction to the
    # soft coordinate keeps only the transverse Hessian, so against this
    # n-D reference it is off by the Laplace term -3 (0.05) / N
    sep = registry_get("nd-separable", {"dim": "2", "eps": "0.05"})
    intg = IntegrandND(
        F=lambda x, a: sep.F(x, a) - 0.05 * x[1] ** 4,
        dim=2,
        soft_contour=sep.soft_contour,
        saddle_guess=sep.saddle_guess,
    )
    intg1 = registry_get("perturbed-cubic", {"eps": "0.05"})
    alpha = 0.2
    for N in (30.0, 100.0):
        transverse, _ = quad(lambda x: math.exp(N * (-0.5 * x * x - 0.05 * x ** 4)),
                             -np.inf, np.inf, epsabs=0.0, epsrel=1e-13)
        one_d = quad_contour(intg1, alpha, N, tol=1e-11).value
        r = cubature_nd(intg, alpha, N, tol=1e-10)
        assert abs(r.value - one_d * transverse) <= 1e-9 * abs(one_d * transverse)
        reduced = one_d * math.sqrt(2.0 * math.pi / N)
        assert r.value / reduced - 1.0 == pytest.approx(-0.15 / N, rel=0.1)
