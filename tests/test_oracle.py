import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import airye, gammaln, jv, logsumexp

from caustica import (
    BadParameter,
    ContourPath,
    DimensionTooLarge,
    Integrand1D,
    IntegrandND,
    NoConvergence,
    RayDivergence,
    ToleranceNotMet,
    bessel_ref,
    cubature_nd,
    find_caustic,
    find_saddle,
    find_saddle_nd,
    quad_contour,
    registry_get,
)
from caustica import oracle
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


def test_bessel_grid_within_estimate_of_jv():
    # over the caustic window at 20 geometric N from 10 to 1000 (820 cells),
    # the one-pass value is within 10 tol |I| and within its own error
    # estimate of J_N(alpha N)
    intg = registry_get("bessel-sinh")
    grid = np.round(np.geomspace(10, 1000, 20))
    for alpha in np.linspace(0.6, 1.0, 41):
        r = quad_contour(intg, alpha, grid, tol=1e-10)
        ref = jv(grid, alpha * grid)
        err = np.abs(r.value - ref)
        assert np.all(err <= 1e-9 * np.abs(ref)), (alpha, err / np.abs(ref))
        assert np.all(err <= r.abs_error_estimate), (alpha, err, r.abs_error_estimate)


def test_cancellation_raises():
    # without a saddle guess the declared contour through 0 is used, where
    # the integrand is O(1) and I = 1.7e-291i: the rounding term must turn
    # the cancellation into an error
    intg = dataclasses.replace(registry_get("cubic"), saddle_guess=None)
    with pytest.raises(ToleranceNotMet):
        quad_contour(intg, 1.0, 1000)


def test_failed_saddle_solve_uses_declared_contour():
    # find_saddle from 1e6 raises NoConvergence; the oracle then integrates
    # the declared contour, bit for bit as without a guess
    intg = registry_get("cubic")
    bad = quad_contour(dataclasses.replace(intg, saddle_guess=lambda a: 1e6), 0.3, 30).value
    none = quad_contour(dataclasses.replace(intg, saddle_guess=None), 0.3, 30).value
    assert bad == none
    exact = 2.0j * math.pi * 30 ** (-1.0 / 3.0) * airy_ai(0.3 * 30 ** (2.0 / 3.0))
    assert abs(bad - exact) <= 1e-9 * abs(exact)


def test_value_outside_double_range_raises():
    # |I| = 3.9e-2 e^(-707) at alpha = 0.5, N = 3000 is below the smallest
    # normal double
    with pytest.raises(ToleranceNotMet, match="outside the double range"):
        quad_contour(registry_get("cubic"), 0.5, 3000)


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


def test_cubature_failed_saddle_solve_falls_back():
    # find_saddle_nd from [50, 0] raises NoConvergence inside cubature_nd,
    # which then grades from the guess: the value agrees with the one
    # through the solved saddle within its estimate, and with the exact
    # Airy times Gaussian value
    soft = registry_get("nd-separable", {"dim": "2"}).soft_contour
    far = IntegrandND(
        F=lambda x, a: x[0] * x[0] * x[0] / 3.0 - a * x[0] - 0.5 * x[1] * x[1],
        dim=2, soft_contour=soft, saddle_guess=lambda a: np.array([50.0, 0.0]),
    )
    near = dataclasses.replace(far, saddle_guess=lambda a: np.array([math.sqrt(a), 0.0]))
    with pytest.raises(NoConvergence):
        find_saddle_nd(far, 0.3, far.saddle_guess(0.3))
    fallback, solved = cubature_nd(far, 0.3, 30), cubature_nd(near, 0.3, 30)
    assert abs(fallback.value - solved.value) <= fallback.abs_error_estimate
    exact = (2.0j * math.pi * 30 ** (-1.0 / 3.0) * airy_ai(0.3 * 30 ** (2.0 / 3.0))
             * math.sqrt(2.0 * math.pi / 30))
    assert abs(fallback.value - exact) <= 1e-8 * abs(exact)


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


def test_quad_rejects_ray_growth():
    # exp(N f) grows along both rays of the real line for f = +z^2, so no
    # cut radius makes the truncation small
    c = ContourPath((0j,), tail_angle=math.pi, head_angle=0.0)
    bad = Integrand1D(f=lambda z, a: z * z, g=lambda z: 1.0 + 0.0 * z, contour=c)
    with pytest.raises(RayDivergence):
        quad_contour(bad, 0.1, 10.0)


def test_bessel_nonpositive_alpha_is_typed():
    # bessel-sinh has no real saddle at alpha <= 0: the guess raises
    # BadParameter, the oracle falls back to the declared contour, and what
    # that meets is a typed error too; a non-finite alpha is refused first
    intg = registry_get("bessel-sinh")
    for alpha, error in ((-0.5, RayDivergence), (-math.inf, BadParameter),
                         (0.0, ToleranceNotMet)):
        with pytest.raises(BadParameter, match="alpha > 0"):
            intg.saddle_guess(alpha)
        with pytest.raises(error):
            quad_contour(intg, alpha, 30)


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


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name, c", [("nd-perturbed-cubic", 0.1), ("nd-separable", 0.0)])
def test_cubature_matches_exact_transverse_gaussian(name, c, dim):
    # both n-D families are quadratic in x_perp, so the transverse integral
    # is Gaussian: sqrt(2 pi / N)^(dim - 1) prod_{i>=3} |lambda_i|^(-1/2)
    # times the 1-D contour integral of exp(N f) (-lambda_2 - 2 c z)^(-1/2)
    params = {"dim": str(dim), "lambda3": "-2"} if dim == 3 else {"dim": "2"}
    intg = registry_get(name, params)
    one_d = dataclasses.replace(
        registry_get("perturbed-cubic"), g=lambda z: 1.0 / np.sqrt(1.0 - 2.0 * c * z)
    )
    grid = np.array([30.0, 100.0, 300.0])
    factor = np.sqrt(2.0 * np.pi / grid) ** (dim - 1) * (2.0 ** -0.5 if dim == 3 else 1.0)
    for alpha in (0.0, 0.1, 0.25, 0.5):
        exact = quad_contour(one_d, alpha, grid, tol=1e-13).value * factor
        r = cubature_nd(intg, alpha, grid, tol=1e-10)
        err = np.abs(r.value - exact)
        assert np.all(err <= 1e-12 * np.abs(exact)), (alpha, err / np.abs(exact))
        assert np.all(err <= r.abs_error_estimate), (alpha, err, r.abs_error_estimate)


def test_cubature_matches_mpmath_transverse_gaussian():
    # the reference of the test above comes from quad_contour, which shares
    # cubature_nd's panel loop; here mpmath integrates
    # exp(N f) (-lambda_2 - 2 c z)^(-1/2) in along the ray at -pi/3 and out
    # along the ray at +pi/3
    mpmath = pytest.importorskip("mpmath")
    grid = np.array([30.0, 100.0])
    for alpha in (0.0, 0.25, 0.5):
        one_d = []
        with mpmath.workdps(30):
            a, eps, c = mpmath.mpf(alpha), mpmath.mpf("0.05"), mpmath.mpf("0.1")
            for N in grid.astype(int):
                def ray(u, N=N):
                    def h(t):
                        z = t * u
                        return u * mpmath.exp(N * (z ** 3 / 3 - a * z + eps * z ** 4)) \
                            / mpmath.sqrt(1 - 2 * c * z)

                    return mpmath.quad(h, [0, 0.5, 1, 2, mpmath.inf])

                u = mpmath.expj(mpmath.pi / 3)
                one_d.append(complex(ray(u) - ray(mpmath.conj(u))))
        for dim in (2, 3):
            params = {"dim": str(dim), "lambda3": "-2"} if dim == 3 else {"dim": "2"}
            r = cubature_nd(registry_get("nd-perturbed-cubic", params), alpha, grid, tol=1e-10)
            ref = np.array(one_d) * np.sqrt(2.0 * np.pi / grid) ** (dim - 1)
            ref *= 2.0 ** -0.5 if dim == 3 else 1.0
            err = np.abs(r.value - ref)
            assert np.all(err <= 1e-12 * np.abs(ref)), (alpha, dim, err / np.abs(ref))
            assert np.all(err <= r.abs_error_estimate), (alpha, dim, err, r.abs_error_estimate)


def test_cubature_moving_transverse_peak_is_exact_or_raises():
    # nd-separable + c x1 x2 puts the transverse peak at x2 = c x1, which
    # moves with the soft node off the saddle; completing the square leaves
    # sqrt(2 pi / N) times the 1-D integral of exp(N (f + c^2 z^2 / 2)).  The
    # transverse rule sits at the saddle's x2: it must follow a small move
    # and raise, not return a wrong value, on a large one.  The reference
    # keeps perturbed-cubic's saddle_guess: through the declared contour
    # alone, quad_contour meets cancellation
    sep = registry_get("nd-separable", {"dim": "2"})
    cubic = registry_get("perturbed-cubic")
    for c in (0.3, 1.0):
        intg = IntegrandND(
            F=lambda x, a, c=c: sep.F(x, a) + c * x[0] * x[1],
            dim=2,
            soft_contour=sep.soft_contour,
            saddle_guess=sep.saddle_guess,
        )
        one_d = dataclasses.replace(
            cubic, f=lambda z, a, c=c: cubic.f(z, a) + 0.5 * c * c * z * z, analytic_derivs=None
        )
        for alpha in (0.1, 0.3):
            for N in (30.0, 100.0):
                if c == 1.0:
                    with pytest.raises(ToleranceNotMet):
                        cubature_nd(intg, alpha, N, tol=1e-10)
                    continue
                exact = quad_contour(one_d, alpha, N, tol=1e-13).value
                exact *= math.sqrt(2.0 * math.pi / N)
                r = cubature_nd(intg, alpha, N, tol=1e-10)
                assert abs(r.value - exact) <= 1e-12 * abs(exact)


def test_cubature_does_not_depend_on_chunking(monkeypatch):
    # 3-D: 256 transverse points per node, so a cap of 2^12 points per call
    # of F splits each N's nodes into chunks of 16
    intg = registry_get("nd-perturbed-cubic", {"dim": "3", "lambda3": "-2"})
    whole = cubature_nd(intg, 0.25, [30, 100])
    monkeypatch.setattr(oracle, "_MAX_POINTS", 2 ** 12)
    chunked = cubature_nd(intg, 0.25, [30, 100])
    assert np.array_equal(chunked.value, whole.value)
    assert np.array_equal(chunked.abs_error_estimate, whole.abs_error_estimate)


def _assert_grid_matches_scalar(oracle, intg, alpha, grid, tol):
    g = oracle(intg, alpha, grid, tol=tol)
    assert isinstance(g.evaluations, int)
    assert g.value.shape == g.abs_error_estimate.shape == (len(grid),)
    for N, v, e in zip(grid, g.value, g.abs_error_estimate):
        s = oracle(intg, alpha, N, tol=tol)
        assert abs(v - s.value) <= e
    return g


def test_quad_grid_matches_scalar_and_jv():
    # one pass over an unsorted N grid with a repeat: rays cut at N = 10,
    # panels graded at N = 1000, each N accepting its own panels
    intg = registry_get("bessel-sinh")
    grid = [1000, 10, 30, 30, 100]
    for alpha in (0.6, 0.8, 0.95, 1.0):
        g = _assert_grid_matches_scalar(quad_contour, intg, alpha, grid, 1e-10)
        assert g.value[2] == g.value[3]
        for N, v in zip(grid, g.value):
            ref = bessel_ref(N, alpha * N)
            assert abs(v - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("name", ["nd-perturbed-cubic", "nd-separable"])
def test_cubature_grid_matches_scalar(name):
    intg = registry_get(name, {"dim": "2"})
    for alpha in (0.0, 0.2, 0.5):
        _assert_grid_matches_scalar(cubature_nd, intg, alpha, [100, 30, 300, 30], 1e-8)


def test_one_element_grid_is_the_scalar_call():
    intg = registry_get("bessel-sinh")
    s = quad_contour(intg, 0.9, 30)
    g = quad_contour(intg, 0.9, [30])
    assert isinstance(s.value, complex) and isinstance(s.evaluations, int)
    assert g.value[0] == pytest.approx(s.value, rel=1e-15)
    assert g.evaluations == s.evaluations
    nd = registry_get("nd-separable", {"dim": "2"})
    s = cubature_nd(nd, 0.2, 30)
    g = cubature_nd(nd, 0.2, (30,))
    assert isinstance(s.value, complex) and isinstance(s.evaluations, int)
    assert g.value[0] == pytest.approx(s.value, rel=1e-15)
    # a 0-d array is a one-element grid, and its result stays an array
    for oracle_, integrand, alpha in ((quad_contour, intg, 0.9), (cubature_nd, nd, 0.2)):
        g, z = oracle_(integrand, alpha, [30]), oracle_(integrand, alpha, np.array(30.0))
        assert z.value.shape == z.abs_error_estimate.shape == (1,)
        assert z.value[0] == g.value[0] and z.abs_error_estimate[0] == g.abs_error_estimate[0]


def curie_weiss(m, gamma, N):
    """The mean-field toy's integral, int exp(-N z^2 / (2 gamma)) cosh^N(z + m) dz
    over the real line, exactly for integer N: expanding cosh^N binomially
    leaves Gaussian integrals, so it is

        sqrt(2 pi gamma / N) 2^-N sum_k C(N, k) exp((N - 2k) m + gamma (N - 2k)^2 / (2N)),

    taken here as a float log-sum-exp.  Its rounding grows with the size of
    the exponents: 6.6e-13 relative at gamma = 2, N = 1000."""
    k = np.arange(N + 1.0)
    j = N - 2.0 * k
    logs = (gammaln(N + 1.0) - gammaln(k + 1.0) - gammaln(N - k + 1.0)
            + j * m + gamma * j * j / (2.0 * N) - N * math.log(2.0))
    return math.sqrt(2.0 * math.pi * gamma / N) * math.exp(logsumexp(logs))


@pytest.mark.parametrize("m, gamma, N", [(0.1, 1.2, 100), (0.0, 2.0, 1000), (0.01, 0.8, 10),
                                         (0.1, 1.5, 300)])
def test_curie_weiss_against_mpmath(m, gamma, N):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        g, mm = mpmath.mpf(gamma), mpmath.mpf(m)
        total = mpmath.fsum(
            mpmath.binomial(N, k) * mpmath.exp((N - 2 * k) * mm + g * (N - 2 * k) ** 2 / (2 * N))
            for k in range(N + 1)
        )
        ref = mpmath.sqrt(2 * mpmath.pi * g / N) * total / mpmath.mpf(2) ** N
        assert abs(curie_weiss(m, gamma, N) - ref) <= 1e-12 * ref


# quad_contour misses the far metastable maximum at this cell (ROADMAP item
# 18): off by 4.8e-9, where its weight e^(-N (f(z+) - f(z-))) is e^(-19.15)
CURIE_WEISS_KNOWN_MISSES = {(0.01, 2.0, 1000)}


def test_quad_matches_curie_weiss():
    # every cell within 1e-12 but the known miss, which must keep failing
    # until item 18 mends it, and then leave this set
    ns = (10, 30, 100, 300, 1000)
    misses = set()
    for m in (0.0, 0.01, 0.1):
        intg = registry_get("mean-field-toy", {"m": m})
        for gamma in np.linspace(0.8, 2.0, 13).tolist():
            values = quad_contour(intg, gamma, ns, tol=1e-12).value
            for n, v in zip(ns, values):
                exact = curie_weiss(m, gamma, n)
                if abs(v - exact) > 1e-12 * exact:
                    misses.add((m, round(gamma, 12), n))
    assert misses == CURIE_WEISS_KNOWN_MISSES


def njl_exact(alpha, N):
    """log |I| and the sign of the NJL-type model's integral
    I(alpha, N) = int exp(N f(s, alpha)) ds over the real line, with
    f = -s^2/2 + log(2 alpha + i s), for integer N:
    I = sqrt(2 pi / N) N^(-N/2) He_N(2 alpha sqrt(N)).  h_n = N^(-n/2) He_n
    runs the Hermite recurrence as h_(n+1) = 2 alpha h_n - (n/N) h_(n-1),
    and is rescaled into log_scale before it can overflow."""
    h_prev, h, log_scale = 1.0, 2.0 * alpha, 0.0
    for n in range(1, N):
        h_prev, h = h, 2.0 * alpha * h - (n / N) * h_prev
        if abs(h) > 1e100:
            log_scale += math.log(abs(h))
            h_prev, h = h_prev / abs(h), math.copysign(1.0, h)
    return 0.5 * math.log(2.0 * math.pi / N) + log_scale + math.log(abs(h)), math.copysign(1.0, h)


def _njl_guess(alpha):
    # the saddle nearer the real line: on the imaginary axis above the fold
    # at alpha = 1, and the right one of the pair +-sqrt(1 - alpha^2) + i alpha below
    if alpha >= 1.0:
        return 1j * (alpha - math.sqrt(alpha * alpha - 1.0))
    return complex(math.sqrt(1.0 - alpha * alpha), alpha)


def njl():
    """The NJL-type model as an ``Integrand1D``, with finite-difference derivatives."""
    return Integrand1D(
        f=lambda z, a: -z * z / 2.0 + np.log(2.0 * a + 1j * z),
        g=lambda z: 1.0 + 0.0 * z,
        contour=ContourPath((0j,), tail_angle=math.pi, head_angle=0.0),
        saddle_guess=_njl_guess,
        caustic_guess=(0.9j, 0.9),
        name="njl",
    )


@pytest.mark.parametrize("alpha, N", [(0.3, 1000), (0.8, 10), (0.99, 100), (1.0, 1000),
                                      (1.2, 2), (15.0, 1000)])
def test_njl_exact_against_mpmath(alpha, N):
    mpmath = pytest.importorskip("mpmath")
    log_abs, sign = njl_exact(alpha, N)
    with mpmath.workdps(40):
        y = 2 * mpmath.mpf(alpha) * mpmath.sqrt(N)
        # He_N(y) = 2^(-N/2) H_N(y / sqrt(2)), with mpmath's physicists' H_N
        he = mpmath.hermite(N, y / mpmath.sqrt(2)) / mpmath.mpf(2) ** (mpmath.mpf(N) / 2)
        ref = mpmath.sqrt(2 * mpmath.pi / N) * mpmath.mpf(N) ** (-mpmath.mpf(N) / 2) * he
        assert sign == mpmath.sign(ref)
        assert abs(log_abs - mpmath.log(abs(ref))) <= 1e-12


def test_quad_matches_njl_exact():
    # both sides of the fold at alpha = 1
    intg, ns = njl(), (10, 30, 100, 300)
    for alpha in np.linspace(0.8, 1.5, 15).tolist():
        values = quad_contour(intg, alpha, ns, tol=1e-12).value
        for n, v in zip(ns, values):
            log_abs, sign = njl_exact(alpha, n)
            exact = sign * math.exp(log_abs)
            assert abs(v - exact) <= 1e-12 * abs(exact), (alpha, n)


def test_njl_caustic_is_exact():
    # f' = f'' = 0 at s = i, alpha = 1, found here with finite-difference
    # derivatives
    c = find_caustic(njl())
    assert abs(c.alpha_hat - 1.0) <= 1e-12
    assert abs(c.z_tilde - 1j) <= 1e-12


def test_kronrod_table():
    # K21 integrates x^k over [-1, 1] exactly for k <= 31, and the G10 rule
    # on its odd-indexed nodes for k <= 19
    x, w_k, w_g = oracle._GK_X, oracle._GK_W, oracle._GK_W - oracle._GK_D
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(x ** k @ w_k - exact) <= 1e-14, k
        if k <= 19:
            assert abs(x ** k @ w_g - exact) <= 1e-14, k
    x_g, w_ref = np.polynomial.legendre.leggauss(10)
    assert np.all(np.abs(x[1::2] - x_g) <= 1e-15)
    assert np.all(np.abs(w_g[1::2] - w_ref) <= 1e-15)
    assert np.all(w_g[::2] == 0.0)
    assert np.all(w_k > 0.0) and np.all(w_g[1::2] > 0.0)
    assert np.all(x == -x[::-1]) and np.all(w_k == w_k[::-1]) and np.all(w_g == w_g[::-1])


def test_saddle_on_a_ray_against_mpmath():
    # the mean-field toy's saddle z0 = 1.3408 lies on the real line, its
    # contour, so the contour is not moved; the radii 1.10 and 1.56 of the
    # ray grid both miss the peak at N = 3000, and the ray cut must still
    # reach past it.  The reference is mpmath at 30 digits along the real
    # line with breakpoints at z0 -+ 1
    intg = registry_get("mean-field-toy", {"m": 0.1})
    s = find_saddle(intg, 1.5, intg.saddle_guess(1.5))
    r = quad_contour(intg, 1.5, 3000)
    ref = 0.0670792215566637911
    assert abs(r.value * math.exp(-3000 * s.f0.real) - ref) <= 1e-9 * ref


def test_no_panel_left_is_typed(monkeypatch):
    # ray cuts that leave no panel raise a typed error, not numpy's
    intg = dataclasses.replace(registry_get("mean-field-toy", {"m": 0.1}), saddle_guess=None)
    monkeypatch.setattr(oracle, "_cuts", lambda r, e, tol: np.zeros(e.shape[:-1]))
    with pytest.raises(ToleranceNotMet, match="no panel"):
        quad_contour(intg, 1.5, 30)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
def test_oracles_reject_bad_tol(tol):
    with pytest.raises(BadParameter, match="tol must be finite and > 0"):
        quad_contour(registry_get("cubic"), 0.5, 30, tol=tol)
    with pytest.raises(BadParameter, match="tol must be finite and > 0"):
        cubature_nd(registry_get("nd-perturbed-cubic"), 0.25, 30, tol=tol)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_oracles_reject_non_finite_alpha(alpha):
    # as the formulas do
    with pytest.raises(BadParameter, match="alpha must be finite"):
        quad_contour(registry_get("cubic"), alpha, 30)
    with pytest.raises(BadParameter, match="alpha must be finite"):
        cubature_nd(registry_get("nd-separable"), alpha, 30)
