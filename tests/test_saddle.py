import dataclasses
import math
import warnings

import numpy as np
import pytest

from caustica import saddle
from caustica import (
    DegenerateCubic,
    IntegrandND,
    NoConvergence,
    PartnerNotFound,
    WrongRegime,
    derive,
    find_caustic,
    find_partner,
    find_saddle,
    find_saddle_nd,
    registry_get,
)


# ---------------------------------------------------------------------------
# one-variable saddles


def test_cubic_saddles():
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.49, 0.6 + 0j)
    assert s.z0 == pytest.approx(0.7, abs=1e-10)
    assert s.f2 == pytest.approx(1.4, abs=1e-9)
    s = find_saddle(intg, 0.49, -0.6 + 0j)
    assert s.z0 == pytest.approx(-0.7, abs=1e-10)


def test_saddle_from_inflection_takes_cubic_model_step():
    # at z = 0, f'' = 0 on the cubic: the Newton step is undefined, and the
    # cubic model's step -sqrt(2 f'/f''') leads to the saddle at -sqrt(alpha)
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.25, 0j)
    assert s.z0 == pytest.approx(-0.5, abs=1e-12)
    assert abs(s.f2 + 1.0) <= 1e-12 and s.iterations == 9


def test_bessel_saddle_is_acosh():
    intg = registry_get("bessel-sinh")
    s = find_saddle(intg, 0.8, intg.saddle_guess(0.8))
    assert s.z0.real == pytest.approx(math.acosh(1.0 / 0.8), abs=1e-10)
    assert abs(s.z0.imag) < 1e-10


def test_saddle_residual_reported():
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.25, 0.4 + 0j)
    (f1,) = derive(intg, 0.4 + 0j, 0.25, 1)
    assert s.residual <= 1e-12 * max(1.0, abs(f1))
    assert s.iterations >= 1


def test_saddle_no_convergence():
    intg = registry_get("cubic")
    # negative alpha: real saddles vanish, and a real iteration that is
    # capped at unit steps keeps hunting
    with pytest.raises(NoConvergence):
        find_saddle(intg, -25.0, 50.0 + 0j)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf])
def test_saddle_non_finite_derivative_is_no_convergence(alpha):
    # f' = -alpha at the first iterate is infinite, and so was the scale of
    # the convergence test, which then passed with f0 = -+inf + nan i
    with pytest.raises(NoConvergence, match="not finite"):
        find_saddle(registry_get("cubic"), alpha, 0.5)


# ---------------------------------------------------------------------------
# caustic location


def test_cubic_caustic_at_origin():
    c = find_caustic(registry_get("cubic"))
    assert abs(c.z_tilde) < 1e-6
    assert abs(c.alpha_hat) < 1e-8
    assert c.f3_tilde == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("name", ["cubic", "perturbed-cubic"])
def test_cubic_family_caustic_is_exact(name, analytic):
    # f = z^3/3 - alpha z + eps z^4: f'' = 2z + 12 eps z^2 vanishes at z = 0,
    # where f' = -alpha, so the fold is at (0, 0) to rounding
    intg = registry_get(name)
    if not analytic:
        intg = dataclasses.replace(intg, analytic_derivs=None)
    c = find_caustic(intg)
    assert c.alpha_hat == 0.0
    assert abs(c.z_tilde) <= 1e-16
    # at alpha_hat the pair is a double root at 0, which the default tol finds
    s = find_saddle(intg, c.alpha_hat, intg.saddle_guess(c.alpha_hat))
    assert abs(s.z0) <= 1e-5


def test_bessel_caustic():
    c = find_caustic(registry_get("bessel-sinh"))
    assert abs(c.z_tilde) < 1e-6
    assert c.alpha_hat == pytest.approx(1.0, abs=1e-8)
    assert c.f3_tilde == pytest.approx(1.0, abs=1e-6)


def test_mean_field_caustic_self_consistent():
    intg = registry_get("mean-field-toy", {"m": 0.05})
    c = find_caustic(intg)
    f1, f2 = derive(intg, c.z_tilde, c.alpha_hat, 2)
    assert abs(f1) < 1e-10
    assert abs(f2) < 1e-10
    assert c.alpha_hat > 1.0  # supercritical coupling


def test_mean_field_m0_is_degenerate():
    # at m = 0 the f''=0 point is symmetric and f''' vanishes too: a cusp
    intg = registry_get("mean-field-toy", {"m": 0.0})
    with pytest.raises(DegenerateCubic):
        find_caustic(intg)


def test_caustic_overflow_is_no_convergence():
    # m = 1e10: cosh(z + m) overflows in the f'' provider at the first iterate
    intg = registry_get("mean-field-toy", {"m": "1e10"})
    with pytest.raises(NoConvergence, match="find_caustic: derivatives overflow"):
        find_caustic(intg)


def test_z_tilde_continuation_overflow_is_no_convergence():
    intg = registry_get("mean-field-toy", {"m": "0.1"})
    far = dataclasses.replace(find_caustic(intg), z_tilde=-1e6 + 0j)
    with pytest.raises(NoConvergence, match="z_tilde continuation: derivatives overflow"):
        far.z_tilde_at(intg, 1.3)


def test_caustic_far_guess_is_no_convergence():
    # from (50, -100) the damped Newton for z_tilde, capped at unit steps,
    # does not reach the fold at z = 0 within its iterations
    intg = dataclasses.replace(registry_get("cubic"), caustic_guess=(50 + 0j, -100.0))
    with pytest.raises(NoConvergence, match="find_caustic stalled"):
        find_caustic(intg)


def test_caustic_alpha_free_integrand_is_no_convergence():
    # f' at z_tilde does not move with alpha, so there is no secant step
    intg = dataclasses.replace(
        registry_get("cubic"), f=lambda z, a: z**3 / 3.0 - 0.5 * z, analytic_derivs=None
    )
    with pytest.raises(NoConvergence, match="find_caustic: f' = .* stalls"):
        find_caustic(intg)


def test_caustic_needs_a_guess():
    intg = dataclasses.replace(registry_get("cubic"), caustic_guess=None)
    with pytest.raises(NoConvergence, match="needs a guess"):
        find_caustic(intg)


def test_z_tilde_continuation():
    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    zt = c.z_tilde_at(intg, 0.8)
    f1, f2 = derive(intg, zt, 0.8, 2)
    assert abs(f2) < 1e-10
    # f' at the expansion point is the fold displacement, nonzero off-caustic
    assert abs(f1) > 1e-3


def test_z_tilde_continuation_runs_off_typed():
    # on the mean-field toy below the coupling window the Newton iteration
    # for f'' = 0 wanders off; damped, it ends in NoConvergence instead of
    # an OverflowError from cosh
    toy = registry_get("mean-field-toy", {"m": 0.1})
    c = find_caustic(toy)
    with pytest.raises(NoConvergence):
        c.z_tilde_at(toy, 0.95)


def test_z_tilde_continuation_flat_third_derivative():
    # f''' = 0 leaves no Newton step for f'' = 0
    cubic = registry_get("cubic")
    quadratic = dataclasses.replace(
        cubic,
        analytic_derivs=(
            lambda z, a: z - a,
            lambda z, a: 1.0 + 0.0 * z,
            lambda z, a: 0.0 * z,
            lambda z, a: 0.0 * z,
        ),
    )
    c = find_caustic(cubic)
    with pytest.raises(NoConvergence):
        c.z_tilde_at(quadratic, 0.1)


# ---------------------------------------------------------------------------
# partner saddle


def test_partner_cubic():
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.25, 0.6 + 0j)
    p = find_partner(intg, 0.25, s)
    assert p.z0 == pytest.approx(-0.5, abs=1e-10)


def test_partner_seed_relation():
    # near the fold the partner sits close to z0 - 2 f2/f3
    intg = registry_get("bessel-sinh")
    s = find_saddle(intg, 0.9, intg.saddle_guess(0.9))
    p = find_partner(intg, 0.9, s)
    seed = s.z0 - 2.0 * s.f2 / s.f3
    assert abs(p.z0 - seed) <= 0.2 * abs(p.z0 - s.z0)


def test_partner_overflow_is_partner_not_found():
    # m = 1e-4: the cubic model seeds the partner at z ~ -5e3, where f''
    # overflows; the solve must end in a typed error, not OverflowError
    intg = registry_get("mean-field-toy", {"m": "0.0001"})
    s = find_saddle(intg, 0.5, intg.saddle_guess(0.5))
    with pytest.raises(PartnerNotFound, match="overflow"):
        find_partner(intg, 0.5, s)
    with pytest.raises(NoConvergence, match="overflow"):
        find_saddle(intg, 0.5, -5000.0)


def test_partner_rejects_degenerate():
    intg = registry_get("bessel-sinh")
    s = find_saddle(intg, 1.0, intg.saddle_guess(1.0))
    # the pair has (numerically) coalesced at the caustic
    with pytest.raises(PartnerNotFound):
        find_partner(intg, 1.0, s)


def test_tilde_point_between_saddles():
    # |z_tilde - z0| ~ |f2/f3| near the fold
    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    s = find_saddle(intg, 0.9, intg.saddle_guess(0.9))
    gap = abs(c.z_tilde_at(intg, 0.9) - s.z0)
    est = abs(s.f2 / s.f3)
    assert abs(gap - est) <= 0.2 * est


# ---------------------------------------------------------------------------
# n-D saddles


def test_nd_saddle_location_and_spectrum():
    intg = registry_get("nd-perturbed-cubic", {"dim": "2", "eps": "0.05", "c": "0.1"})
    s = find_saddle_nd(intg, 0.2, intg.saddle_guess(0.2))
    assert s.saddle.residual < 1e-9
    # recessive anchor: x1 near +sqrt(alpha), transverse mode at rest
    assert s.x0[0] == pytest.approx(math.sqrt(0.2), abs=0.05)
    assert abs(s.x0[1]) < 1e-9
    # soft curvature positive along the real axis, transverse mode negative
    assert s.saddle.f2.real > 0.0
    assert s.hessian[0, 0].real == pytest.approx(-1.0 + 2.0 * 0.1 * s.x0[0].real, rel=1e-10)


def test_nd_soft_cubic_coefficient():
    intg = registry_get("nd-separable", {"dim": "2", "eps": "0.05"})
    s = find_saddle_nd(intg, 0.2, intg.saddle_guess(0.2))
    # separable: the reduced exponent is the soft cubic, f''' = 2 + 24 eps x0
    assert s.saddle.f3 == pytest.approx(2.0 + 24.0 * 0.05 * s.x0[0], abs=1e-8)


def test_nd_reduced_curvature_is_schur_complement():
    # off the transverse rest point the reduced curvature is the Schur
    # complement F11 - F12^2 / F22 of the Hessian (envelope theorem):
    # F = x1^3/3 - a x1 - x2^2/2 + b x1 x2 has x2* = b x1
    b = 0.3
    intg = IntegrandND(
        F=lambda x, a: x[0] ** 3 / 3.0 - a * x[0] - 0.5 * x[1] ** 2 + b * x[0] * x[1],
        dim=2,
        soft_contour=registry_get("nd-separable").soft_contour,
    )
    s = find_saddle_nd(intg, 0.2, np.array([0.5, 0.0]))
    z0 = s.x0[0]
    assert s.x0[1] == pytest.approx(b * z0, abs=1e-12)
    assert s.saddle.f2 == pytest.approx(2.0 * z0 + b * b, abs=1e-9)


def test_nd_reduction_keeps_mixed_cubic():
    # F = x1^3/3 - a x1 - x2^2/2 + c x1^2 x2 has x2* = c x1^2, so the mixed
    # cubic term enters the reduced exponent as c^2 x1^4 / 2 and its f'''
    # as 2 + 12 c^2 x1
    c = 0.2
    intg = IntegrandND(
        F=lambda x, a: x[0] ** 3 / 3.0 - a * x[0] - 0.5 * x[1] ** 2 + c * x[0] ** 2 * x[1],
        dim=2,
        soft_contour=registry_get("nd-separable").soft_contour,
    )
    s = find_saddle_nd(intg, 0.2, np.array([0.45, 0.0]))
    z0 = s.x0[0]
    assert s.x0[1] == pytest.approx(c * z0 ** 2, abs=1e-12)
    assert s.saddle.f3 == pytest.approx(2.0 + 12.0 * c * c * z0, abs=1e-8)
    z = np.array([0.3 + 0.2j, -0.4 + 0.5j])
    exact = z ** 3 / 3.0 - 0.2 * z + 0.5 * c * c * z ** 4
    assert np.allclose(s.reduced.f(z, 0.2), exact, rtol=0.0, atol=1e-14)


def test_nd_positive_transverse_rejected():
    # a saddle with a positive transverse eigenvalue is not a max-type fold
    intg = IntegrandND(
        F=lambda x, a: x[0] ** 3 / 3.0 - 0.2 * x[0] + 0.6 * x[1] ** 2,
        dim=2,
    )
    with pytest.raises(WrongRegime):
        find_saddle_nd(intg, 0.2, np.array([-0.45, 0.0]))


def test_nd_singular_transverse_hessian_is_no_convergence(monkeypatch):
    # F linear in x2 has a zero transverse Hessian, which the jets read as
    # rounding noise: each transverse Newton step is damped to length 1, so
    # the iterates stay near the seed, no jet radius overflows, and the
    # solve ends in a typed error
    intg = IntegrandND(F=lambda x, a: x[0] ** 3 / 3.0 - a * x[0] + x[1], dim=2)
    scales = []

    def recorded(func, scale, jet=saddle._jet):
        scales.append(scale)
        return jet(func, scale)

    monkeypatch.setattr(saddle, "_jet", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match="transverse Newton"):
            find_saddle_nd(intg, 0.5, np.array([0.7, 0.0]))
    assert scales and max(scales) <= 100.0


def test_nd_bad_guess_shape():
    intg = registry_get("nd-separable", {"dim": "3"})
    with pytest.raises(WrongRegime):
        find_saddle_nd(intg, 0.2, np.zeros(2))


def test_partner_zero_cubic_coefficient():
    intg = registry_get("cubic")
    s = dataclasses.replace(find_saddle(intg, 0.3, intg.saddle_guess(0.3)), f3=0j)
    with pytest.raises(PartnerNotFound, match="cubic coefficient vanishes"):
        find_partner(intg, 0.3, s)
