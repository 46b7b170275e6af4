import cmath
import math

import numpy as np
import pytest

from caustica import (
    BadParameter,
    ContourPath,
    Integrand1D,
    RayDivergence,
    StepUnderflow,
    UnknownIntegrand,
    derive,
    derive_nd,
    registry_get,
    registry_names,
)


# ---------------------------------------------------------------------------
# registry


def test_registry_names():
    names = registry_names()
    for expected in (
        "cubic",
        "perturbed-cubic",
        "bessel-sinh",
        "mean-field-toy",
        "nd-perturbed-cubic",
        "nd-separable",
    ):
        assert expected in names


_ARRAY_POINTS = np.concatenate((
    np.linspace(-4.0, 4.0, 41),
    np.linspace(-3.0, 3.0, 13)[:, None] + 1j * np.linspace(-2.5, 2.5, 11),
    [35.0 + 0.5j, -40.0 - 1.0j],
), axis=None).astype(complex)


@pytest.mark.parametrize("name", ["cubic", "perturbed-cubic", "bessel-sinh", "mean-field-toy"])
def test_array_calls_match_scalar_calls(name):
    # quad_contour and the derivative jet call f and g on numpy arrays
    intg = registry_get(name)
    for alpha in intg.alpha_range:
        for fn, args in ((intg.f, (alpha,)), (intg.g, ())):
            arr = fn(_ARRAY_POINTS, *args)
            ref = np.array([complex(fn(z, *args)) for z in _ARRAY_POINTS.tolist()])
            if name != "mean-field-toy":
                assert np.array_equal(arr.view(np.uint64), ref.view(np.uint64))
            else:
                # numpy's exp, log and cosh differ from math's and cmath's in
                # the last bit, and f passes through 0 on the real axis
                assert np.all(np.abs(arr - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))


def test_registry_unknown():
    with pytest.raises(UnknownIntegrand):
        registry_get("no-such-family")


def test_registry_bad_eps():
    with pytest.raises(BadParameter):
        registry_get("perturbed-cubic", {"eps": "0"})
    with pytest.raises(BadParameter):
        registry_get("nd-perturbed-cubic", {"eps": "-0.1"})


def test_registry_nd_bad_lambda():
    with pytest.raises(BadParameter):
        registry_get("nd-perturbed-cubic", {"lambda2": "0.5"})


# ---------------------------------------------------------------------------
# contour geometry


def test_contour_validation():
    with pytest.raises(BadParameter):
        ContourPath((), tail_angle=0.0, head_angle=0.0)
    with pytest.raises(BadParameter):
        ContourPath((0j, 0j), tail_angle=0.0, head_angle=0.0)
    with pytest.raises(BadParameter):
        ContourPath((0j,), tail_angle=4.0, head_angle=0.0)
    with pytest.raises(BadParameter):
        ContourPath((0j,), tail_angle=0.0, head_angle=0.0, orientation=2)


def test_contour_tangent_on_segment():
    c = ContourPath((0j, 1j), tail_angle=0.0, head_angle=0.0)
    u = c.tangent_near(0.5j)
    assert abs(u - 1j) < 1e-12


def test_contour_tangent_single_node_average():
    # Airy-type rays +-pi/3: the averaged direction is vertical
    c = ContourPath((0j,), tail_angle=-math.pi / 3, head_angle=math.pi / 3)
    u = c.tangent_near(0.2 + 0.0j)
    assert abs(u - 1j) < 1e-12


# ---------------------------------------------------------------------------
# derivative engine: analytic examples


def test_derive_cubic_analytic():
    intg = registry_get("cubic")
    f1, f2 = derive(intg, 1.0 + 0j, 0.5, 2)
    assert f1 == pytest.approx(0.5)
    assert f2 == pytest.approx(2.0)
    *_, f3, f4 = derive(intg, 0.3 + 0j, 0.0, 4)
    assert f3 == pytest.approx(2.0)
    assert f4 == pytest.approx(0.0)


def test_derive_bessel_at_caustic():
    intg = registry_get("bessel-sinh")
    # at (z, alpha) = (0, 1): f'' = sinh(0) = 0 and f''' = cosh(0) = 1
    _, f2, f3 = derive(intg, 0j, 1.0, 3)
    assert abs(f2) < 1e-14
    assert f3 == pytest.approx(1.0)


def test_derive_bad_order():
    intg = registry_get("cubic")
    with pytest.raises(BadParameter):
        derive(intg, 0j, 0.1, 5)


def _fd_clone(intg):
    """Same integrand with the analytic derivative provider removed."""
    return Integrand1D(
        f=intg.f,
        g=intg.g,
        contour=intg.contour,
        analytic_derivs=None,
        real_result_hint=intg.real_result_hint,
        prefactor=intg.prefactor,
        alpha_range=intg.alpha_range,
        saddle_guess=intg.saddle_guess,
        caustic_guess=intg.caustic_guess,
        name=intg.name + "-fd",
    )


@pytest.mark.parametrize("name,alpha,points", [
    ("cubic", 0.4, [0.7 + 0.0j, 0.1 + 0.3j]),
    ("perturbed-cubic", 0.3, [0.5 + 0.0j, -0.2 + 0.1j]),
    ("bessel-sinh", 0.8, [0.7 + 0.0j, 0.3 + 0.5j]),
])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fd_matches_analytic(name, alpha, points, order):
    intg = registry_get(name)
    fd = _fd_clone(intg)
    for z in points:
        ref = derive(intg, z, alpha, order)
        val = derive(fd, z, alpha, order)
        assert len(val) == order
        for v, r in zip(val, ref):
            assert abs(v - r) <= 1e-7 * max(1.0, abs(r))


@pytest.mark.parametrize("order,tol", [(1, 1e-7), (2, 1e-7), (3, 1e-7), (4, 1e-6)])
def test_fd_matches_analytic_mean_field(order, tol):
    # the mean-field action has branch points at z + m = +- i pi/2, which
    # limit the usable radius of the derivative circle
    intg = registry_get("mean-field-toy", {"m": 0.1})
    fd = _fd_clone(intg)
    for z in (0.6 + 0.0j, -0.4 + 0.0j):
        ref = derive(intg, z, 1.3, order)[-1]
        val = derive(fd, z, 1.3, order)[-1]
        scale = max(1.0, abs(ref))
        assert abs(val - ref) <= tol * scale


def test_fd_step_underflow_nonanalytic():
    # a kink: the Taylor coefficients do not decay on any circle, and the
    # engine must refuse rather than return garbage
    c = ContourPath((0j,), tail_angle=math.pi - 1e-9, head_angle=0.0)
    intg = Integrand1D(f=lambda z, a: abs(z.real - 0.3), g=lambda z: 1.0, contour=c)
    with pytest.raises(StepUnderflow):
        derive(intg, 0.3 + 0.0j, 0.0, 2)


def test_fd_real_on_real_is_exactly_real():
    # real f sampled around a real point gives exact conjugate pairs, so the
    # derivative is real; a rounding-level imaginary part would let the
    # saddle solvers leave the real axis
    fd = _fd_clone(registry_get("bessel-sinh"))
    for z in (0.7 + 0.0j, -1.1 + 0.0j, 0.0j):
        assert all(v.imag == 0.0 for v in derive(fd, z, 1.02, 4))


# ---------------------------------------------------------------------------
# n-D derivative engine


def test_derive_nd_matches_analytic():
    intg = registry_get("nd-perturbed-cubic", {"dim": "2", "eps": "0.05", "c": "0.1"})
    x = np.array([0.4, 0.2])
    for order in (1, 2, 3):
        for u in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            if order == 1:
                ref = float(np.dot(intg.grad(x, 0.2), u))
            elif order == 2:
                ref = float(u @ intg.hessian(x, 0.2) @ u)
            else:
                ref = intg.third_directional(x, 0.2, u)
            # force the FD path by stripping the analytic providers
            from caustica import IntegrandND

            fd = IntegrandND(F=intg.F, dim=2, soft_contour=intg.soft_contour)
            val = derive_nd(fd, x, 0.2, u, order)
            assert abs(val - ref) <= 1e-6 * max(1.0, abs(ref))


def test_derive_nd_requires_unit_direction():
    intg = registry_get("nd-separable", {"dim": "2"})
    with pytest.raises(BadParameter):
        derive_nd(intg, np.zeros(2), 0.2, np.array([1.0, 1.0]), 1)


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_derive_nd_refuses_real_cast_F():
    # float() drops the imaginary part of the complex sample points, so F is
    # not analytic along the complex line and the engine must refuse
    from caustica import IntegrandND

    intg = IntegrandND(F=lambda x, a: -0.5 * float(np.dot(x, x)), dim=2)
    with pytest.raises(StepUnderflow):
        derive_nd(intg, np.array([0.3, 0.2]), 0.0, np.array([1.0, 0.0]), 2)


def test_derive_nd_refuses_complex_F():
    # F must be real at real points; a complex derivative is not dropped
    from caustica import IntegrandND

    intg = IntegrandND(F=lambda x, a: 1j * np.dot(x, x), dim=2)
    with pytest.raises(BadParameter):
        derive_nd(intg, np.array([0.3, 0.2]), 0.0, np.array([1.0, 0.0]), 2)


def test_hessian_at_fd_mixed_entries():
    from caustica import IntegrandND

    intg = registry_get("nd-perturbed-cubic", {"dim": "2", "c": "0.1"})
    fd = IntegrandND(F=intg.F, dim=2, soft_contour=intg.soft_contour)
    x = np.array([0.3, 0.4])
    h_ref = intg.hessian(x, 0.2)
    h_fd = fd.hessian_at(x, 0.2)
    assert np.allclose(h_fd, h_ref, atol=1e-6)


def test_nd_dim_guard():
    from caustica import IntegrandND

    with pytest.raises(BadParameter):
        IntegrandND(F=lambda x, a: 0.0, dim=1)


# ---------------------------------------------------------------------------
# ray convergence


def test_ray_convergence_accepts_airy_contour():
    registry_get("cubic").check_ray_convergence([0.1, 0.5])
    registry_get("bessel-sinh").check_ray_convergence([0.8, 1.0])


def test_ray_convergence_rejects_growth():
    # exp(N f) grows along the positive real axis for f = +z^2
    c = ContourPath((0j,), tail_angle=math.pi, head_angle=0.0)
    bad = Integrand1D(f=lambda z, a: z * z, g=lambda z: 1.0, contour=c)
    with pytest.raises(RayDivergence):
        bad.check_ray_convergence([0.1])
