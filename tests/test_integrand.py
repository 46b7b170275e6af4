import cmath
import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from caustica import (
    BadParameter,
    CausticaError,
    CausticDivergence,
    ContourPath,
    Integrand1D,
    PartnerNotFound,
    StepUnderflow,
    UnknownIntegrand,
    approx_cfu,
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    derive,
    derive_nd,
    find_caustic,
    find_partner,
    find_saddle,
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
    # quad_contour and the derivative jet call f and g on numpy arrays, and
    # get the bits the formulas get from scalar calls
    intg = registry_get(name)
    for alpha in intg.alpha_range:
        for fn, args in ((intg.f, (alpha,)), (intg.g, ())):
            arr = fn(_ARRAY_POINTS, *args)
            ref = np.array([complex(fn(z, *args)) for z in _ARRAY_POINTS.tolist()])
            assert np.array_equal(arr.view(np.uint64), ref.view(np.uint64))


def test_registry_unknown():
    with pytest.raises(UnknownIntegrand):
        registry_get("no-such-family")


def test_registry_bad_eps():
    with pytest.raises(BadParameter):
        registry_get("perturbed-cubic", {"eps": "0"})
    with pytest.raises(BadParameter):
        registry_get("nd-perturbed-cubic", {"eps": "-0.1"})


@pytest.mark.parametrize(
    "name, params",
    [
        ("perturbed-cubic", {"epsilon": "0.3"}),
        ("cubic", {"eps": "0.3"}),
        ("nd-separable", {"c": "0.2"}),
        ("nd-perturbed-cubic", {"dim": "2", "lambda3": "-1"}),
    ],
)
def test_registry_refuses_unread_params(name, params):
    given = dict(params)
    with pytest.raises(BadParameter, match=f"{name} does not read parameter"):
        registry_get(name, params)
    assert params == given


def test_registry_leaves_params_unchanged():
    # a caller may build from one dict again and again
    params = {"dim": "3", "eps": "0.1", "lambda3": "-2"}
    for _ in range(2):
        assert registry_get("nd-perturbed-cubic", params).dim == 3
    assert params == {"dim": "3", "eps": "0.1", "lambda3": "-2"}


def test_registry_nd_bad_lambda():
    with pytest.raises(BadParameter):
        registry_get("nd-perturbed-cubic", {"lambda2": "0.5"})


@pytest.mark.parametrize(
    "name, key",
    [
        ("perturbed-cubic", "eps"),
        ("bessel-sinh", "x0"),
        ("mean-field-toy", "m"),
        ("nd-perturbed-cubic", "eps"),
        ("nd-perturbed-cubic", "c"),
        ("nd-perturbed-cubic", "lambda2"),
        ("nd-separable", "lambda3"),
    ],
)
@pytest.mark.parametrize("value", ["inf", "nan", -math.inf])
def test_registry_params_must_be_finite(name, key, value):
    params = {key: value, "dim": "3"} if key == "lambda3" else {key: value}
    with pytest.raises(BadParameter, match=f"{key} must be finite"):
        registry_get(name, params)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("perturbed-cubic", {"eps": "x"}, "eps: could not convert"),
        ("perturbed-cubic", {"eps": None}, "eps: float() argument"),
        ("bessel-sinh", {"x0": "abc"}, "x0: could not convert"),
        ("nd-perturbed-cubic", {"dim": "1.5"}, "dim: invalid literal"),
        ("nd-separable", {"dim": None}, "dim: int() argument"),
    ],
)
def test_registry_params_must_be_numbers(name, params, message):
    # the conversion's own ValueError or TypeError used to escape
    with pytest.raises(BadParameter, match=re.escape(message)):
        registry_get(name, params)


@pytest.mark.parametrize("name", registry_names())
def test_registry_families_define_guesses(name):
    # the CLI starts every saddle solve from saddle_guess and every caustic
    # solve from caustic_guess, with no fallback of its own
    intg = registry_get(name)
    assert intg.saddle_guess is not None
    if isinstance(intg, Integrand1D):
        assert intg.caustic_guess is not None


# ---------------------------------------------------------------------------
# contour geometry


def test_contour_validation():
    with pytest.raises(BadParameter):
        ContourPath((), tail_angle=0.0, head_angle=0.0)
    with pytest.raises(BadParameter):
        ContourPath((0j, 0j), tail_angle=0.0, head_angle=0.0)
    with pytest.raises(BadParameter):
        ContourPath((0j,), tail_angle=4.0, head_angle=0.0)


def test_contour_project_on_segment():
    c = ContourPath((0j, 1j), tail_angle=0.0, head_angle=0.0)
    p, s, u = c.project(0.3 + 0.5j)
    assert abs(p - 0.5j) < 1e-15
    assert s == pytest.approx(0.5, abs=1e-15)
    assert abs(u - 1j) < 1e-15


def test_contour_project_on_ray():
    # Airy-type rays +-pi/3 from one node: travel comes in along the tail ray
    # and leaves along the head ray, and arc positions are negative before
    # the node
    c = ContourPath((0j,), tail_angle=-math.pi / 3, head_angle=math.pi / 3)
    head, tail = cmath.exp(1j * math.pi / 3), cmath.exp(-1j * math.pi / 3)
    for z, p_ref, s_ref, u_ref in (
        (2.0 * head + 0.1j * head, 2.0 * head, 2.0, head),
        (1.5 * tail - 0.2j * tail, 1.5 * tail, -1.5, -tail),
    ):
        p, s, u = c.project(z)
        assert abs(p - p_ref) < 1e-13
        assert s == pytest.approx(s_ref, abs=1e-13)
        assert abs(u - u_ref) < 1e-15


@pytest.mark.parametrize("name", ["cubic", "perturbed-cubic", "bessel-sinh", "mean-field-toy"])
def test_descent_direction_follows_moved_contour(name):
    # quad_contour moves the contour through the saddle; approx_wkb's
    # steepest-descent direction must point along the way the moved contour
    # is travelled there, or the Gaussian term takes the wrong sign
    intg = registry_get(name)
    checked = 0
    for alpha in np.linspace(*intg.alpha_range, 41):
        try:
            s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
            value = approx_wkb(intg, alpha, 1.0, s).value
        except CausticaError:
            continue
        rotation = value / (
            intg.prefactor * intg.g(s.z0) * cmath.exp(s.f0) * math.sqrt(2.0 * math.pi / abs(s.f2))
        )
        p = intg.contour.project(s.z0)[0]
        moved = dataclasses.replace(
            intg.contour, nodes=tuple(z + (s.z0 - p) for z in intg.contour.nodes)
        )
        u = moved.project(s.z0)[2]
        assert (rotation * u.conjugate()).real > 0.0, alpha
        checked += 1
    assert checked >= 40


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


def test_analytic_derivs_need_four_orders():
    intg = registry_get("cubic")
    with pytest.raises(BadParameter, match="orders 1..4"):
        dataclasses.replace(intg, analytic_derivs=intg.analytic_derivs[:3])


def test_derive_error_bound_above_tol_raises():
    # the rounding of samples near 1e12 bounds f' only to about 7e-3 > _JET_TOL
    c = ContourPath((0j,), tail_angle=math.pi - 1e-9, head_angle=0.0)
    intg = Integrand1D(f=lambda z, a: 1e12 + z, g=lambda z: 1.0, contour=c)
    with pytest.raises(StepUnderflow, match="order-1 derivative error bound"):
        derive(intg, 0.5 + 0.0j, 0.0, 1)


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
# per-alpha memo


def test_memo_holds_only_the_last_alpha():
    # a library sweep, each formula called once per N: the memo empties
    # itself at each new alpha, so it ends with the last alpha's jets of f,
    # its descent-frame projection, its saddle, fold-point and partner
    # solves and the four formulas' set-ups, and nothing else
    intg = dataclasses.replace(registry_get("perturbed-cubic"), analytic_derivs=None)
    c = find_caustic(intg)
    alphas = (0.1, 0.25, 0.4)
    for a in alphas:
        s = find_saddle(intg, a, intg.saddle_guess(a))
        for n in (30, 100, 300):
            approx_wkb(intg, a, n, s)
            approx_tilde(intg, a, n, c)
            approx_saddle_form(intg, a, n, s, c)
            approx_cfu(intg, a, n, s, find_partner(intg, a, s))
    assert list(intg._memo) == [struct.pack("d", alphas[-1])]
    (entries,) = intg._memo.values()
    kinds = {kind if isinstance(kind, str) else kind[0] for kind, _ in entries}
    assert kinds == {
        "f", "project", "find_saddle", "fold", "find_partner", "wkb", "tilde", "saddle", "cfu"
    }


def _entries(intg, kind):
    """How many entries the memo holds for the step ``kind``."""
    return sum(
        isinstance(k, tuple) and k[0] == kind for entries in intg._memo.values() for k, _ in entries
    )


def test_memo_keeps_saddles_with_signed_zero_fields_apart():
    # two saddles that differ only in the sign of z0's zero imaginary part
    # are two keys for every step that reads them: the partner seeded from
    # 0.5 - 0j is -0.5 - 0j, where a shared entry would hand back -0.5 + 0j
    intg = registry_get("cubic")
    c = find_caustic(intg)
    s = find_saddle(intg, 0.25, 0.6)
    pos, neg = (dataclasses.replace(s, z0=complex(s.z0.real, im)) for im in (0.0, -0.0))
    for si in (pos, neg):
        def cells(i):
            p = find_partner(i, 0.25, si)
            return (
                p, approx_wkb(i, 0.25, 30, si), approx_saddle_form(i, 0.25, 30, si, c),
                approx_cfu(i, 0.25, 30, si, p),
            )

        assert repr(cells(intg)) == repr(cells(dataclasses.replace(intg)))
    assert math.copysign(1.0, find_partner(intg, 0.25, neg).z0.imag) == -1.0
    for kind in ("find_partner", "wkb", "saddle", "cfu"):
        assert _entries(intg, kind) == 2


def test_memo_keeps_cfu_saddle_order_apart():
    # approx_cfu given (s, p) and given (p, s) are two entries, each with
    # the bits of a call on a fresh instance
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.25, 0.6)
    p = find_partner(intg, 0.25, s)
    for pair in ((s, p), (p, s)):
        fresh = dataclasses.replace(intg)
        assert repr(approx_cfu(intg, 0.25, 30, *pair)) == repr(approx_cfu(fresh, 0.25, 30, *pair))
    assert _entries(intg, "cfu") == 2


def test_memo_stores_no_typed_error():
    # at the fold of perturbed-cubic the Gaussian prefactor diverges and the
    # pair has coalesced: each per-N call computes the step again and raises
    # the error a fresh instance raises, and the memo keeps no entry for it
    intg = registry_get("perturbed-cubic")
    s = find_saddle(intg, 0.0, intg.saddle_guess(0.0))
    for kind, error, call in (
        ("wkb", CausticDivergence, lambda i, n: approx_wkb(i, 0.0, n, s)),
        ("find_partner", PartnerNotFound, lambda i, n: find_partner(i, 0.0, s)),
    ):
        with pytest.raises(error) as first:
            call(dataclasses.replace(intg), 30)
        for n in (10, 30, 100, 1000):
            with pytest.raises(error) as again:
                call(intg, n)
            assert str(again.value) == str(first.value)
        assert _entries(intg, kind) == 0


def test_replace_gets_the_new_f():
    # dataclasses.replace builds a new instance with an empty memo, so the
    # jet of the old f at the same (z, alpha) is never served
    intg = _fd_clone(registry_get("cubic"))
    z, a = 0.7 + 0.2j, 0.4
    derive(intg, z, a, 4)
    quartic = dataclasses.replace(intg, f=lambda z, a: z ** 4)
    ref = (4.0 * z ** 3, 12.0 * z ** 2, 24.0 * z, 24.0)
    for v, r in zip(derive(quartic, z, a, 4), ref):
        assert abs(v - r) <= 1e-7 * max(1.0, abs(r))
    fresh = Integrand1D(f=quartic.f, g=intg.g, contour=intg.contour)
    assert derive(quartic, z, a, 4) == derive(fresh, z, a, 4)


def test_memo_keeps_signed_zero_alpha_apart():
    # 0.0 == -0.0, but the memo keys on bits: a family that reads the sign
    # of a zero alpha gets its -0.0 jet, not the cached 0.0 one
    c = ContourPath((0j,), tail_angle=math.pi, head_angle=0.0)
    f = lambda z, a: math.copysign(1.0, a) * z * z
    used = Integrand1D(f=f, g=lambda z: 1.0, contour=c)
    fresh = Integrand1D(f=f, g=lambda z: 1.0, contour=c)
    z = 0.5 + 0.0j
    at_zero = derive(used, z, 0.0, 4)
    at_minus_zero = derive(used, z, -0.0, 4)
    assert repr(at_minus_zero) == repr(derive(fresh, z, -0.0, 4))
    assert at_minus_zero[0] == -at_zero[0] == -1.0


# ---------------------------------------------------------------------------
# n-D derivative engine


def _nd_cubic_derivs(x, a, eps, c, lam2):
    """Gradient and Hessian of the dim-2 nd-perturbed-cubic action
    x1^3/3 - a x1 + eps x1^4 + lam2 x2^2 / 2 + c x1 x2^2, in closed form."""
    x1, x2 = x
    grad = np.array([x1 * x1 - a + 4.0 * eps * x1 ** 3 + c * x2 * x2,
                     lam2 * x2 + 2.0 * c * x1 * x2])
    hess = np.array([[2.0 * x1 + 12.0 * eps * x1 * x1, 2.0 * c * x2],
                     [2.0 * c * x2, lam2 + 2.0 * c * x1]])
    return grad, hess


def test_derive_nd_matches_analytic():
    intg = registry_get("nd-perturbed-cubic", {"dim": "2", "eps": "0.05", "c": "0.1"})
    x = np.array([0.4, 0.2])
    grad, hess = _nd_cubic_derivs(x, 0.2, eps=0.05, c=0.1, lam2=-1.0)
    for order in (1, 2):
        for u in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            ref = float(np.dot(grad, u)) if order == 1 else float(u @ hess @ u)
            val = derive_nd(intg, x, 0.2, u, order)
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


def test_nd_dim_guard():
    from caustica import IntegrandND

    with pytest.raises(BadParameter):
        IntegrandND(F=lambda x, a: 0.0, dim=1)
