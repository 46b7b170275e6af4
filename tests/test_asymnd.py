import cmath
import math

import numpy as np
import pytest

from caustica import (
    CausticDivergence,
    DegenerateCubic,
    IntegrandND,
    NoConvergence,
    WrongRegime,
    approx_corrected_nd,
    approx_saddle_form,
    approx_wkb_nd,
    find_caustic,
    find_saddle,
    find_saddle_nd,
    mean_field_compare,
    registry_get,
)
from caustica import asymnd
from caustica.airy import airy_ai
from caustica.saddle import CausticInfo


def _nd(dim=2, eps=0.05, c=0.0, **extra):
    name = "nd-separable" if c == 0.0 else "nd-perturbed-cubic"
    params = {"dim": str(dim), "eps": str(eps)}
    if c != 0.0:
        params["c"] = str(c)
    params.update({k: str(v) for k, v in extra.items()})
    return registry_get(name, params)


# ---------------------------------------------------------------------------
# exact limits


def test_wkb_nd_pure_gaussian_limit():
    # the Gaussian term of the reduced integrand times the transverse
    # Gaussians is the n-D Gaussian term: compare against the explicit
    # product of the soft curvature and the transverse eigenvalues
    intg = _nd(dim=3, eps=0.01, lambda2=-1.0, lambda3=-2.0)
    alpha = 0.25
    s = find_saddle_nd(intg, alpha, intg.saddle_guess(alpha))
    N = 40.0
    v = approx_wkb_nd(intg, alpha, N, s)
    z0 = s.x0[0].real
    curvature = 2.0 * z0 + 12.0 * 0.01 * z0 ** 2
    assert s.saddle.f2 == pytest.approx(curvature, rel=1e-10)
    assert np.allclose(np.linalg.eigvalsh(s.hessian.real), [-2.0, -1.0], atol=1e-12)
    expected = (
        1.0j
        * cmath.exp(N * intg.F(s.x0, alpha))
        * (2.0 * math.pi / N) ** 1.5
        / math.sqrt(curvature * 1.0 * 2.0)
    )
    assert abs(v.value - expected) <= 1e-12 * abs(expected)


def test_separable_factorization_at_caustic():
    # at alpha_hat the leading-order n-D corrected value must factor into the
    # leading 1-D tilde value, 2 pi i (2/f''')^{1/3} N^{-1/3} Ai(0) e^{N f},
    # times the exact transverse Gaussians.  approx_tilde carries a quartic
    # correction, and the 1-D saddle form cannot be built at the double
    # root, so the 1-D side is this closed form.
    intg1 = registry_get("perturbed-cubic", {"eps": "0.05"})
    intg = _nd(dim=2, eps=0.05, lambda2=-1.0)
    c1 = find_caustic(intg1)
    a = c1.alpha_hat
    s = find_saddle_nd(intg, a, intg.saddle_guess(a))
    N = 50.0
    nd = approx_corrected_nd(intg, a, N, s)
    t1 = (
        2.0j
        * math.pi
        * (2.0 / c1.f3_tilde) ** (1.0 / 3.0)
        * N ** (-1.0 / 3.0)
        * airy_ai(0.0)
        * cmath.exp(N * intg1.f(c1.z_tilde, a))
    )
    gauss = math.sqrt(2.0 * math.pi / N)  # lambda2 = -1
    # the n-D saddle at the caustic is a double root resolved only to
    # ~sqrt(residual), which feeds a ~1e-6 relative offset into F_tilde
    assert abs(nd.value - t1 * gauss) <= 2e-6 * abs(nd.value)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_separable_factorization_off_caustic(alpha):
    # away from alpha_hat the matching 1-D anchor is the saddle form,
    # with both sides anchored at the recessive saddle of the pair
    intg1 = registry_get("perturbed-cubic", {"eps": "0.05"})
    intg = _nd(dim=2, eps=0.05, lambda2=-1.0)
    c1 = find_caustic(intg1)
    guess = np.array([math.sqrt(alpha) + 1e-3, 0.0])
    s_nd = find_saddle_nd(intg, alpha, guess)
    s1 = find_saddle(intg1, alpha, complex(s_nd.x0[0]))
    N = 50.0
    nd = approx_corrected_nd(intg, alpha, N, s_nd)
    sf = approx_saddle_form(intg1, alpha, N, s1, c1)
    gauss = math.sqrt(2.0 * math.pi / N)
    assert abs(nd.value - sf.value * gauss) <= 1e-8 * abs(nd.value)


def test_wkb_nd_limit_of_corrected():
    # deep in the WKB-safe regime the corrected value approaches WKB; the
    # comparison is meaningful at the recessive anchor, where the Gaussian
    # term itself approximates the contour integral
    intg = _nd(dim=2, eps=0.05, lambda2=-1.0)
    alpha = 0.09
    s = find_saddle_nd(intg, alpha, np.array([math.sqrt(alpha) + 1e-3, 0.0]))
    for N, bound in ((2000.0, 3e-3), (8000.0, 8e-4)):
        w = approx_wkb_nd(intg, alpha, N, s)
        c = approx_corrected_nd(intg, alpha, N, s)
        assert c.zeta_prime >= 10.0
        assert abs(c.value / w.value - 1.0) <= bound


# ---------------------------------------------------------------------------
# invariances


def test_rotation_invariance():
    # a rotation of the transverse coordinates (x2, x3) leaves both n-D
    # values unchanged; with the x1*x2^2 coupling the rotated transverse
    # Hessian has off-diagonal entries
    intg = _nd(dim=3, eps=0.05, c=0.1, lambda3=-2.0)
    cs, sn = math.cos(0.7), math.sin(0.7)
    R = np.array([[1.0, 0.0, 0.0], [0.0, cs, -sn], [0.0, sn, cs]])
    rot = IntegrandND(
        F=lambda x, a: intg.F(np.tensordot(R, x, axes=1), a),
        dim=3,
        soft_contour=intg.soft_contour,
    )
    alpha, N = 0.2, 50.0
    s0 = find_saddle_nd(intg, alpha, intg.saddle_guess(alpha))
    s1 = find_saddle_nd(rot, alpha, intg.saddle_guess(alpha))
    assert abs(s1.hessian[0, 1]) > 0.1
    for formula in (approx_wkb_nd, approx_corrected_nd):
        v0 = formula(intg, alpha, N, s0).value
        v1 = formula(rot, alpha, N, s1).value
        assert abs(v1 - v0) <= 1e-10 * abs(v0)


def test_determinant_invariant():
    # the reduced prefactor at the saddle is det(-H_perp)^(-1/2), with H_perp
    # the transverse block of the full Hessian
    intg = _nd(dim=3, eps=0.05, c=0.1, lambda3=-2.0)
    alpha = 0.2
    s = find_saddle_nd(intg, alpha, intg.saddle_guess(alpha))
    h = intg.hessian_at(s.x0.real, alpha)[1:, 1:]
    assert np.allclose(s.hessian, h, atol=1e-10)
    g = s.reduced.g(s.saddle.z0)
    assert g == pytest.approx(np.linalg.det(-h) ** -0.5, rel=1e-10)


# ---------------------------------------------------------------------------
# caustic behavior


def test_wkb_nd_divergent_at_caustic():
    intg = _nd(dim=2, eps=0.05)
    # alpha_hat for eps*x^4 perturbation sits slightly below 0 on the
    # dominant branch; locate it from the 1-D reduction
    c1 = find_caustic(registry_get("perturbed-cubic", {"eps": "0.05"}))
    a = c1.alpha_hat
    s = find_saddle_nd(intg, a, intg.saddle_guess(a))
    with pytest.raises(CausticDivergence):
        approx_wkb_nd(intg, a, 50.0, s)
    # the corrected value stays finite at the very same point
    v = approx_corrected_nd(intg, a, 50.0, s)
    assert np.isfinite(abs(v.value)) and abs(v.value) > 0.0


def test_positive_soft_without_contour_rejected():
    intg = IntegrandND(
        F=lambda x, a: 0.5 * 0.3 * x[0] ** 2 - 0.5 * x[1] ** 2 + 0.05 * x[0] ** 3,
        dim=2,
    )
    s = find_saddle_nd(intg, 0.0, np.array([0.01, 0.0]))
    with pytest.raises(WrongRegime):
        approx_wkb_nd(intg, 0.0, 30.0, s)


# ---------------------------------------------------------------------------
# mean-field comparison


def test_mean_field_compare_1d():
    intg = registry_get("mean-field-toy", {"m": 0.1})
    gamma_hat = 1.2978824755046015  # critical coupling for m = 0.1
    rows = mean_field_compare(intg, [1.1, gamma_hat, 1.6], [50, 100])
    assert len(rows) == 6
    for r in rows:
        assert r["exponent_gap"] <= 10.0 / r["N"]
        assert 0.0 < r["prefactor_ratio"] <= 1.0
    # at the critical coupling the fold-saddle Gaussian must diverge
    crit = [r for r in rows if abs(r["alpha"] - gamma_hat) < 1e-9]
    assert all(r["fold_wkb"] == "divergent" for r in crit)


def test_mean_field_m0_degenerate():
    intg = registry_get("mean-field-toy", {"m": 0.0})
    with pytest.raises(DegenerateCubic):
        mean_field_compare(intg, [1.3], [50])


def test_mean_field_compare_type_guard():
    with pytest.raises(WrongRegime):
        mean_field_compare("not an integrand", [1.0], [10])


def test_mean_field_fold_check_typed_error_is_unavailable(monkeypatch):
    def no_convergence(self, alpha, tol=1e-12):
        raise NoConvergence("z_tilde continuation stalled")

    monkeypatch.setattr(CausticInfo, "z_tilde_at", no_convergence)
    rows = mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), [1.4], [50])
    assert [r["fold_wkb"] for r in rows] == ["unavailable"]


def test_mean_field_fold_check_untyped_error_propagates(monkeypatch):
    # only a typed CausticaError means "unavailable"; a bug must surface
    def broken(self, alpha, tol=1e-12):
        raise ZeroDivisionError("not a solver failure")

    monkeypatch.setattr(CausticInfo, "z_tilde_at", broken)
    with pytest.raises(ZeroDivisionError):
        mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), [1.4], [50])


def test_mean_field_fold_saddle_solved_once_per_gamma(monkeypatch):
    # the fold-saddle check depends on gamma only: one z_tilde solve and two
    # saddle solves (the anchor and the fold saddle) per gamma, whatever N
    calls = {"find_saddle": 0, "z_tilde_at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(asymnd, "find_saddle", counted("find_saddle", asymnd.find_saddle))
    monkeypatch.setattr(
        CausticInfo, "z_tilde_at", counted("z_tilde_at", CausticInfo.z_tilde_at)
    )
    gammas = np.linspace(1.1, 1.6, 11).tolist()
    rows = mean_field_compare(
        registry_get("mean-field-toy", {"m": 0.1}), gammas, [25, 50, 100, 200]
    )
    assert len(rows) == 44
    assert calls == {"find_saddle": 22, "z_tilde_at": 11}
