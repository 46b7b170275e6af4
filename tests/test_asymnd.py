import cmath
import dataclasses
import math

import numpy as np
import pytest

from caustica import (
    BadParameter,
    CausticDivergence,
    DegenerateCubic,
    IntegrandND,
    NoConvergence,
    WrongRegime,
    approx_corrected_nd,
    approx_saddle_form,
    approx_wkb_nd,
    cubature_nd,
    find_caustic,
    find_saddle,
    find_saddle_nd,
    mean_field_compare,
    registry_get,
)
from caustica import asymnd, integrand, saddle
from caustica.airy import airy_ai


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


def _nd_transverse_hessian(x, c, lams):
    """Transverse Hessian of nd-perturbed-cubic in closed form: the
    coupling c x1 x2^2 adds 2 c x1 to the (x2, x2) entry of diag(lams)."""
    h = np.diag(lams)
    h[0, 0] += 2.0 * c * x[0]
    return h


def test_determinant_invariant():
    # the reduced prefactor at the saddle is det(-H_perp)^(-1/2), with H_perp
    # the transverse block of the full Hessian
    intg = _nd(dim=3, eps=0.05, c=0.1, lambda3=-2.0)
    alpha = 0.2
    s = find_saddle_nd(intg, alpha, intg.saddle_guess(alpha))
    h = _nd_transverse_hessian(s.x0.real, c=0.1, lams=(-1.0, -2.0))
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


@pytest.mark.parametrize("alpha", [1.0, 0.1, 0.01])
def test_corrected_nd_cusp_is_degenerate(alpha):
    # F = x1^4 - alpha x1 - x2^2/2 reduces to f = z^4 - alpha z, whose f''
    # vanishes only at z = 0, where f''' vanishes too: a cusp, not a fold.
    # Newton on f'' = 0 converges there linearly, so f''' at its last step
    # is small but not tiny; the floor against f'''' and the residual must
    # still call it zero
    intg = IntegrandND(
        F=lambda x, a: x[0] ** 4 - a * x[0] - 0.5 * x[1] ** 2,
        dim=2,
        soft_contour=_nd().soft_contour,
    )
    s = find_saddle_nd(intg, alpha, np.array([(alpha / 4.0) ** (1.0 / 3.0), 0.0]))
    with pytest.raises(DegenerateCubic):
        approx_corrected_nd(intg, alpha, 50.0, s)


def test_positive_soft_without_contour_rejected():
    intg = IntegrandND(
        F=lambda x, a: 0.5 * 0.3 * x[0] ** 2 - 0.5 * x[1] ** 2 + 0.05 * x[0] ** 3,
        dim=2,
    )
    # find_saddle_nd is the one place that refuses the soft minimum
    with pytest.raises(WrongRegime, match="soft minimum"):
        find_saddle_nd(intg, 0.0, np.array([0.01, 0.0]))


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
    # one N is a one-element grid, as for the formulas
    assert mean_field_compare(intg, [1.6], 100) == rows[-1:]


def test_mean_field_compare_nd():
    # mean_field_compare takes the 1-D toy only; the n-D comparison is made
    # from wkb-nd and corrected-nd directly: corrected-nd against the panel
    # oracle at the fold and off it, and wkb-nd divergent at the fold only
    nd = registry_get("nd-perturbed-cubic", {"dim": "2"})
    with pytest.raises(WrongRegime):
        mean_field_compare(nd, [0.2], [50])
    a = find_caustic(registry_get("perturbed-cubic", {"eps": "0.05"})).alpha_hat
    grid = [50, 100]
    for alpha, bound in [(a, 1e-4), (0.2, 1e-2), (0.4, 1e-2)]:
        s = find_saddle_nd(nd, alpha, nd.saddle_guess(alpha))
        refs = cubature_nd(nd, alpha, grid).value
        corrs = approx_corrected_nd(nd, alpha, grid, s)
        for v, ref in zip(corrs, refs):
            assert abs(v.value - ref) <= bound * abs(ref)
        if alpha == a:
            with pytest.raises(CausticDivergence):
                approx_wkb_nd(nd, alpha, grid, s)
        else:  # finite, with the corrected value's leading exponent
            for w, v in zip(approx_wkb_nd(nd, alpha, grid, s), corrs):
                assert abs(math.log(abs(w.value / v.value))) <= 10.0


def test_corrected_nd_zero_cubic_at_saddle_is_degenerate():
    # a saddle whose f''' is exactly zero has no cubic model to solve
    # z_tilde from
    nd = _nd(dim=2, c=0.1)
    s = find_saddle_nd(nd, 0.2, nd.saddle_guess(0.2))
    flat = dataclasses.replace(s, saddle=dataclasses.replace(s.saddle, f3=0j))
    with pytest.raises(DegenerateCubic, match="f''' vanishes at the saddle"):
        approx_corrected_nd(nd, 0.2, 50.0, flat)


def test_mean_field_m0_degenerate():
    intg = registry_get("mean-field-toy", {"m": 0.0})
    with pytest.raises(DegenerateCubic):
        mean_field_compare(intg, [1.3], [50])


def test_mean_field_compare_type_guard():
    with pytest.raises(WrongRegime):
        mean_field_compare("not an integrand", [1.0], [10])


def test_mean_field_compare_needs_a_saddle_guess():
    # without the integrand's guess there is no saddle to start from; it
    # used to solve from the placeholder 1.0
    toy = dataclasses.replace(registry_get("mean-field-toy", {"m": 0.1}), saddle_guess=None)
    with pytest.raises(BadParameter, match="saddle_guess"):
        mean_field_compare(toy, [1.6], [50])


def test_mean_field_compare_wkb_underflow_is_wrong_regime():
    # cubic at alpha = 1: e^{N f0} = e^{-2000} at N = 3000 is 0.0 in a double
    # and has no logarithm
    with pytest.raises(WrongRegime, match=r"alpha=1\.0, N=3000"):
        mean_field_compare(registry_get("cubic"), [1.0], [3000])


def test_mean_field_fold_check_typed_error_is_unavailable(monkeypatch):
    def no_convergence(intg, alpha, z, f3_scale):
        raise NoConvergence("z_tilde continuation stalled")

    monkeypatch.setattr(asymnd, "_fold_point", no_convergence)
    rows = mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), [1.4], [50])
    assert [r["fold_wkb"] for r in rows] == ["unavailable"]


def test_mean_field_fold_check_untyped_error_propagates(monkeypatch):
    # only a typed CausticaError means "unavailable"; a bug must surface
    def broken(intg, alpha, z, f3_scale):
        raise ZeroDivisionError("not a solver failure")

    monkeypatch.setattr(asymnd, "_fold_point", broken)
    with pytest.raises(ZeroDivisionError):
        mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), [1.4], [50])


def test_mean_field_fold_saddle_solved_once_per_gamma(monkeypatch):
    # the fold-saddle check depends on gamma only: one fold-point solve and
    # two saddle solves (the anchor and the fold saddle) per gamma, whatever N
    calls = {"find_saddle": 0, "_fold_point": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(asymnd, name, counted(name, getattr(asymnd, name)))
    gammas = np.linspace(1.1, 1.6, 11).tolist()
    rows = mean_field_compare(
        registry_get("mean-field-toy", {"m": 0.1}), gammas, [25, 50, 100, 200]
    )
    assert len(rows) == 44
    assert calls == {"find_saddle": 22, "_fold_point": 11}


@pytest.mark.parametrize("dust", [0.0, 1e-30j, -1e-30j], ids=["exact", "plus", "minus"])
def test_mean_field_fold_probe_ignores_rounding_dust(monkeypatch, dust):
    # the fold-saddle probe starts at the cubic model's fold saddle, so an
    # imaginary part of rounding size in z_tilde does not decide the status
    fold_point = asymnd._fold_point

    def dusty(*args):
        zt, ft, jet = fold_point(*args)
        return zt + dust, ft, jet

    monkeypatch.setattr(asymnd, "_fold_point", dusty)
    gammas = [1.15, 1.4, 1.45, 1.2978824755046015]  # the last is gamma_hat for m = 0.1
    rows = mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), gammas, [50])
    assert [r["fold_wkb"] for r in rows] == ["finite", "finite", "finite", "divergent"]


def test_mean_field_probe_reads_the_fold_point_record(monkeypatch):
    # the probe takes z_tilde, f' and f''' from the fold-point record: no
    # derive call outside a fold-point solve asks at a z_tilde it returned
    folds, outside, solving = set(), [], []

    def fold_point(fn):
        def wrapper(intg, alpha, *args):
            solving.append(True)
            try:
                record = fn(intg, alpha, *args)
            finally:
                solving.pop()
            folds.add((record[0], alpha))
            return record

        return wrapper

    def derive(intg, z, alpha, order, fn=integrand.derive):
        if not solving:
            outside.append((z, alpha))
        return fn(intg, z, alpha, order)

    # asymnd imports no derive; one set there catches any call made through it
    for module in (saddle, asymnd):
        monkeypatch.setattr(module, "_fold_point", fold_point(module._fold_point))
        monkeypatch.setattr(module, "derive", derive, raising=False)
    gammas = [1.15, 1.4, 1.45]
    mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), gammas, [25, 50])
    assert {a for _, a in folds} >= set(gammas)
    assert not folds & set(outside)


def test_one_transverse_solve_per_point_and_alpha(monkeypatch):
    # find_saddle, find_saddle_nd and both formulas ask the reduced f and g
    # at z0, and corrected-nd asks f at z_tilde: the reduction keeps each
    # single point's transverse solve, so each point is solved once per
    # alpha, and the saddle's x0 and Hessian are the bits of a fresh solve
    fresh, solves = saddle._transverse_solve, []

    def counted(intg, alpha, z, seed):
        if z.size == 1:
            solves.append((complex(z[0]), alpha))
        return fresh(intg, alpha, z, seed)

    monkeypatch.setattr(saddle, "_transverse_solve", counted)
    intg = _nd(c=0.1)
    alphas = (0.0, 0.1, 0.25, 0.5)
    for a in alphas:
        s = find_saddle_nd(intg, a, intg.saddle_guess(a))
        if a > 0.0:  # at alpha = 0 the saddle sits on the fold
            approx_wkb_nd(intg, a, [30, 100], s)
        approx_corrected_nd(intg, a, [30, 100], s)
        x, h = fresh(intg, a, np.array([s.saddle.z0]), intg.saddle_guess(a)[1:])
        assert np.array_equal(s.x0, x[:, 0]) and np.array_equal(s.hessian, h[:, :, 0])
    assert len(solves) == len(set(solves)) == 2 * len(alphas)


def test_mean_field_compare_zero_cubic_is_degenerate(monkeypatch):
    # a user integrand whose saddle has f''' = 0 has no fold to compare
    solve = asymnd.find_saddle
    monkeypatch.setattr(
        asymnd, "find_saddle", lambda *args: dataclasses.replace(solve(*args), f3=0j)
    )
    with pytest.raises(DegenerateCubic, match="f''' vanishes at the saddle"):
        mean_field_compare(registry_get("mean-field-toy", {"m": 0.1}), [1.1], [50])


def test_nd_path_calls_F_on_columns_only():
    # an F that refuses anything but an (n, M) array of columns serves the
    # whole n-D path, with the registry F's values
    nd = _nd(dim=2, c=0.1)

    def F(x, a):
        if np.ndim(x) != 2 or len(x) != 2:
            raise AssertionError(f"F called on shape {np.shape(x)}")
        return nd.F(x, a)

    x, u = np.array([0.3, 0.2]), np.array([0.6, 0.8])
    # the registry family, and its clone whose transverse solve runs on jets
    for base in (nd, dataclasses.replace(nd, transverse_derivs=None)):
        cols = dataclasses.replace(base, F=F)
        assert integrand.derive_nd(cols, x, 0.2, u, 2) == integrand.derive_nd(nd, x, 0.2, u, 2)
        s = find_saddle_nd(cols, 0.2, cols.saddle_guess(0.2))
        ref = find_saddle_nd(base, 0.2, base.saddle_guess(0.2))
        assert s.saddle == ref.saddle
        for formula in (approx_wkb_nd, approx_corrected_nd):
            assert formula(cols, 0.2, [30, 100], s) == formula(base, 0.2, [30, 100], ref)
        cub = cubature_nd(cols, 0.2, [30, 100]).value
        assert np.all(cub == cubature_nd(base, 0.2, [30, 100]).value)


def test_registry_nd_path_takes_no_transverse_jet(monkeypatch):
    # the registry families' closed-form transverse derivatives replace the
    # jets of F along x_perp: one alpha through the whole n-D path samples
    # no jet on a 2-D array (K points at once), only the reduced f's and
    # derive_nd's 1-D ones
    shapes = []

    def recorded(func, scale, jet=integrand._jet):
        def sampled(s):
            v = np.asarray(func(s))
            shapes.append(v.ndim)
            return v

        return jet(sampled, scale)

    monkeypatch.setattr(saddle, "_jet", recorded)
    monkeypatch.setattr(integrand, "_jet", recorded)
    for dim, c in ((2, 0.0), (2, 0.1), (3, 0.0), (3, 0.1)):
        intg = _nd(dim=dim, c=c)
        s = find_saddle_nd(intg, 0.2, intg.saddle_guess(0.2))
        approx_wkb_nd(intg, 0.2, [30, 100], s)
        approx_corrected_nd(intg, 0.2, [30, 100], s)
        cubature_nd(intg, 0.2, [30, 100])
    assert shapes and set(shapes) == {1}


def test_registry_nd_path_solves_no_linear_system(monkeypatch):
    # the registry families are even in x_perp, so the transverse gradient
    # is exactly 0 at the seed x_perp = 0 and the transverse Newton stops
    # there: one alpha through the whole n-D path solves no linear system,
    # while the jet clone, whose gradient is rounding noise, does
    calls = []

    def counted(a, b, solve=np.linalg.solve):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)

    def run(intg):
        calls.clear()
        s = find_saddle_nd(intg, 0.2, intg.saddle_guess(0.2))
        approx_wkb_nd(intg, 0.2, [30, 100], s)
        approx_corrected_nd(intg, 0.2, [30, 100], s)
        cubature_nd(intg, 0.2, [30, 100])
        return len(calls)

    for intg in (_nd(dim=2, c=0.1), _nd(dim=3, c=0.1), _nd(dim=2)):
        assert run(intg) == 0, intg.name
    assert run(dataclasses.replace(_nd(dim=2, c=0.1), transverse_derivs=None)) > 0
