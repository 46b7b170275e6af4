import cmath
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.special import airy, airye, jv

from caustica import (
    ApproxValue,
    BadParameter,
    BranchAmbiguous,
    CausticaError,
    CausticDivergence,
    CausticInfo,
    ContourPath,
    DegenerateCubic,
    Integrand1D,
    Regime,
    WrongRegime,
    approx_cfu,
    approx_corrected_nd,
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    approx_wkb_nd,
    classify_regime,
    cubature_nd,
    find_caustic,
    find_partner,
    find_saddle,
    find_saddle_nd,
    mean_field_compare,
    quad_contour,
    recovery_factor,
    registry_get,
)
import caustica.airy
from caustica import asym1d, asymnd, integrand, saddle
from caustica.airy import airy_ai

AI_1 = 0.13529241631288141  # Ai(1)
J1_1 = 0.4400505857449335  # J_1(1)


# ---------------------------------------------------------------------------
# regime classification


def test_classify_regime_thresholds():
    assert classify_regime(0.0) is Regime.CAUSTIC_WINDOW
    assert classify_regime(1.99) is Regime.CAUSTIC_WINDOW
    assert classify_regime(5.0) is Regime.TRANSITION
    assert classify_regime(10.01) is Regime.WKB_SAFE


def test_regime_examples():
    bessel = registry_get("bessel-sinh")
    c = find_caustic(bessel)
    assert approx_tilde(bessel, 1.0, 30.0, c).regime is Regime.CAUSTIC_WINDOW
    assert approx_tilde(bessel, 0.5, 100.0, c).regime is Regime.WKB_SAFE
    # cubic at alpha = N^{-2/3} has zeta' = 1 exactly
    cubic = registry_get("cubic")
    v = approx_tilde(cubic, 30.0 ** (-2.0 / 3.0), 30.0, find_caustic(cubic))
    assert v.zeta_prime == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("name, params, alpha", [
    ("bessel-sinh", {}, 1.05),
    ("mean-field-toy", {"m": 0.1}, 1.0),
])
def test_regime_report_names_wrong_regime(name, params, alpha):
    # on the complex-saddle side no cube-root branch gives a real zeta:
    # approx_tilde raises there, it does not read CausticWindow
    intg = registry_get(name, params)
    with pytest.raises(WrongRegime):
        approx_tilde(intg, alpha, 50.0, find_caustic(intg))


def test_uniform_forms_beyond_airye_range():
    # zeta' ~ 1.59e6 > 2^20, where scipy's airye returns NaN: the value has
    # underflowed to zero, and the record must say so, not NaN
    intg = registry_get("cubic")
    c = find_caustic(intg)
    s = find_saddle(intg, 1.0, intg.saddle_guess(1.0))
    for v in (approx_tilde(intg, 1.0, 2e9, c), approx_saddle_form(intg, 1.0, 2e9, s, c)):
        assert v.zeta_prime > 2.0 ** 20
        assert v.value == 0j and v.warnings == ()


# ---------------------------------------------------------------------------
# WKB: Debye and the Airy closed form


def test_wkb_reproduces_debye():
    # J_N(N/cosh a) ~ e^{N(tanh a - a)} / sqrt(2 pi N tanh a)
    intg = registry_get("bessel-sinh")
    alpha, N = 0.5, 100.0
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    v = approx_wkb(intg, alpha, N, s)
    a = math.acosh(1.0 / alpha)
    debye = math.exp(N * (math.tanh(a) - a)) / math.sqrt(
        2.0 * math.pi * N * math.tanh(a)
    )
    assert abs(v.value - debye) <= 1e-10 * debye
    assert v.regime is Regime.WKB_SAFE


def test_wkb_divergent_at_caustic():
    intg = registry_get("bessel-sinh")
    s = find_saddle(intg, 1.0, intg.saddle_guess(1.0))
    with pytest.raises(CausticDivergence):
        approx_wkb(intg, 1.0, 30.0, s)


def test_tilde_exact_on_cubic():
    # int exp(N(z^3/3 - a z)) dz over the Airy contour = 2 pi i N^{-1/3} Ai(a N^{2/3})
    intg = registry_get("cubic")
    c = find_caustic(intg)
    for alpha, N in [(0.0, 8.0), (0.04, 27.0), (0.25, 8.0)]:
        v = approx_tilde(intg, alpha, N, c)
        exact = 2.0j * math.pi * N ** (-1.0 / 3.0) * airy_ai(alpha * N ** (2.0 / 3.0))
        assert abs(v.value - exact) <= 1e-8 * abs(exact)


def test_tilde_golden_airy_one():
    intg = registry_get("cubic")
    c = find_caustic(intg)
    v = approx_tilde(intg, 1.0, 1.0, c)
    assert v.value == pytest.approx(2.0j * math.pi * AI_1, abs=1e-8)


# ---------------------------------------------------------------------------
# cross-form identities


@pytest.mark.parametrize("name, alpha", [
    *(pytest.param("bessel-sinh", a, id=str(a)) for a in (0.65, 0.8, 0.9, 0.95)),
    ("cubic", 0.5),
    ("perturbed-cubic", 0.3),
    ("nd-perturbed-cubic", 0.3),
])
def test_saddle_form_equals_wkb_times_recovery(name, alpha):
    # on the recessive side the cancelled saddle form equals WKB * R
    # exactly, and corrected-nd equals wkb-nd * R (dim 2)
    grid = (10.0, 30.0, 100.0, 300.0, 1000.0)
    if name.startswith("nd-"):
        intg = registry_get(name, {"dim": "2"})
        s = find_saddle_nd(intg, alpha, intg.saddle_guess(alpha))
        forms = approx_corrected_nd(intg, alpha, grid, s)
        wkbs = approx_wkb_nd(intg, alpha, grid, s)
    else:
        intg = registry_get(name)
        s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
        forms = approx_saddle_form(intg, alpha, grid, s, find_caustic(intg))
        wkbs = approx_wkb(intg, alpha, grid, s)
    for sf, wkb in zip(forms, wkbs):
        assert sf.value != 0
        assert abs(sf.value - wkb.value * recovery_factor(sf.zeta_prime)) <= 1e-9 * abs(sf.value)


def test_saddle_form_matches_tilde_near_caustic():
    # inside |alpha - alpha_hat| <= 0.2 N^{-1/3} the two anchors agree
    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    for N in (30.0, 100.0):
        alpha = 1.0 - 0.15 * N ** (-1.0 / 3.0)
        s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
        sf = approx_saddle_form(intg, alpha, N, s, c)
        tl = approx_tilde(intg, alpha, N, c)
        rel = abs(sf.value - tl.value) / abs(tl.value)
        assert rel <= 5.0 * N ** (-2.0 / 3.0)


def test_cfu_symmetric_exponent():
    # cubic at real alpha: A = (f(z+) + f(z-))/2 = 0 by symmetry
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.25, 0.6 + 0j)
    p = find_partner(intg, 0.25, s)
    big_a = 0.5 * (s.f0 + p.f0)
    assert abs(big_a) < 1e-12
    v = approx_cfu(intg, 0.25, 10.0, s, p)
    exact = 2.0j * math.pi * 10.0 ** (-1.0 / 3.0) * airy_ai(0.25 * 10.0 ** (2.0 / 3.0))
    # CFU on the pure cubic is exact up to the a0 truncation
    assert abs(v.value - exact) <= 1e-6 * abs(exact)


def test_cfu_matches_bessel():
    intg = registry_get("bessel-sinh")
    alpha, N = 0.9, 30
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    p = find_partner(intg, alpha, s)
    v = approx_cfu(intg, alpha, N, s, p)
    from caustica import bessel_ref

    ref = bessel_ref(N, alpha * N)
    assert abs(v.value - ref) <= 5e-3 * abs(ref)
    assert abs(v.value.imag) <= 1e-8 * abs(v.value)


def test_cfu_error_falls_with_n_on_asymmetric_pair():
    # perturbed-cubic has an asymmetric saddle pair, so b0 != 0.  With the
    # b0 Ai' term the error left is O(1/N); without it, or with its sign
    # flipped, the error is O(N^{-1/3}) and falls more slowly than N^{-2/3}
    intg = registry_get("perturbed-cubic", {"eps": "0.05"})
    alpha = 0.05
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    p = find_partner(intg, alpha, s)
    Ns = (30.0, 100.0, 300.0)
    errs = []
    for N in Ns:
        ref = quad_contour(intg, alpha, N, tol=1e-12).value
        v = approx_cfu(intg, alpha, N, s, p)
        errs.append(abs(v.value - ref) / abs(ref))
    for (n0, e0), (n1, e1) in zip(zip(Ns, errs), zip(Ns[1:], errs[1:])):
        assert e1 < e0 * (n0 / n1) ** (2.0 / 3.0)


def test_cfu_coalesced_raises():
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.25, 0.6 + 0j)
    with pytest.raises(BranchAmbiguous):
        approx_cfu(intg, 0.25, 10.0, s, s)


def test_tilde_corrected_near_caustic():
    # the acceptance-A4 grid: perturbed-cubic, N=30, zeta' from 0.1 to 1.
    # The quartic correction takes tilde from 2-3% to within 2e-3
    intg = registry_get("perturbed-cubic", {"eps": "0.05"})
    c = find_caustic(intg)
    N = 30.0
    for alpha in np.linspace(c.alpha_hat + 0.01, c.alpha_hat + 0.10, 10):
        ref = quad_contour(intg, alpha, N, tol=1e-12).value
        v = approx_tilde(intg, alpha, N, c)
        assert abs(v.value - ref) <= 2e-3 * abs(ref)


def test_tilde_prefactor_slope_term():
    # with f = z^3/3 - alpha z and g = 1 + z/2 the g' term makes tilde exact:
    # 2 pi i [N^{-1/3} Ai(x) - (1/2) N^{-2/3} Ai'(x)], x = alpha N^{2/3}
    intg = dataclasses.replace(
        registry_get("cubic"), g=lambda z: 1.0 + 0.5 * z, name="cubic-linear-g"
    )
    c = find_caustic(intg)
    for alpha, N in ((0.1, 30.0), (0.3, 100.0)):
        x = alpha * N ** (2.0 / 3.0)
        ai, aip, _, _ = airy(x)
        exact = 2.0j * math.pi * (N ** (-1.0 / 3.0) * ai - 0.5 * N ** (-2.0 / 3.0) * aip)
        ref = quad_contour(intg, alpha, N, tol=1e-12).value
        assert abs(ref - exact) <= 1e-10 * abs(exact)
        v = approx_tilde(intg, alpha, N, c)
        assert abs(v.value - ref) <= 1e-9 * abs(ref)


# ---------------------------------------------------------------------------
# accuracy ordering in the caustic window


def test_error_ordering_in_window():
    # tilde must beat WKB once zeta' <= 2
    from caustica import bessel_ref

    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    N = 30
    for alpha in (0.98, 0.99, 1.0):
        ref = bessel_ref(N, alpha * N)
        tl = approx_tilde(intg, alpha, N, c)
        assert tl.zeta_prime <= 2.0
        err_tilde = abs(tl.value - ref) / abs(ref)
        assert err_tilde <= 0.05
        try:
            s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
            wkb = approx_wkb(intg, alpha, N, s)
            err_wkb = abs(wkb.value - ref) / abs(ref)
        except CausticDivergence:
            err_wkb = math.inf
        assert err_tilde < err_wkb


# ---------------------------------------------------------------------------
# phase and branch sanity


def test_tilde_phase_real_on_bessel():
    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    v = approx_tilde(intg, 0.95, 30.0, c)
    assert abs(v.value.imag) <= 1e-6 * abs(v.value)
    assert v.value.real > 0.0


def test_tilde_branch_stable_across_sweep():
    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    branches = {
        approx_tilde(intg, a, 30.0, c).branch
        for a in np.linspace(0.85, 1.0, 7)
    }
    assert len(branches) == 1


def test_golden_bessel_value():
    from caustica import bessel_ref

    assert bessel_ref(1, 1.0) == pytest.approx(J1_1, abs=1e-12)


# ---------------------------------------------------------------------------
# one call over an N grid equals one call per N


GRID = (10, 30, 100, 300, 1000)


def _outcome(formula, N):
    try:
        return formula(N)
    except CausticaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "name, params, alpha",
    [
        ("cubic", {}, 0.3),
        ("perturbed-cubic", {"eps": "0.05"}, 0.3),
        ("bessel-sinh", {}, 0.999),
        # three cube-root branches give a real fold parameter at alpha_hat;
        # tilde takes the most nearly real r, once for the whole grid
        ("bessel-sinh", {}, 1.0),
        ("mean-field-toy", {"m": "0.1"}, 1.35),
        # finite-difference clones: derivatives from the Taylor jet
        ("fd-perturbed-cubic", {"eps": "0.05"}, 0.3),
        ("fd-bessel-sinh", {}, 0.999),
    ],
)
def test_formulas_over_grid_equal_scalar_calls(name, params, alpha):
    intg = registry_get(name.removeprefix("fd-"), params)
    if name.startswith("fd-"):
        intg = dataclasses.replace(intg, analytic_derivs=None)
    c = find_caustic(intg)
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    formulas = {
        "wkb": lambda N: approx_wkb(intg, alpha, N, s),
        "tilde": lambda N: approx_tilde(intg, alpha, N, c),
        "saddle": lambda N: approx_saddle_form(intg, alpha, N, s, c),
    }
    try:
        p = find_partner(intg, alpha, s)
        formulas["cfu"] = lambda N: approx_cfu(intg, alpha, N, s, p)
    except CausticaError:
        assert alpha == 1.0  # the saddles coalesce at the caustic
    evaluated = 0
    for method, formula in formulas.items():
        single = [_outcome(formula, N) for N in GRID]
        grid = _outcome(formula, list(GRID))
        if all(isinstance(v, ApproxValue) for v in single):
            assert isinstance(grid, tuple) and grid == tuple(single), method
            assert _outcome(formula, GRID) == grid
            for N, v in zip(GRID, grid):
                fields = [f.name for f in dataclasses.fields(v)]
                assert fields == ["value", "zeta_prime", "warnings", "branch"]
                assert v.regime is classify_regime(v.zeta_prime)
                if method == "tilde":
                    assert isinstance(v.branch, int)
                else:
                    assert v.branch is None
                if method in ("wkb", "saddle"):
                    assert v.zeta_prime == N ** (2 / 3) * asym1d._saddle_zeta(s)
            evaluated += 1
        else:
            # errors depend on alpha only: every N and the grid raise alike
            assert all(v == grid for v in single), method
    assert evaluated >= 2


def test_formula_single_n_is_not_wrapped():
    intg = registry_get("cubic")
    s = find_saddle(intg, 0.3, intg.saddle_guess(0.3))
    assert isinstance(approx_wkb(intg, 0.3, 30, s), ApproxValue)
    assert approx_wkb(intg, 0.3, [30], s) == (approx_wkb(intg, 0.3, 30, s),)


def test_one_n_formula_makes_one_scalar_airye_call(monkeypatch):
    # a single N takes airye's scalar path, a grid one array call
    shapes = []

    def recorded(x):
        shapes.append(np.shape(x))
        return airye(x)

    monkeypatch.setattr(caustica.airy, "airye", recorded)
    intg = registry_get("cubic")
    c = find_caustic(intg)
    s = find_saddle(intg, 0.3, intg.saddle_guess(0.3))
    p = find_partner(intg, 0.3, s)
    for formula in (
        lambda N: approx_tilde(intg, 0.3, N, c),
        lambda N: approx_saddle_form(intg, 0.3, N, s, c),
        lambda N: approx_cfu(intg, 0.3, N, s, p),
    ):
        for N, want in ((30, [()]), (list(GRID), [(len(GRID),)])):
            shapes.clear()
            formula(N)
            assert shapes == want, N


def _library_sweep(intg, alphas, grid):
    """The four formulas over (alpha, N), as the documented custom-integrand
    path runs them; a cell is a complex or None where a typed error was
    raised."""
    c = find_caustic(intg)
    cells = []
    guess = None
    for a in alphas:
        try:
            s = find_saddle(intg, a, guess if guess is not None else intg.saddle_guess(a))
        except CausticaError:
            cells.extend([None] * 4 * len(grid))
            continue
        guess = s.z0
        for formula in (
            lambda: approx_wkb(intg, a, grid, s),
            lambda: approx_tilde(intg, a, grid, c),
            lambda: approx_saddle_form(intg, a, grid, s, c),
            lambda: approx_cfu(intg, a, grid, s, find_partner(intg, a, s)),
        ):
            try:
                cells.extend(v.value for v in formula())
            except CausticaError:
                cells.extend([None] * len(grid))
    return cells


@pytest.mark.parametrize("name, lo, hi", [("bessel-sinh", 0.6, 1.05),
                                          ("perturbed-cubic", 0.0, 0.6)])
def test_fd_sweep_matches_analytic_sweep(name, lo, hi):
    # the same sweep with derivatives from the Taylor jet instead of the
    # analytic providers: the same cells fail, and the values agree closely
    intg = registry_get(name)
    alphas = np.linspace(lo, hi, 10).tolist()
    grid = (10, 100, 1000)
    analytic = _library_sweep(intg, alphas, grid)
    fd = _library_sweep(dataclasses.replace(intg, analytic_derivs=None), alphas, grid)
    assert [v is None for v in fd] == [v is None for v in analytic]
    assert sum(v is not None for v in fd) > len(fd) // 2
    for v, ref in zip(fd, analytic):
        if ref is not None:
            assert abs(v - ref) <= 1e-11 * abs(ref)


def test_tilde_real_at_caustic_despite_rounding_in_z_tilde():
    # the solve for z_tilde can leave an imaginary part ~1e-19; at alpha_hat
    # the fold parameter is then ~1e-38 with a relative imaginary part of
    # order one, which is rounding, not a complex-saddle branch
    intg = registry_get("perturbed-cubic")
    c = find_caustic(intg)
    ref = approx_tilde(intg, 0.0, 10, c).value
    nudged = dataclasses.replace(c, z_tilde=(1 + 1j) * 1e-19)
    assert abs(approx_tilde(intg, 0.0, 10, nudged).value - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize(
    "solve", ["find_saddle", "find_caustic", "z_tilde_at", "approx_tilde", "approx_corrected_nd"]
)
def test_one_derive_per_point(monkeypatch, solve):
    # each finite-difference derive call computes f' to f'''' from one jet,
    # so a solver or formula asks at most once per (z, alpha), whichever
    # module asks: approx_tilde takes its jet at z_tilde from the Newton step
    # that found it, and corrected-nd solves z_tilde(alpha) alone, with no
    # solve for alpha_hat
    intg = dataclasses.replace(registry_get("perturbed-cubic"), analytic_derivs=None)
    # z_tilde(alpha) = 0 for every alpha on the perturbed cubic, where one
    # derive finds it: the continuation runs on an integrand whose z_tilde
    # moves with alpha
    toy = dataclasses.replace(registry_get("mean-field-toy", {"m": 0.1}), analytic_derivs=None)
    c = find_caustic(toy)
    nd = registry_get("nd-perturbed-cubic", {"dim": "2"})
    s = find_saddle_nd(nd, 0.3, nd.saddle_guess(0.3))
    asked, caustic_solves = [], []
    for module in (saddle, asym1d):
        def counted(intg, z, alpha, order, derive=module.derive):
            asked.append((z, alpha))
            return derive(intg, z, alpha, order)

        monkeypatch.setattr(module, "derive", counted)
    for module in (saddle, asymnd):
        def counted_caustic(intg, find_caustic=module.find_caustic):
            caustic_solves.append(intg)
            return find_caustic(intg)

        monkeypatch.setattr(module, "find_caustic", counted_caustic)
    {
        "find_saddle": lambda: find_saddle(intg, 0.3, intg.saddle_guess(0.3)),
        "find_caustic": lambda: find_caustic(intg),
        "z_tilde_at": lambda: c.z_tilde_at(toy, 1.5),
        "approx_tilde": lambda: approx_tilde(toy, 1.5, 100.0, c),
        "approx_corrected_nd": lambda: approx_corrected_nd(nd, 0.3, 100.0, s),
    }[solve]()
    assert len(asked) > 1
    assert len(set(asked)) == len(asked)
    assert caustic_solves == []


@pytest.mark.parametrize(
    "name, alpha, analytic",
    [("perturbed-cubic", 0.3, False), ("bessel-sinh", 0.9, True)],
    ids=["finite-difference", "analytic"],
)
def test_one_f_per_fold_point(name, alpha, analytic):
    # f(z_tilde) is part of the fold-point record: tilde's set-up, the saddle
    # form over a grid and each one-N saddle-form call read it from the one
    # solve of z_tilde at this alpha
    base = registry_get(name)
    base = base if analytic else dataclasses.replace(base, analytic_derivs=None)
    asked = []

    def f(z, a):
        if not isinstance(z, np.ndarray):
            asked.append((z, a))
        return base.f(z, a)

    intg = dataclasses.replace(base, f=f)
    c = find_caustic(intg)
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    # on bessel-sinh z_tilde = 0 at every alpha, and find_caustic's first
    # secant step is at alpha = 0.9: count from here
    asked.clear()
    ns = [10, 100, 1000]
    approx_tilde(intg, alpha, ns, c)
    approx_saddle_form(intg, alpha, ns, s, c)
    for n in ns:
        approx_saddle_form(intg, alpha, n, s, c)
    zt = saddle._fold_point(intg, alpha, c.z_tilde, c.f3_tilde)[0]
    assert asked.count((zt, alpha)) == 1


def test_one_jet_per_point_and_alpha(monkeypatch):
    # the per-N library path (every formula and find_partner called once per
    # N) repeats each alpha's solves and formula set-ups; the integrand's
    # memo serves every repeat, so a finite-difference sweep asks for f's
    # jet once per distinct (z, alpha) and takes one g' jet per alpha, and
    # each per-N cell has the bits of the grid call on a fresh instance
    base = dataclasses.replace(registry_get("perturbed-cubic"), analytic_derivs=None)
    calls = {"f": 0, "g": 0}

    def f(z, a):
        calls["f"] += 1
        return base.f(z, a)

    def g(z):
        calls["g"] += 1
        return base.g(z)

    intg = dataclasses.replace(base, f=f, g=g)
    c = find_caustic(intg)
    jets, asked = [], []

    def counted_jet(func, scale, jet=integrand._jet):
        before = dict(calls)
        out = jet(func, scale)
        jets.append("f" if calls["f"] > before["f"] else "g")
        return out

    for module in (integrand, asym1d):
        monkeypatch.setattr(module, "_jet", counted_jet)
    for module in (saddle, asym1d):
        def counted(intg, z, alpha, order, derive=module.derive):
            asked.append((z, alpha))
            return derive(intg, z, alpha, order)

        monkeypatch.setattr(module, "derive", counted)

    def cells(intg, a, N, s, c):
        out = []
        for method in (
            lambda: approx_wkb(intg, a, N, s),
            lambda: approx_tilde(intg, a, N, c),
            lambda: approx_saddle_form(intg, a, N, s, c),
            lambda: approx_cfu(intg, a, N, s, find_partner(intg, a, s)),
        ):
            try:
                out.append(method())
            except CausticaError:
                out.append(None)
        return out

    alphas, ns = (0.05, 0.2, 0.35, 0.5), (10, 19, 37, 72, 139, 268, 518, 1000)
    per_n, s = [], None
    for a in alphas:
        s = find_saddle(intg, a, intg.saddle_guess(a) if s is None else s.z0)
        per_n.append([cells(intg, a, n, s, c) for n in ns])
    assert jets.count("f") == len(set(asked)) == len(asked)
    assert jets.count("g") == len(alphas)

    fresh, s = dataclasses.replace(intg), None
    c = find_caustic(fresh)
    for a, rows in zip(alphas, per_n):
        s = find_saddle(fresh, a, fresh.saddle_guess(a) if s is None else s.z0)
        grid = cells(fresh, a, ns, s, c)
        for k, column in enumerate(zip(*rows)):
            assert repr(column) == repr(grid[k])


def test_saddle_from_another_alpha_is_bad_parameter():
    # a saddle solved at alpha = 0.8 and used at 0.9 gave a plausible wrong
    # value with no error: wkb read 4.64e-6 where J_100(90) is 2.60e-3, and
    # wkb-nd at 0.4 from the 0.3 saddle read the 0.3 value, 8.51e-3i
    # against 1.48e-3i.  Every formula now refuses it
    b = registry_get("bessel-sinh")
    c = find_caustic(b)
    s8 = find_saddle(b, 0.8, b.saddle_guess(0.8))
    s9 = find_saddle(b, 0.9, b.saddle_guess(0.9))
    p8 = find_partner(b, 0.8, s8)
    assert (s8.alpha, s9.alpha, p8.alpha) == (0.8, 0.9, 0.8)
    nd = registry_get("nd-perturbed-cubic", {"dim": "2"})
    s3, s4 = (find_saddle_nd(nd, a, nd.saddle_guess(a)) for a in (0.3, 0.4))
    for call in (
        lambda: approx_wkb(b, 0.9, 100, s8),
        lambda: approx_wkb(b, 0.9, 100, s=s8),
        lambda: approx_saddle_form(b, 0.9, [30, 100], s8, c),
        lambda: approx_cfu(b, 0.9, 100, s8, p8),
        lambda: approx_cfu(b, 0.9, 100, s9, p8),
        lambda: approx_wkb_nd(nd, 0.4, 30, s3),
        lambda: approx_corrected_nd(nd, 0.4, 30, s3),
    ):
        with pytest.raises(BadParameter, match="solved at alpha="):
            call()
    assert abs(approx_wkb(b, 0.9, 100, s9).value - jv(100, 90)) <= 0.03 * jv(100, 90)
    assert abs(approx_wkb_nd(nd, 0.4, 30, s4).value - 1.48e-3j) <= 1e-5


def test_empty_n_grid_is_bad_parameter():
    # N is one number or a non-empty grid, each N real, finite and > 0:
    # otherwise every formula and both oracles raise BadParameter, where
    # they used to return NaN or raise an untyped error
    intg = registry_get("cubic")
    c = find_caustic(intg)
    s = find_saddle(intg, 0.5, intg.saddle_guess(0.5))
    p = find_partner(intg, 0.5, s)
    nd = registry_get("nd-separable", {"dim": "2"})
    snd = find_saddle_nd(nd, 0.3, nd.saddle_guess(0.3))
    toy = registry_get("mean-field-toy", {"m": "0.1"})
    for N, call in itertools.product(
        ([], 0, -5, math.nan, math.inf, [30, 0], [[30]], "30", 2j, object()),
        (
            lambda N: quad_contour(intg, 0.5, N),
            lambda N: cubature_nd(nd, 0.3, N),
            lambda N: approx_wkb(intg, 0.5, N, s),
            lambda N: approx_tilde(intg, 0.5, N, c),
            lambda N: approx_saddle_form(intg, 0.5, N, s, c),
            lambda N: approx_cfu(intg, 0.5, N, s, p),
            lambda N: approx_wkb_nd(nd, 0.3, N, snd),
            lambda N: approx_corrected_nd(nd, 0.3, N, snd),
            lambda N: mean_field_compare(toy, [1.3], N),
        ),
    ):
        with pytest.raises(BadParameter, match="non-empty"):
            call(N)


def test_non_finite_alpha_is_bad_parameter():
    # approx_tilde used to return nan+nan*i here
    intg = registry_get("cubic")
    c = find_caustic(intg)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(BadParameter, match="alpha must be finite"):
            approx_tilde(intg, alpha, 30, c)
    # the toy's saddle solve converges at gamma = -inf, and mean_field_compare
    # used to return -8.4e-17 - 0.458i from it; its approx_wkb call now raises
    toy = registry_get("mean-field-toy", {"m": "0.1"})
    with pytest.raises(BadParameter, match="alpha must be finite, got -inf"):
        mean_field_compare(toy, [-math.inf], [30])


@pytest.mark.parametrize("method, N", [("wkb", 1e4), ("wkb", (30, 1e4)), ("cfu", 1e5)])
def test_value_beyond_double_range_is_wrong_regime(method, N):
    # at gamma = 1.5, N = 1e4 the toy's |I| is about e^2029, and cfu's
    # exponent leaves the double range by N = 1e5: a typed error, not
    # cmath.exp's OverflowError
    intg = registry_get("mean-field-toy", {"m": "0.1"})
    s = find_saddle(intg, 1.5, intg.saddle_guess(1.5))
    call = {
        "wkb": lambda: approx_wkb(intg, 1.5, N, s),
        "cfu": lambda: approx_cfu(intg, 1.5, N, s, find_partner(intg, 1.5, s)),
    }[method]
    with pytest.raises(WrongRegime, match=re.escape(f"overflows a double at alpha=1.5, N={N}")):
        call()


def test_cfu_conjugate_pair_is_branch_ambiguous():
    # above bessel-sinh's fold the saddles are the pair +-i acos(1/alpha),
    # whose exponents differ by an imaginary amount
    intg = registry_get("bessel-sinh")
    z = 1j * math.acos(1.0 / 1.05)
    s, p = find_saddle(intg, 1.05, z), find_saddle(intg, 1.05, z.conjugate())
    with pytest.raises(BranchAmbiguous, match=r"Im = 1\.55e-02"):
        approx_cfu(intg, 1.05, 30, s, p)


def test_cfu_equal_exponents_is_branch_ambiguous():
    # the symmetric quartic -z^4/4 + alpha z^2/2 has its saddles at
    # +-sqrt(alpha) with one f(z0): zeta = 0, and b0 would divide by it
    line = ContourPath((0j,), tail_angle=math.pi, head_angle=0.0)
    intg = Integrand1D(f=lambda z, a: -z ** 4 / 4.0 + a * z ** 2 / 2.0, g=lambda z: 1.0,
                       contour=line)
    s, p = find_saddle(intg, 0.5, 0.7), find_saddle(intg, 0.5, -0.7)
    assert s.z0 != p.z0 and s.f0 == p.f0
    with pytest.raises(BranchAmbiguous, match="equal f"):
        approx_cfu(intg, 0.5, 30, s, p)


def test_saddle_form_zero_cubic_coefficient_is_degenerate():
    intg = registry_get("cubic")
    c = find_caustic(intg)
    s = dataclasses.replace(find_saddle(intg, 0.3, intg.saddle_guess(0.3)), f3=0j)
    with pytest.raises(DegenerateCubic, match="vanishes at the saddle"):
        approx_saddle_form(intg, 0.3, 30, s, c)


def test_tilde_zero_cubic_coefficient_is_degenerate():
    # f = z^4/12 - alpha z: f'' and f''' both vanish at z = 0
    intg = Integrand1D(
        f=lambda z, a: z ** 4 / 12.0 - a * z,
        g=lambda z: 1.0 + 0.0 * z,
        contour=ContourPath((0j,), tail_angle=-math.pi / 4.0, head_angle=math.pi / 4.0),
        analytic_derivs=(
            lambda z, a: z ** 3 / 3.0 - a,
            lambda z, a: z * z,
            lambda z, a: 2.0 * z,
            lambda z, a: 2.0 + 0.0 * z,
        ),
    )
    c = CausticInfo(z_tilde=0j, alpha_hat=0.0, f3_tilde=0j)
    with pytest.raises(DegenerateCubic, match="vanishes at the expansion point"):
        approx_tilde(intg, 0.0, 30, c)


def test_f_overflow_at_the_fold_point_is_wrong_regime():
    # f overflows where its derivatives do not: the fold-point record takes f
    # at z_tilde, so find_caustic raises a typed error there too, and tilde
    # and the saddle form keep the WrongRegime they raise for any overflow
    cubic = registry_get("cubic")
    intg = dataclasses.replace(cubic, f=lambda z, a: cubic.f(z, a) * cmath.exp(800.0))
    with pytest.raises(WrongRegime, match="find_caustic: f overflows"):
        find_caustic(intg)
    c = CausticInfo(z_tilde=0j, alpha_hat=0.0, f3_tilde=2 + 0j)
    s = find_saddle(cubic, 0.3, cubic.saddle_guess(0.3))
    with pytest.raises(WrongRegime):
        approx_tilde(intg, 0.3, 30, c)
    with pytest.raises(WrongRegime):
        approx_saddle_form(intg, 0.3, [30, 100], s, c)


def test_tilde_mirrored_cubic_takes_the_real_branch():
    # f = -z^3/3 + alpha z from infinity e^{2 pi i/3} to infinity e^{-2 pi i/3},
    # with no real_result_hint: f''' < 0, and at alpha = 0 every cube-root
    # branch gives zeta ~ 0; the real one, r = -1, continues from the
    # real-saddle side
    intg = Integrand1D(
        f=lambda z, a: -(z ** 3) / 3.0 + a * z,
        g=lambda z: 1.0 + 0.0 * z,
        contour=ContourPath((0j,), tail_angle=2 * math.pi / 3, head_angle=-2 * math.pi / 3),
        analytic_derivs=(
            lambda z, a: -z * z + a,
            lambda z, a: -2.0 * z,
            lambda z, a: -2.0 + 0.0 * z,
            lambda z, a: 0.0 * z,
        ),
        saddle_guess=lambda a: complex(-math.sqrt(max(a, 0.0)) - 1e-3),
        caustic_guess=(0.1 + 0.0j, 0.05),
    )
    c = find_caustic(intg)
    for alpha in (0.0, 0.3):
        t = approx_tilde(intg, alpha, 30, c)
        ref = quad_contour(intg, alpha, 30, tol=1e-12).value
        assert t.branch == 2
        assert abs(t.value - ref) <= 1e-12 * abs(ref)
