import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import airy

from caustica import (
    AiryKind,
    ApproxValue,
    BranchAmbiguous,
    CausticaError,
    CausticDivergence,
    Method,
    Regime,
    ZetaParams,
    approx_cfu,
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    classify_regime,
    find_caustic,
    find_partner,
    find_saddle,
    quad_contour,
    recovery_factor,
    registry_get,
    regime_report,
)
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


def test_zeta_params_scaling():
    zp = ZetaParams.from_zeta(0.25, 8.0)
    assert zp.zeta_prime == pytest.approx(8.0 ** (2.0 / 3.0) * 0.25)
    assert zp.exp_shift == pytest.approx((2.0 / 3.0) * zp.zeta_prime ** 1.5)


def test_regime_examples():
    bessel = registry_get("bessel-sinh")
    r = regime_report(bessel, 1.0, 30.0)
    assert r["regime"] == "CausticWindow"
    r = regime_report(bessel, 0.5, 100.0)
    assert r["regime"] == "WkbSafe"
    # cubic at alpha = N^{-2/3} has zeta' = 1 exactly
    cubic = registry_get("cubic")
    r = regime_report(cubic, 30.0 ** (-2.0 / 3.0), 30.0)
    assert r["zeta_prime"] == pytest.approx(1.0, abs=1e-4)


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


@pytest.mark.parametrize("alpha", [0.65, 0.8, 0.9, 0.95])
def test_saddle_form_equals_wkb_times_recovery(alpha):
    # on the recessive side the cancelled saddle form must equal WKB * R exactly
    intg = registry_get("bessel-sinh")
    c = find_caustic(intg)
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    for N in (10.0, 30.0, 100.0, 1000.0):
        sf = approx_saddle_form(intg, alpha, N, s, c)
        if not (0.1 <= sf.zeta_prime <= 10.0):
            continue
        wkb = approx_wkb(intg, alpha, N, s)
        naive = wkb.value * recovery_factor(sf.zeta_prime, AiryKind.RECESSIVE)
        assert abs(sf.value - naive) <= 1e-9 * abs(sf.value)
        assert not sf.warnings


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
        approx_tilde(intg, a, 30.0, c).params.branch_index
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
        # three cube-root branches give a real fold parameter at alpha_hat,
        # so real_result_hint chooses one per N
        ("bessel-sinh", {}, 1.0),
        ("mean-field-toy", {"m": "0.1"}, 1.35),
    ],
)
def test_formulas_over_grid_equal_scalar_calls(name, params, alpha):
    intg = registry_get(name, params)
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
    assert approx_wkb(intg, 0.3, [], s) == ()


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
