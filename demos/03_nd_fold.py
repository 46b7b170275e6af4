"""A two-dimensional integral with one soft mode: the first coordinate
carries a perturbed cubic (deformed onto an Airy-type complex contour), the
second is an ordinary Gaussian transverse mode, and a small x1*x2^2
coupling makes the problem genuinely non-separable.

The transverse coordinate is integrated out by Laplace's method (the
splitting lemma), which leaves a one-variable integrand in the soft
coordinate; wkb-nd and corrected-nd are the one-variable Gaussian and
saddle-anchored Airy forms on it.  At the critical alpha the soft curvature
vanishes, the Gaussian fluctuation determinant diverges, and only the
corrected formula survives.  Every value is checked against the n-D oracle.
"""

from caustica import (
    CausticDivergence,
    approx_corrected_nd,
    approx_wkb_nd,
    cubature_nd,
    find_caustic,
    find_saddle_nd,
    registry_get,
)

intg = registry_get("nd-perturbed-cubic",
                    {"eps": "0.05", "c": "0.1", "lambda2": "-1", "dim": "2"})
alpha_hat = find_caustic(registry_get("perturbed-cubic", {"eps": "0.05"})).alpha_hat
N = 50.0

print(f"soft-mode caustic at alpha_hat = {alpha_hat:.3g}")
print()
print(f"{'alpha':>9} {'f2 (soft)':>10} {'zeta_p':>8} {'wkb-nd rel':>11} "
      f"{'corr rel':>9}")

worst = 0.0
for alpha in (alpha_hat, 0.05, 0.2, 0.4):
    s = find_saddle_nd(intg, alpha, intg.saddle_guess(alpha))
    oracle = cubature_nd(intg, alpha, N).value
    corr = approx_corrected_nd(intg, alpha, N, s)
    try:
        wkb = approx_wkb_nd(intg, alpha, N, s)
        wkb_rel = f"{abs(wkb.value - oracle) / abs(oracle):11.2e}"
    except CausticDivergence:
        wkb_rel = f"{'divergent':>11}"
    rel = abs(corr.value - oracle) / abs(oracle)
    worst = max(worst, rel)
    print(
        f"{alpha:9.5f} {s.saddle.f2.real:10.2e} {corr.zeta_prime:8.3f} {wkb_rel} "
        f"{rel:9.2e}"
    )

print()
print("the corrected formula needs only the reduced integrand at its saddle")
print("and stays finite at the fold, where the Gaussian term diverges;")
print(f"its largest error against the oracle above is {worst:.1e}.")
