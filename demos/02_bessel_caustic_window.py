"""Bessel functions J_N(alpha N) near the turning point alpha = 1 are the
classic fold caustic: the two saddles of a sinh(z) - z coalesce at z = 0 and
the textbook (Debye/WKB) approximation blows up.  This script sweeps alpha
toward 1 at fixed N = 30 and compares four approximations against
scipy's J_N.
"""

import math

from caustica import (
    CausticDivergence,
    approx_cfu,
    approx_tilde,
    approx_wkb,
    bessel_ref,
    find_caustic,
    find_partner,
    find_saddle,
    registry_get,
)

intg = registry_get("bessel-sinh")
caustic = find_caustic(intg)
N = 30

print(f"fold at alpha_hat = {caustic.alpha_hat:.6f} (z_tilde = 0): J_N(N) itself")
print()
print(f"{'alpha':>6} {'zeta_p':>7} {'J_N(aN)':>12} {'wkb err':>10} "
      f"{'cfu err':>10} {'tilde err':>10}")

for alpha in (0.80, 0.90, 0.95, 0.99, 1.00):
    ref = bessel_ref(N, alpha * N)
    tilde = approx_tilde(intg, alpha, N, caustic)
    s = find_saddle(intg, alpha, intg.saddle_guess(alpha))
    try:
        wkb_err = f"{abs(approx_wkb(intg, alpha, N, s).value - ref) / abs(ref):10.2e}"
    except CausticDivergence:
        wkb_err = f"{'divergent':>10}"
    try:
        p = find_partner(intg, alpha, s)
        cfu_err = f"{abs(approx_cfu(intg, alpha, N, s, p).value - ref) / abs(ref):10.2e}"
    except Exception:
        cfu_err = f"{'n/a':>10}"
    print(
        f"{alpha:6.2f} {tilde.zeta_prime:7.3f} {ref:12.6f} {wkb_err} {cfu_err} "
        f"{abs(tilde.value - ref) / abs(ref):10.2e}"
    )

print()
print("WKB degrades and finally diverges as zeta' -> 0, while the single-")
print("anchor tilde form stays uniformly accurate through the caustic and")
print("tracks the two-saddle CFU expansion where both exist.")
