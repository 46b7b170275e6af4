"""The library-level sweep of the fd-derivs workload.

It follows the documented path for a custom integrand: one ``find_caustic``,
``find_saddle`` per alpha with continuation, then ``find_partner`` and the
four formulas per (alpha, N).  Calls go through the module attributes, so
the traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses

from caustica import asym1d, integrand, saddle
from caustica.errors import CausticaError


def build(name: str, params: dict, analytic: bool):
    intg = integrand.registry_get(name, params)
    return intg if analytic else dataclasses.replace(intg, analytic_derivs=None)


def sweep(intg, alphas, ns, rows: list) -> None:
    """Append one row per (alpha, N): the wkb, tilde, saddle, cfu values,
    each a complex or None when the method raised a typed error.

    Rows are appended as they finish, so a sweep that raises keeps the rows
    it completed.  A failed saddle solve fails every cell of its alpha.
    """
    c = saddle.find_caustic(intg)
    guess = None
    for a in alphas:
        try:
            s = saddle.find_saddle(
                intg, a, guess if guess is not None else intg.saddle_guess(a)
            )
        except CausticaError:
            rows.extend([None] * 4 for _ in ns)
            continue
        guess = s.z0
        for n in ns:
            row = []
            for method in (_wkb, _tilde, _saddle, _cfu):
                try:
                    row.append(method(intg, a, n, s, c))
                except CausticaError:
                    row.append(None)
            rows.append(row)


def _wkb(intg, a, n, s, c):
    return asym1d.approx_wkb(intg, a, n, s).value


def _tilde(intg, a, n, s, c):
    return asym1d.approx_tilde(intg, a, n, c).value


def _saddle(intg, a, n, s, c):
    return asym1d.approx_saddle_form(intg, a, n, s, c).value


def _cfu(intg, a, n, s, c):
    return asym1d.approx_cfu(intg, a, n, s, saddle.find_partner(intg, a, s)).value
