"""Sweep and demo CSVs and exit codes against golden files.

Each ``tests/data/NAME.ini`` is a ``caustica sweep`` config and
``tests/data/NAME.csv`` the CSV it wrote when the file was made.  A change
that must keep every value fails here on the first differing byte.  A change
that moves a value on purpose regenerates the file with

    PYTHONPATH=src python -m caustica.cli sweep -c tests/data/NAME.ini -o tests/data/NAME.csv

and says in CHANGES.md which values moved and why.

``tests/data/meanfield.csv`` is the CSV of ``caustica demo-meanfield`` with
the arguments in ``MEANFIELD_ARGS``; it is regenerated with

    PYTHONPATH=src python -m caustica.cli demo-meanfield --m 0.1 \\
        --gamma 0.8:1.6:17 --N 25,50,100,200 -o tests/data/meanfield.csv

``tests/data/fd-library.csv`` pins the finite-difference derivative path,
which every sweep golden skips (the registry families have analytic
derivatives): one-N values of the four 1-D formulas on clones of the
families without them, from ``_fd_rows``.  ``tests/data/fd-library-nd.csv``
pins the n-D path's transverse jets in the same way (the registry n-D
families have a closed-form ``transverse_derivs``): one-N ``wkb-nd`` and
``corrected-nd`` values and the saddle's x0, f'' and f''' on clones without
it, from ``_fd_nd_rows``.  This writes both:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import io
import pathlib

import pytest
from click.testing import CliRunner

from caustica import (
    CausticaError,
    approx_cfu,
    approx_corrected_nd,
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    approx_wkb_nd,
    find_caustic,
    find_partner,
    find_saddle,
    find_saddle_nd,
    registry_get,
)
from caustica.cli import _write_csv, main

DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "name, exit_code",
    [
        ("cubic", 0),
        # bessel-sinh's saddle solve fails above alpha_hat = 1: exit-3 trailer
        ("bessel-sinh-oracle", 3),
        ("perturbed-cubic", 0),
        ("nd-separable", 0),
        ("nd-oracle", 0),
        ("nd-oracle-3d", 0),
    ],
)
def test_sweep_matches_golden_csv(tmp_path, name, exit_code):
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(
        main, ["sweep", "-c", str(DATA / f"{name}.ini"), "-o", str(out)]
    )
    assert result.exit_code == exit_code, result.output
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


MEANFIELD_ARGS = ["--m", "0.1", "--gamma", "0.8:1.6:17", "--N", "25,50,100,200"]


def test_demo_meanfield_matches_golden_csv(tmp_path):
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(main, ["demo-meanfield", *MEANFIELD_ARGS, "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (DATA / "meanfield.csv").read_bytes()


# (family, alpha grid): each grid reaches its fold, where wkb diverges and
# cfu finds no partner
FD_FAMILIES = [
    ("perturbed-cubic", [0.6, 0.3, 0.05, 0.0]),
    ("bessel-sinh", [0.6, 0.8, 0.95, 0.99, 1.0]),
]
FD_N = [10, 100, 1000]
FD_METHODS = {
    "wkb": lambda intg, a, n, s, c: approx_wkb(intg, a, n, s),
    "tilde": lambda intg, a, n, s, c: approx_tilde(intg, a, n, c),
    "saddle": lambda intg, a, n, s, c: approx_saddle_form(intg, a, n, s, c),
    "cfu": lambda intg, a, n, s, c: approx_cfu(intg, a, n, s, find_partner(intg, a, s)),
}


def _fd_rows():
    """One row per (family, alpha, N): each formula's value at that one N
    as re, im, or its error class and an empty cell.  The families are
    cloned with ``analytic_derivs=None``, and each saddle is solved from the
    previous alpha's (the first from ``saddle_guess``)."""
    for name, alphas in FD_FAMILIES:
        intg = dataclasses.replace(registry_get(name), analytic_derivs=None)
        c, guess = find_caustic(intg), None
        for a in alphas:
            s = find_saddle(intg, a, intg.saddle_guess(a) if guess is None else guess)
            guess = s.z0
            for n in FD_N:
                row = [name, a, n]
                for method in FD_METHODS.values():
                    try:
                        v = method(intg, a, n, s, c).value
                        row += [v.real, v.imag]
                    except CausticaError as exc:
                        row += [type(exc).__name__, None]
                yield row


def _fd_csv() -> str:
    out = io.StringIO()
    cols = ["family", "alpha", "N"] + [f"{m}_{p}" for m in FD_METHODS for p in ("re", "im")]
    _write_csv(out, cols, _fd_rows())
    return out.getvalue()


def test_fd_library_matches_golden_csv():
    assert _fd_csv() == (DATA / "fd-library.csv").read_text()


# (family, parameters): both n-D families at dim 2 and 3; alpha runs down
# to the fold at 0, where wkb-nd diverges
FD_ND_FAMILIES = [
    (name, params)
    for name in ("nd-perturbed-cubic", "nd-separable")
    for params in ({}, {"dim": 3, "lambda3": -2})
]
FD_ND_ALPHAS = [0.5, 0.3, 0.1, 0.02, 0.0]
FD_ND_METHODS = {"wkb-nd": approx_wkb_nd, "corrected-nd": approx_corrected_nd}


def _jet_clone(intg):
    # the family with its transverse derivatives taken from Taylor jets
    return dataclasses.replace(intg, transverse_derivs=None)


def _fd_nd_rows():
    """One row per (family, dim, alpha, N): the saddle's x0 (padded with
    empty cells to three entries), and f'' and f''' of the reduced
    integrand there, as re, im; then each formula's value at that one N as
    re, im, or its error class and an empty cell.  The families are cloned
    with ``transverse_derivs=None``, and each saddle is solved from
    ``saddle_guess(alpha)``."""
    for name, params in FD_ND_FAMILIES:
        intg = _jet_clone(registry_get(name, params))
        for a in FD_ND_ALPHAS:
            s = find_saddle_nd(intg, a, intg.saddle_guess(a))
            cells = [None] * 6
            cells[:2 * intg.dim:2], cells[1:2 * intg.dim:2] = s.x0.real, s.x0.imag
            for v in (s.saddle.f2, s.saddle.f3):
                cells += [v.real, v.imag]
            for n in FD_N:
                row = [name, intg.dim, a, n, *cells]
                for method in FD_ND_METHODS.values():
                    try:
                        v = method(intg, a, n, s).value
                        row += [v.real, v.imag]
                    except CausticaError as exc:
                        row += [type(exc).__name__, None]
                yield row


def _fd_nd_csv() -> str:
    out = io.StringIO()
    cols = ["family", "dim", "alpha", "N"] + [
        f"{c}_{p}"
        for c in ("x0_1", "x0_2", "x0_3", "f2", "f3", *FD_ND_METHODS)
        for p in ("re", "im")
    ]
    _write_csv(out, cols, _fd_nd_rows())
    return out.getvalue()


def test_fd_library_nd_matches_golden_csv():
    assert _fd_nd_csv() == (DATA / "fd-library-nd.csv").read_text()


if __name__ == "__main__":
    (DATA / "fd-library.csv").write_text(_fd_csv())
    (DATA / "fd-library-nd.csv").write_text(_fd_nd_csv())
