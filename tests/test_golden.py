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
families without them, from ``_fd_rows``; it is regenerated with

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
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    find_caustic,
    find_partner,
    find_saddle,
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


if __name__ == "__main__":
    (DATA / "fd-library.csv").write_text(_fd_csv())
