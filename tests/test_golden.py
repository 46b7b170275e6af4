"""Sweep CSVs and exit codes against golden files.

Each ``tests/data/NAME.ini`` is a ``caustica sweep`` config and
``tests/data/NAME.csv`` the CSV it wrote when the file was made.  A change
that must keep every value fails here on the first differing byte.  A change
that moves a value on purpose regenerates the file with

    PYTHONPATH=src python -m caustica.cli sweep -c tests/data/NAME.ini -o tests/data/NAME.csv

and says in CHANGES.md which values moved and why.
"""

import pathlib

import pytest
from click.testing import CliRunner

from caustica.cli import main

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
    ],
)
def test_sweep_matches_golden_csv(tmp_path, name, exit_code):
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(
        main, ["sweep", "-c", str(DATA / f"{name}.ini"), "-o", str(out)]
    )
    assert result.exit_code == exit_code, result.output
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
