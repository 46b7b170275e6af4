"""Output checks against references computed outside the package.

Cell accounting: a cell is one requested value, i.e. one method at one
(alpha, N) row, plus the oracle value where the oracle is on.  A cell fails
when it holds no finite number: the method raised, was flagged divergent, or
its row was never written because the sweep aborted.  A produced cell is
wrong when it misses the accuracy the code promises for it (the
``*_PROMISE`` thresholds below).  The approximation error of the uniform
methods is taken against an independent reference where one exists.

The ``rel_err_*`` columns of the sweep CSV are ignored: they are computed
against the oracle values, which are themselves checked here.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np
from scipy.special import airye, jv

CSV_HEADER = "# caustica-csv v1"
UNIFORM = ("tilde", "saddle", "cfu", "corrected-nd")
ORACLE_PROMISE = 1e-6  # the sweep asks the oracle for tol=1e-10
EXACT_CUBIC_PROMISE = 1e-10  # acceptance test A1: the cubic forms are exact
FD_PROMISE = 1e-6  # finite-difference against analytic derivatives


def bessel_reference(alpha: float, n: int) -> complex:
    """J_N(alpha N), the bessel-sinh integral."""
    return complex(jv(n, alpha * n))


def cubic_reference(alpha: float, n: int) -> complex:
    """2 pi i N^{-1/3} Ai(alpha N^{2/3}), the cubic integral."""
    x = alpha * n ** (2.0 / 3.0)
    ai = airye(x)[0] * math.exp(-(2.0 / 3.0) * x ** 1.5)
    return 2j * math.pi * n ** (-1.0 / 3.0) * ai


REFERENCES = {"bessel-sinh": bessel_reference, "cubic": cubic_reference}


def _rel(v: complex, ref: complex) -> float:
    return abs(v - ref) / abs(ref) if ref != 0 else math.inf


class Tally:
    def __init__(self):
        self.requested = self.produced = self.wrong = 0
        self.errors: list[float] = []  # uniform methods against the reference
        self.problems: list[str] = []  # integrity failures: make `correct` false

    def add(self, cells: dict, promised: dict, truth):
        """Account one row.  ``cells`` maps a method (or "oracle") to a
        complex or None; ``promised`` maps the methods that promise an
        accuracy to (value to agree with, relative tolerance); ``truth`` is
        the independent reference for the row, or None."""
        for m, v in cells.items():
            if v is None or not cmath.isfinite(v):
                continue
            self.produced += 1
            ref, tol = promised.get(m, (None, None))
            if ref is not None and not _rel(v, ref) <= tol:
                self.wrong += 1
            if m in UNIFORM and truth is not None:
                self.errors.append(_rel(v, truth))


def _cell(re: str, im: str):
    if re == "divergent":
        return None
    return complex(float(re), float(im))


def check_cli(t: Tally, spec: dict, fam: dict, csv_path: str, status) -> None:
    """Account the cells of one ``caustica sweep`` CSV."""
    methods = spec["methods"]
    grid = [(a, n) for a in fam["alphas"] for n in fam["N"]]
    t.requested += len(grid) * (len(methods) + bool(spec["oracle"]))
    if isinstance(status, str) and not os.path.exists(csv_path):
        return  # an untyped error before the CSV was opened: every cell failed
    with open(csv_path) as fh:
        lines = fh.read().split("\n")
    cols = ["alpha", "N", "zeta_prime", "regime"]
    for m in methods:
        cols += [f"{m}_re", f"{m}_im"]
    if spec["oracle"]:
        cols += ["oracle_re", "oracle_im"] + [f"rel_err_{m}" for m in methods]
    cols.append("warnings")
    if lines[:2] != [CSV_HEADER, ",".join(cols)]:
        t.problems.append("unexpected CSV header")
        return
    body = [ln for ln in lines[2:] if ln and not ln.startswith("#")]
    trailer = [ln for ln in lines[2:] if ln.startswith("# error:")]
    if len(body) > len(grid):
        t.problems.append("more rows than requested")
        return
    if status == 0 and (len(body) != len(grid) or trailer):
        t.problems.append("exit 0 without every row")
    if status in (3, 4) and not trailer:
        t.problems.append(f"exit {status} without an error trailer")
    if status not in (0, 3, 4) and not isinstance(status, str):
        t.problems.append(f"undocumented exit status {status}")
    exact = fam["name"] == "cubic"
    reference = REFERENCES.get(fam["name"])
    for line, (a, n) in zip(body, grid):
        f = line.split(",")
        if len(f) != len(cols) or float(f[0]) != a or int(f[1]) != n:
            t.problems.append(f"row does not match the grid point alpha={a!r}, N={n}")
            return
        cells = {m: _cell(f[4 + 2 * i], f[5 + 2 * i]) for i, m in enumerate(methods)}
        if spec["oracle"]:
            k = 4 + 2 * len(methods)
            cells["oracle"] = _cell(f[k], f[k + 1])
        # nd-perturbed-cubic has no independent reference: its oracle
        # (cubature_nd) is the reference, and only its absence can fail
        truth = reference(a, n) if reference else cells.get("oracle")
        promised = {}
        if spec["oracle"]:
            promised["oracle"] = (truth, ORACLE_PROMISE)
        if exact:
            promised.update((m, (truth, EXACT_CUBIC_PROMISE)) for m in ("tilde", "saddle", "cfu"))
        t.add(cells, promised, truth)


def check_library(t: Tally, spec: dict, rows_by_family: list, analytic_by_family: list) -> None:
    """Account the fd-derivs cells.  Each finite-difference value must agree
    with the same sweep's analytic-derivative value; the approximation error
    is taken against the family's closed form, where it has one."""
    methods = spec["methods"]
    for fam, rows, analytic in zip(spec["families"], rows_by_family, analytic_by_family):
        size = len(fam["alphas"]) * len(fam["N"])
        t.requested += size * len(methods)
        if len(rows) > size or len(analytic) != size:
            t.problems.append(f"{fam['name']}: row count does not match the grid")
            continue
        reference = REFERENCES.get(fam["name"])
        grid = [(a, n) for a in fam["alphas"] for n in fam["N"]]
        for row, ref_row, (a, n) in zip(rows, analytic, grid):
            cells = {m: None if v is None else complex(*v) for m, v in zip(methods, row)}
            promised = {m: (r, FD_PROMISE) for m, r in zip(methods, ref_row)}
            t.add(cells, promised, reference(a, n) if reference else None)


def summary(t: Tally) -> dict:
    """End-to-end accuracy metrics.  The fractions use Laplace's rule,
    (k + 1) / (n + 2), so that no fraction is exactly zero."""
    failed = t.requested - t.produced
    if not t.errors:
        # the error is undefined; report the largest plausible one, 1
        t.problems.append("no uniform-method cell was produced")
        p50 = p90 = 1.0
    else:
        p50, p90 = (float(x) for x in np.percentile(t.errors, [50, 90]))
    return {
        "failed_frac": (failed + 1) / (t.requested + 2),
        "wrong_frac": (t.wrong + 1) / (t.produced + 2),
        "approx_err_p50": p50,
        "approx_err_p90": p90,
        "failed": failed,
        "wrong": t.wrong,
    }
