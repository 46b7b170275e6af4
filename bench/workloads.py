"""The four benchmark workloads and their seeded inputs.

Every workload sweeps its family's full declared ``alpha_range``.  The seed
moves interior alpha and N grid points by up to ``JITTER`` of a grid step;
the range endpoints never move, so the defects that sit on them (the cubic
Airy range overflow at alpha=1, N=1000) show on every seed.

Where a sweep changes behaviour at a known alpha, the grid size puts that
alpha between two grid points, further than ``JITTER`` from either, so every
seed fails the same cells there: bessel-sinh's saddle solver fails for
alpha > 1 (104 and 41 points put 1.0 at 0.56 of a step), and nd cubature at
N=100 misses its tolerance on all of [0.2145, 0.2195] and [0.24, 0.26]
(11 points put grid points at 0.2, which passes, and 0.25).

A workload may list one family several times: each entry is drawn
separately, and one round of sweeps runs them all, so that a run averages
over more than one draw.  nd-oracle does so because nd cubature also fails at isolated
alpha points below 0.2, where a failure aborts the rest of its sweep; four
short sweeps average that out where one long sweep would swing with it.
cubic-dense does so because the share of cells whose Airy argument falls in
the inaccurate band [4.6, 6.1] moves with the jittered small N.
"""

from __future__ import annotations

import math
import random

JITTER = 0.1

# kind "cli": ``caustica sweep`` on a generated config, run in-process.
# kind "library": the documented custom-integrand path, each family rebuilt
# with analytic_derivs=None so every derivative comes from finite differences.
WORKLOADS = {
    # the paper's validation run; the quadrature oracle dominates the time
    "bessel-oracle": {
        "kind": "cli",
        "families": [("bessel-sinh", {}, (0.6, 1.05), 104)],
        "N": ("geometric", 10, 1000, 20),
        "methods": ("wkb", "tilde", "saddle", "cfu"),
        "oracle": True,
    },
    # formulas, Airy kernel, solvers and CSV writing; no oracle
    "cubic-dense": {
        "kind": "cli",
        "families": [("cubic", {}, (0.0, 1.0), 1000)] * 2,
        "N": ("geometric", 10, 1000, 21),
        "methods": ("wkb", "tilde", "saddle", "cfu"),
        "oracle": False,
    },
    # finite-difference derivative engine, bypassed by the registry workloads
    "fd-derivs": {
        "kind": "library",
        "families": [
            ("bessel-sinh", {}, (0.6, 1.05), 41),
            ("perturbed-cubic", {}, (0.0, 0.6), 41),
        ],
        "N": ("geometric", 10, 1000, 8),
        "methods": ("wkb", "tilde", "saddle", "cfu"),
        "oracle": False,
    },
    # the only n-D path: find_saddle_nd, asymnd and nested cubature
    "nd-oracle": {
        "kind": "cli",
        "families": [("nd-perturbed-cubic", {"dim": "2"}, (0.0, 0.5), 11)] * 4,
        "N": ("list", 30, 100),
        "methods": ("wkb-nd", "corrected-nd"),
        "oracle": True,
    },
}

ORACLE_TOL = 1e-10


def _linear(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    pts = [lo + step * (i + rng.uniform(-JITTER, JITTER)) for i in range(n)]
    pts[0], pts[-1] = lo, hi
    return pts


def _geometric(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    step = math.log(hi / lo) / (n - 1)
    pts = [lo]
    for i in range(1, n - 1):
        x = round(lo * math.exp(step * (i + rng.uniform(-JITTER, JITTER))))
        pts.append(max(x, pts[-1] + 1))
    pts.append(hi)
    if pts[-2] >= hi:
        raise ValueError("N grid is not strictly increasing")
    return pts


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run: a spec the worker and the checks share."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    kind, *n_args = w["N"]
    families = []
    for name, params, (lo, hi), n_alpha in w["families"]:
        alphas = _linear(rng, lo, hi, n_alpha)
        ns = _geometric(rng, *n_args) if kind == "geometric" else list(n_args)
        families.append(
            {"name": name, "params": params, "alphas": alphas, "N": ns}
        )
    return {
        "workload": workload,
        "kind": w["kind"],
        "families": families,
        "methods": list(w["methods"]),
        "oracle": w["oracle"],
        "tol": ORACLE_TOL,
    }


def config_text(spec: dict, fam: dict) -> str:
    """The ``caustica sweep`` config for one family of a CLI workload."""
    lines = ["[integrand]", f"name = {fam['name']}"]
    lines += [f"{k} = {v}" for k, v in fam["params"].items()]
    lines += [
        "",
        "[sweep]",
        "alpha = " + ",".join(repr(a) for a in fam["alphas"]),
        "N = " + ",".join(str(n) for n in fam["N"]),
        "methods = " + ",".join(spec["methods"]),
        f"oracle = {'true' if spec['oracle'] else 'false'}",
        f"tol = {spec['tol']!r}",
    ]
    return "\n".join(lines) + "\n"
