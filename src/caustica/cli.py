"""Command-line front end: parameter sweeps, caustic location, and the
mean-field demo.

Config grammar for ``caustica sweep`` (flat key=value with section headers)::

    [integrand]
    name = bessel-sinh
    # further keys are registry parameters; one the family does not read is an error

    [sweep]                   # these keys only; another is an error
    alpha = 0.8:1.0:21        # start:stop:steps, or a comma list 0.8,0.9
    N = 30,50
    methods = wkb,tilde,saddle,cfu
    oracle = true
    tol = 1e-10

Methods belong to the integrand's dimension: ``wkb``, ``tilde``, ``saddle``
and ``cfu`` to one-variable integrands, ``wkb-nd`` and ``corrected-nd`` to
n-variable ones.  Naming a method of the other dimension is a config error
(exit 2).

With ``oracle = true`` each row also carries the quadrature oracle's value
and each method's relative error against it, at ``tol`` in 1-D and at
max(tol, 1e-8) in n-D.  The oracle runs once per alpha over the whole N
grid; where it fails at any N of an alpha (its error estimate misses the
tolerance, or the value leaves the double range), the sweep stops before
that alpha's rows, writes an ``# error: oracle failed:`` trailer and exits
4.  A solver error, or a method error other than a divergent cell (such as
``WrongRegime`` where a value overflows a double), ends the sweep the same
way with exit 3.

CSV output is byte-deterministic: fixed column order, %.17g floats, '\\n'
line endings, alpha-major / N-minor row order, versioned header line.
"""

from __future__ import annotations

import configparser
import math
import numbers
import sys

import click

from . import asymnd
from .asym1d import approx_cfu, approx_saddle_form, approx_tilde, approx_wkb
from .errors import (
    BadParameter,
    CausticaError,
    CausticDivergence,
    DegenerateCubic,
    PartnerNotFound,
    UnknownIntegrand,
)
from .integrand import Integrand1D, registry_get
from .oracle import cubature_nd, quad_contour
from .saddle import find_caustic, find_partner, find_saddle, find_saddle_nd

_CSV_HEADER = "# caustica-csv v1"

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4


class _OracleFailed(Exception):
    """A CausticaError raised inside quad_contour or cubature_nd, kept apart
    from method and solver errors so that only it exits with EXIT_ORACLE."""


def _parse_range(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise BadParameter(f"range must be start:stop:steps, got {text!r}")
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps < 1:
            raise BadParameter("steps must be >= 1")
        values = [start] if steps == 1 else [
            start + (stop - start) * i / (steps - 1) for i in range(steps)
        ]
    else:
        values = [float(t) for t in text.split(",") if t.strip()]
    if not all(map(math.isfinite, values)):
        raise BadParameter(f"range values must be finite, got {text!r}")
    return values


def _parse_n_list(text: str) -> list[int]:
    values = [float(t) for t in text.split(",") if t.strip()]
    if not values:
        raise BadParameter("missing N list")
    if not all(2 <= v < math.inf for v in values):
        raise BadParameter("N must be finite and >= 2")
    if not all(v == int(v) for v in values):
        raise BadParameter("N must be a whole number")
    return [int(v) for v in values]


def _parse_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise BadParameter(f"cannot read config file {path!r}")
    if "integrand" not in cp or "sweep" not in cp:
        raise BadParameter("config needs [integrand] and [sweep] sections")
    name = cp["integrand"].get("name")
    if not name:
        raise BadParameter("missing integrand name")
    params = {k: v for k, v in cp["integrand"].items() if k != "name"}
    sw = cp["sweep"]
    unknown = sorted(set(sw) - {"alpha", "n", "methods", "oracle", "tol"})
    if unknown:
        raise BadParameter(f"[sweep] does not read key(s) {unknown}")
    alphas = _parse_range(sw.get("alpha", ""))
    if not alphas:
        raise BadParameter("missing alpha range")
    n_list = _parse_n_list(sw.get("n", ""))
    methods = tuple(
        m.strip() for m in sw.get("methods", "wkb,tilde").split(",") if m.strip()
    )
    if not methods or len(set(methods)) != len(methods):
        raise BadParameter(f"methods must be a list of distinct names, got {methods}")
    tol = float(sw.get("tol", "1e-10"))
    if not 0 < tol < math.inf:
        raise BadParameter(f"tol must be finite and > 0, got {tol}")
    return {
        "name": name,
        "params": params,
        "alphas": alphas,
        "N": n_list,
        "methods": methods,
        "oracle": sw.getboolean("oracle", fallback=False),
        "tol": tol,
    }


class _Sweep1D:
    """Solves the one-variable methods share: the caustic once per sweep and,
    per alpha, the saddle (continued from the previous alpha)."""

    # name -> values at one alpha over the N grid, one per N.  The solvers
    # and formulas are looked up in this module at call time, so that
    # wrappers set on these names (bench/spans.py) see every call.
    calls = {
        "wkb": lambda sw, a, ns: approx_wkb(sw.intg, a, ns, sw.saddle),
        "tilde": lambda sw, a, ns: approx_tilde(sw.intg, a, ns, sw.caustic),
        "saddle": lambda sw, a, ns: approx_saddle_form(sw.intg, a, ns, sw.saddle, sw.caustic),
        "cfu": lambda sw, a, ns: approx_cfu(
            sw.intg, a, ns, sw.saddle, find_partner(sw.intg, a, sw.saddle)
        ),
    }

    def __init__(self, intg, cfg):
        methods = set(cfg["methods"])
        self.intg, self.tol = intg, cfg["tol"]
        self.caustic = find_caustic(intg) if methods & {"tilde", "saddle"} else None
        self.want_saddle = bool(methods & {"wkb", "saddle", "cfu"})
        self.saddle = None

    def solve(self, a):
        if self.want_saddle:
            # continuation across the sweep
            guess = self.saddle.z0 if self.saddle is not None else self.intg.saddle_guess(a)
            self.saddle = find_saddle(self.intg, a, guess)

    def oracle(self, a, ns):
        return quad_contour(self.intg, a, ns, tol=self.tol).value


class _SweepND:
    """The n-variable methods share the saddle solved once per alpha; the
    oracle solves from the same guess and gets it from the integrand's memo."""

    calls = {
        "wkb-nd": lambda sw, a, ns: asymnd.approx_wkb_nd(sw.intg, a, ns, sw.saddle),
        "corrected-nd": lambda sw, a, ns: asymnd.approx_corrected_nd(sw.intg, a, ns, sw.saddle),
    }

    def __init__(self, intg, cfg):
        self.intg, self.tol = intg, cfg["tol"]

    def solve(self, a):
        self.saddle = find_saddle_nd(self.intg, a, self.intg.saddle_guess(a))

    def oracle(self, a, ns):
        return cubature_nd(self.intg, a, ns, tol=max(self.tol, 1e-8)).value


def _sweep_kind(intg):
    return _Sweep1D if isinstance(intg, Integrand1D) else _SweepND


def _sweep_rows(intg, cfg, branches):
    """Yield one CSV row per (alpha, N), alpha-major: method values, oracle
    and relative errors, warnings.  Each method runs once per alpha over the
    whole N grid; a per-alpha error it raises marks every N's cell
    ``divergent``.  The oracle, too, runs once per alpha over the grid,
    before that alpha's rows; its error at any N raises _OracleFailed, so no
    row of that alpha is written.  A row's zeta_prime and regime come from
    the ``tilde`` record, else the first method's.  Adds every cube-root
    branch index that a record reports (only ``tilde``'s do) to ``branches``."""
    sw = _sweep_kind(intg)(intg, cfg)
    methods, ns = cfg["methods"], cfg["N"]
    for a in cfg["alphas"]:
        sw.solve(a)
        grid = {}
        for m in methods:
            try:
                grid[m] = sw.calls[m](sw, a, ns)
            except (CausticDivergence, PartnerNotFound, DegenerateCubic) as exc:
                grid[m] = exc
        if cfg["oracle"]:
            try:
                oracle = sw.oracle(a, ns)
            except CausticaError as exc:
                raise _OracleFailed(exc) from exc
        for i, N in enumerate(ns):
            values, warnings, placed = {}, [], None
            for m in methods:
                if isinstance(grid[m], CausticaError):
                    warnings.append(f"{m}: {grid[m]}")
                    continue
                av = grid[m][i]
                values[m] = av.value
                warnings.extend(av.warnings)
                if placed is None or m == "tilde":
                    placed = av
                if av.branch is not None:
                    branches.add(av.branch)
            row = [a, N] + ([None, None] if placed is None
                            else [placed.zeta_prime, placed.regime.value])
            for m in methods:
                v = values.get(m)
                row += ["divergent", None] if v is None else [v.real, v.imag]
            if cfg["oracle"]:
                o = complex(oracle[i])
                row += [o.real, o.imag]
                for m in methods:
                    v = values.get(m)
                    row.append(None if v is None or abs(o) == 0.0 else abs(v - o) / abs(o))
            row.append(";".join(warnings).replace(",", ";"))
            yield row


def _spec(v) -> str:
    # %.0s prints none of str(None)
    if isinstance(v, str):
        return "%s"
    return "%.0s" if v is None else "%d" if isinstance(v, numbers.Integral) else "%.17g"


def _write_csv(out, cols, rows):
    """The versioned header, the column line, then one line per row: None is
    an empty cell, integers (bool and numpy ones too) are written %d and
    other numbers %.17g.  Each row is written from one %-template, built
    once per tuple of cell types."""
    out.write(_CSV_HEADER + "\n")
    out.write(",".join(cols) + "\n")
    templates = {}
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_spec, row)) + "\n"
        out.write(template % tuple(row))


@click.group()
def main():
    """Asymptotic approximations of exponential integrals near fold caustics."""


@main.command()
@click.option("-c", "--config", "config_path", required=True, type=click.Path())
@click.option("-o", "--output", "output_path", required=True, type=click.Path())
def sweep(config_path, output_path):
    """Run a parameter sweep and write a CSV of method values and errors."""
    try:
        cfg = _parse_config(config_path)
        intg = registry_get(cfg["name"], cfg["params"])
        known = list(_sweep_kind(intg).calls)
        for m in cfg["methods"]:
            if m not in known:
                raise BadParameter(f"method {m!r} does not apply to {cfg['name']}; known: {known}")
    except (BadParameter, UnknownIntegrand, ValueError, configparser.Error) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)

    methods = cfg["methods"]
    cols = ["alpha", "N", "zeta_prime", "regime"]
    for m in methods:
        cols += [f"{m}_re", f"{m}_im"]
    if cfg["oracle"]:
        cols += ["oracle_re", "oracle_im"] + [f"rel_err_{m}" for m in methods]
    cols.append("warnings")
    code = 0
    trailer = None
    branches = set()
    with open(output_path, "w", newline="") as out:
        try:
            _write_csv(out, cols, _sweep_rows(intg, cfg, branches))
            if len(branches) > 1:
                out.write(f"# warning: cube-root branch flip across sweep: {sorted(branches)}\n")
        except _OracleFailed as exc:
            trailer = f"# error: oracle failed: {exc}"
            code = EXIT_ORACLE
        except CausticaError as exc:
            trailer = f"# error: {type(exc).__name__}: {exc}"
            code = EXIT_SOLVER
        if trailer:
            out.write(trailer + "\n")
    if code:
        click.echo(trailer.lstrip("# "), err=True)
        sys.exit(code)


@main.command()
@click.argument("name")
@click.option("--param", "params", multiple=True, help="registry parameter k=v")
def critical(name, params):
    """Locate the expansion point z_tilde and critical parameter alpha_hat."""
    try:
        pmap = {}
        for p in params:
            k, eq, v = p.partition("=")
            if not eq:
                raise BadParameter(f"--param expects k=v, got {p!r}")
            pmap[k.strip()] = v.strip()
        intg = registry_get(name, pmap)
        if not isinstance(intg, Integrand1D):
            raise BadParameter("critical supports one-variable integrands")
    except (BadParameter, UnknownIntegrand, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        c = find_caustic(intg)
    except DegenerateCubic as exc:
        click.echo(f"degenerate: {exc}")
        click.echo("status: degenerate (higher-order catastrophe, fold model invalid)")
        return
    except CausticaError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_SOLVER)
    # + 0.0 turns a signed zero -0.0 into 0.0, so an exact zero prints unsigned
    click.echo(f"alpha_hat = {c.alpha_hat + 0.0:.6f}")
    click.echo(f"z_tilde   = {c.z_tilde.real + 0.0:.6f} {c.z_tilde.imag + 0.0:+.6f}i")
    click.echo(f"f3_tilde  = {c.f3_tilde.real + 0.0:.6g} {c.f3_tilde.imag + 0.0:+.6g}i")
    click.echo("status: fold (f''' nonzero)")


@main.command("demo-meanfield")
@click.option("--m", "m", type=float, required=True, help="symmetry-breaking mass")
@click.option("--gamma", "gamma", required=True, help="coupling range a:b:n")
@click.option("--n", "--N", "n_list", required=True, help="comma list of N values")
@click.option("-o", "--output", "output_path", default="meanfield.csv",
              type=click.Path(), show_default=True)
def demo_meanfield(m, gamma, n_list, output_path):
    """Compare WKB and corrected fluctuation prefactors for the mean-field toy."""
    try:
        if m <= 0:
            raise BadParameter("m must be positive (the chiral limit m=0 is a degenerate "
                               "cusp: the soft-mode cubic coefficient vanishes)")
        gammas = _parse_range(gamma)
        if not gammas:
            raise BadParameter("empty gamma range")
        ns = _parse_n_list(n_list)
        intg = registry_get("mean-field-toy", {"m": m})
    except (BadParameter, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        rows = asymnd.mean_field_compare(intg, gammas, ns)
    except CausticaError as exc:
        # mean_field_compare runs no oracle: every typed error is a method or
        # solver failure
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_SOLVER)

    cols = [
        "gamma", "N", "zeta_prime", "regime", "wkb_exponent",
        "corrected_exponent", "exponent_gap", "prefactor_ratio", "fold_wkb",
    ]
    keys = ["alpha"] + cols[1:]
    with open(output_path, "w", newline="") as out:
        _write_csv(out, cols, ([r[k] for k in keys] for r in rows))
    max_gap = max(r["exponent_gap"] for r in rows if not math.isnan(r["exponent_gap"]))
    window = [r for r in rows if r["fold_wkb"] == "divergent"]
    click.echo(f"rows written: {len(rows)} -> {output_path}")
    click.echo(f"max leading-exponent discrepancy |(1/N)log WKB - (1/N)log corr|: {max_gap:.3e}")
    if window:
        r = window[0]
        click.echo(
            "fold-saddle WKB divergent at gamma = "
            f"{r['alpha']:.6g} (corrected prefactor ratio {r['prefactor_ratio']:.4f})"
        )
    else:
        click.echo("fold-saddle WKB finite across the requested range")


if __name__ == "__main__":
    main()
