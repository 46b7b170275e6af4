"""Command-line front end: parameter sweeps, caustic location, and the
mean-field demo.

Config grammar for ``caustica sweep`` (flat key=value with section headers)::

    [integrand]
    name = bessel-sinh
    # any further keys in this section are passed to the registry builder

    [sweep]
    alpha = 0.8:1.0:21        # start:stop:steps, or a comma list 0.8,0.9
    N = 30,50
    methods = wkb,tilde,saddle,cfu
    oracle = true
    tol = 1e-10

CSV output is byte-deterministic: fixed column order, %.17g floats, '\\n'
line endings, alpha-major / N-minor row order, versioned header line.
"""

from __future__ import annotations

import configparser
import math
import sys

import click

from . import asymnd
from .asym1d import (
    approx_cfu,
    approx_saddle_form,
    approx_tilde,
    approx_wkb,
    classify_regime,
)
from .errors import (
    BadParameter,
    CausticaError,
    CausticDivergence,
    DegenerateCubic,
    NoConvergence,
    PartnerNotFound,
    UnknownIntegrand,
)
from .integrand import Integrand1D, IntegrandND, registry_get
from .oracle import cubature_nd, quad_contour
from .saddle import find_caustic, find_partner, find_saddle, find_saddle_nd

_METHODS_1D = ("wkb", "tilde", "saddle", "cfu")
_METHODS_ND = ("wkb-nd", "corrected-nd")
_CSV_HEADER = "# caustica-csv v1"

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_ORACLE = 4


class _OracleFailed(Exception):
    """A CausticaError raised inside quad_contour or cubature_nd, kept apart
    from method and solver errors so that only it exits with EXIT_ORACLE."""


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_range(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise BadParameter(f"range must be start:stop:steps, got {text!r}")
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps < 1:
            raise BadParameter("steps must be >= 1")
        if steps == 1:
            return [start]
        return [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    return [float(t) for t in text.split(",") if t.strip()]


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
    alphas = _parse_range(sw.get("alpha", ""))
    if not alphas:
        raise BadParameter("missing alpha range")
    n_list = [int(float(t)) for t in sw.get("n", sw.get("N", "")).split(",") if t.strip()]
    if not n_list:
        raise BadParameter("missing N list")
    if any(n < 2 for n in n_list):
        raise BadParameter("N must be >= 2")
    methods = tuple(
        m.strip() for m in sw.get("methods", "wkb,tilde").split(",") if m.strip()
    )
    known = set(_METHODS_1D) | set(_METHODS_ND)
    for m in methods:
        if m not in known:
            raise BadParameter(f"unknown method {m!r}; known: {sorted(known)}")
    return {
        "name": name,
        "params": params,
        "alphas": alphas,
        "N": n_list,
        "methods": methods,
        "oracle": sw.getboolean("oracle", fallback=False),
        "tol": float(sw.get("tol", "1e-10")),
    }


def _sweep_rows(cfg):
    """Yield per-(alpha, N) dicts: method values/errors, oracle, diagnostics."""
    intg = registry_get(cfg["name"], cfg["params"])
    methods = cfg["methods"]
    if isinstance(intg, IntegrandND):
        yield from _sweep_rows_nd(intg, cfg)
        return
    want_caustic = any(m in methods for m in ("tilde", "saddle"))
    want_saddle = any(m in methods for m in ("wkb", "saddle", "cfu"))
    caustic = find_caustic(intg) if want_caustic else None
    guess = None
    for a in cfg["alphas"]:
        s = None
        if want_saddle:
            g = guess if guess is not None else (
                intg.saddle_guess(a) if intg.saddle_guess else 0.1 + 0.0j
            )
            s = find_saddle(intg, a, g)
            guess = s.z0  # continuation across the sweep
        for N in cfg["N"]:
            row = {"alpha": a, "N": N, "values": {}, "warnings": []}
            zp = None
            for m in methods:
                try:
                    if m == "wkb":
                        av = approx_wkb(intg, a, N, s)
                    elif m == "tilde":
                        av = approx_tilde(intg, a, N, caustic)
                    elif m == "saddle":
                        av = approx_saddle_form(intg, a, N, s, caustic)
                    else:
                        p = find_partner(intg, a, s)
                        av = approx_cfu(intg, a, N, s, p)
                except (CausticDivergence, PartnerNotFound, DegenerateCubic) as exc:
                    row["values"][m] = "divergent"
                    row["warnings"].append(f"{m}: {exc}")
                    continue
                row["values"][m] = av.value
                row["warnings"].extend(av.warnings)
                if zp is None or m == "tilde":
                    zp = av.zeta_prime
                    row["regime"] = av.regime.value
                if av.params is not None:
                    row.setdefault("branch_index", av.params.branch_index)
            row["zeta_prime"] = zp
            if cfg["oracle"]:
                try:
                    row["oracle"] = quad_contour(intg, a, N, tol=cfg["tol"]).value
                except CausticaError as exc:
                    raise _OracleFailed(exc) from exc
            yield row


def _sweep_rows_nd(intg, cfg):
    for a in cfg["alphas"]:
        g = intg.saddle_guess(a) if intg.saddle_guess else [0.0] * intg.dim
        s = find_saddle_nd(intg, a, g)
        for N in cfg["N"]:
            row = {"alpha": a, "N": N, "values": {}, "warnings": []}
            zp = None
            for m in cfg["methods"]:
                try:
                    if m == "wkb-nd":
                        av = asymnd.approx_wkb_nd(intg, a, N, s)
                    else:
                        av = asymnd.approx_corrected_nd(intg, a, N, s)
                except (CausticDivergence, DegenerateCubic) as exc:
                    row["values"][m] = "divergent"
                    row["warnings"].append(f"{m}: {exc}")
                    continue
                row["values"][m] = av.value
                row["warnings"].extend(av.warnings)
                zp = av.zeta_prime
                row["regime"] = classify_regime(zp).value
            row["zeta_prime"] = zp
            if cfg["oracle"]:
                try:
                    row["oracle"] = cubature_nd(intg, a, N, tol=max(cfg["tol"], 1e-8)).value
                except CausticaError as exc:
                    raise _OracleFailed(exc) from exc
            yield row


def _write_csv(out, cfg, rows):
    methods = cfg["methods"]
    cols = ["alpha", "N", "zeta_prime", "regime"]
    for m in methods:
        cols += [f"{m}_re", f"{m}_im"]
    if cfg["oracle"]:
        cols += ["oracle_re", "oracle_im"]
        cols += [f"rel_err_{m}" for m in methods]
    cols.append("warnings")
    out.write(_CSV_HEADER + "\n")
    out.write(",".join(cols) + "\n")
    branch_seen = set()
    for row in rows:
        fields = [
            _fmt(row["alpha"]),
            "%d" % row["N"],
            _fmt(row["zeta_prime"]) if row.get("zeta_prime") is not None else "",
            row.get("regime", ""),
        ]
        for m in methods:
            v = row["values"].get(m)
            if v == "divergent" or v is None:
                fields += ["divergent", ""]
            else:
                fields += [_fmt(v.real), _fmt(v.imag)]
        if cfg["oracle"]:
            o = row["oracle"]
            fields += [_fmt(o.real), _fmt(o.imag)]
            for m in methods:
                v = row["values"].get(m)
                if v in (None, "divergent") or abs(o) == 0.0:
                    fields.append("")
                else:
                    fields.append(_fmt(abs(v - o) / abs(o)))
        fields.append(";".join(row["warnings"]).replace(",", ";"))
        out.write(",".join(fields) + "\n")
        if "branch_index" in row:
            branch_seen.add(row["branch_index"])
    if len(branch_seen) > 1:
        out.write(f"# warning: cube-root branch flip across sweep: {sorted(branch_seen)}\n")


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
    except (BadParameter, UnknownIntegrand, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        registry_get(cfg["name"], cfg["params"])
    except (UnknownIntegrand, BadParameter) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)

    code = 0
    trailer = None
    with open(output_path, "w", newline="") as out:
        try:
            _write_csv(out, cfg, _sweep_rows(cfg))
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
    pmap = {}
    for p in params:
        if "=" not in p:
            click.echo(f"config error: --param expects k=v, got {p!r}", err=True)
            sys.exit(EXIT_CONFIG)
        k, v = p.split("=", 1)
        pmap[k.strip()] = v.strip()
    try:
        intg = registry_get(name, pmap)
    except (UnknownIntegrand, BadParameter) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if not isinstance(intg, Integrand1D):
        click.echo("config error: critical supports one-variable integrands", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        c = find_caustic(intg)
    except DegenerateCubic as exc:
        click.echo(f"degenerate: {exc}")
        click.echo("status: degenerate (higher-order catastrophe, fold model invalid)")
        return
    except NoConvergence as exc:
        click.echo(f"solver failed: {exc}", err=True)
        sys.exit(EXIT_SOLVER)
    click.echo(f"alpha_hat = {c.alpha_hat:.6f}")
    click.echo(f"z_tilde   = {c.z_tilde.real:.6f} {c.z_tilde.imag:+.6f}i")
    click.echo(f"f3_tilde  = {c.f3_tilde.real:.6g} {c.f3_tilde.imag:+.6g}i")
    click.echo("status: fold (f''' nonzero)")


@main.command("demo-meanfield")
@click.option("--m", "m", type=float, required=True, help="symmetry-breaking mass")
@click.option("--gamma", "gamma", required=True, help="coupling range a:b:n")
@click.option("--n", "--N", "n_list", required=True, help="comma list of N values")
@click.option("-o", "--output", "output_path", default="meanfield.csv",
              type=click.Path(), show_default=True)
def demo_meanfield(m, gamma, n_list, output_path):
    """Compare WKB and corrected fluctuation prefactors for the mean-field toy."""
    if m <= 0:
        click.echo(
            "config error: m must be positive (the chiral limit m=0 is a "
            "degenerate cusp: the soft-mode cubic coefficient vanishes)",
            err=True,
        )
        sys.exit(EXIT_CONFIG)
    try:
        gammas = _parse_range(gamma)
        ns = [int(float(t)) for t in n_list.split(",") if t.strip()]
        if not gammas or not ns:
            raise BadParameter("empty gamma range or N list")
    except (BadParameter, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    intg = registry_get("mean-field-toy", {"m": m})
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
    with open(output_path, "w", newline="") as out:
        out.write(_CSV_HEADER + "\n")
        out.write(",".join(cols) + "\n")
        for r in rows:
            out.write(
                ",".join(
                    [
                        _fmt(r["alpha"]),
                        "%d" % r["N"],
                        _fmt(r["zeta_prime"]),
                        r["regime"],
                        _fmt(r["wkb_exponent"]),
                        _fmt(r["corrected_exponent"]),
                        _fmt(r["exponent_gap"]),
                        _fmt(r["prefactor_ratio"]),
                        r["fold_wkb"],
                    ]
                )
                + "\n"
            )
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
