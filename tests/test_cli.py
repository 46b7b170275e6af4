import dataclasses
import importlib.util
import io
import math
import pathlib
import sys
import textwrap

import numpy as np
import pytest
from click.testing import CliRunner

from caustica import ToleranceNotMet, cli, registry_get
from caustica.cli import main
from caustica.saddle import find_caustic, find_partner


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(path, body):
    path.write_text(textwrap.dedent(body))


BESSEL_CONFIG = """\
    [integrand]
    name = bessel-sinh

    [sweep]
    alpha = 0.8:1.0:21
    N = 30
    methods = wkb,tilde
    oracle = true
    tol = 1e-10
"""


def test_sweep_bessel_fixture(runner, tmp_path):
    cfg = tmp_path / "sweep.ini"
    _write_config(cfg, BESSEL_CONFIG)
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "# caustica-csv v1"
    header = lines[1].split(",")
    assert header[:4] == ["alpha", "N", "zeta_prime", "regime"]
    assert "oracle_re" in header and "rel_err_tilde" in header
    rows = [l for l in lines[2:] if not l.startswith("#")]
    assert len(rows) == 21
    # at alpha = 1.0 the WKB prefactor diverges; tilde must still be present
    last = rows[-1].split(",")
    cols = dict(zip(header, last))
    assert cols["alpha"].startswith("1")
    assert cols["wkb_re"] == "divergent"
    assert cols["regime"] == "CausticWindow"
    assert float(cols["rel_err_tilde"]) < 0.05
    # away from the caustic both methods track the oracle
    first = dict(zip(header, rows[0].split(",")))
    assert float(first["rel_err_wkb"]) < 0.05
    assert float(first["rel_err_tilde"]) < 0.05


def test_sweep_bessel_oracle_matches_jv(runner, tmp_path):
    # the oracle column against scipy's J_N, down to J_1000(600) ~ 3e-132
    from scipy.special import jv

    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = bessel-sinh

        [sweep]
        alpha = 0.6,0.8,0.95
        N = 100,1000
        methods = wkb
        oracle = true
        """,
    )
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 6
    for row in rows:
        ref = jv(int(row["N"]), float(row["alpha"]) * int(row["N"]))
        oracle = complex(float(row["oracle_re"]), float(row["oracle_im"]))
        assert abs(oracle - ref) <= 1e-9 * abs(ref)


def test_sweep_byte_deterministic(runner, tmp_path):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0.1,0.3
        N = 10,20
        methods = wkb,tilde,saddle,cfu
        """,
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # alpha-major, N-minor ordering
    rows = outs[0].decode().splitlines()[2:]
    keys = [(float(r.split(",")[0]), int(r.split(",")[1])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_nd(runner, tmp_path):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = nd-separable
        dim = 2
        eps = 0.05

        [sweep]
        alpha = 0.05
        N = 30
        methods = wkb-nd,corrected-nd
        oracle = true
        """,
    )
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["rel_err_corrected-nd"]) < 0.05


def test_sweep_nd_coupled_against_oracle(runner, tmp_path):
    # the n-D formulas on the reduced integrand, across the family's whole
    # alpha range and through the fold at alpha = 0, against the n-D oracle
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = nd-perturbed-cubic
        dim = 2

        [sweep]
        alpha = 0:0.5:11
        N = 30,100
        methods = wkb-nd,corrected-nd
        oracle = true
        """,
    )
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 22
    assert all(float(r["rel_err_corrected-nd"]) <= 2e-2 for r in rows)


def test_sweep_unknown_method_exit_2(runner, tmp_path):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0.1
        N = 10
        methods = wkb,magic
        """,
    )
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2
    assert "config error" in result.output


@pytest.mark.parametrize(
    "name, methods",
    [
        ("cubic", "wkb,cfu,corrected-nd"),
        ("cubic", "corrected-nd"),
        ("nd-perturbed-cubic", "corrected-nd,tilde,cfu"),
    ],
)
def test_sweep_wrong_dimension_method_exit_2(runner, tmp_path, name, methods):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        f"""\
        [integrand]
        name = {name}

        [sweep]
        alpha = 0.1
        N = 10
        methods = {methods}
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "config error" in result.output
    assert not out.exists()


def test_sweep_partner_solved_once_per_alpha(runner, tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return find_partner(*args, **kwargs)

    monkeypatch.setattr(cli, "find_partner", counting)
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0.1,0.3
        N = 10,20,30
        methods = cfu
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == [0.1, 0.3]
    assert len(out.read_text().splitlines()) == 2 + 6


def test_sweep_cfu_divergent_at_caustic(runner, tmp_path):
    # at alpha = 0 the cubic's saddles coalesce: no partner, so every N row
    # marks cfu divergent and says why
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0
        N = 10,20,30
        methods = cfu
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
    assert [r["N"] for r in rows] == ["10", "20", "30"]
    for r in rows:
        assert r["cfu_re"] == "divergent" and r["cfu_im"] == ""
        assert r["warnings"].startswith("cfu: saddles have coalesced")


@pytest.mark.parametrize("m", ["0.0001", "0.001"])
def test_sweep_partner_overflow_is_typed(runner, tmp_path, m):
    # the partner's cubic-model seed lands far out on the real axis, where
    # cosh overflows in f''; cfu reads divergent, wkb keeps its value
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        f"""\
        [integrand]
        name = mean-field-toy
        m = {m}

        [sweep]
        alpha = 0.5
        N = 30,3000
        methods = wkb,cfu
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
    assert [r["N"] for r in rows] == ["30", "3000"]
    for r in rows:
        assert math.isfinite(float(r["wkb_re"])) and float(r["wkb_re"]) > 0.0
        assert r["cfu_re"] == "divergent" and r["cfu_im"] == ""
        assert r["warnings"].startswith("cfu: partner iteration diverged")


def test_sweep_tilde_called_once_per_alpha(runner, tmp_path, monkeypatch):
    calls = []
    approx_tilde = cli.approx_tilde

    def counting(intg, alpha, N, c):
        calls.append((alpha, tuple(N)))
        return approx_tilde(intg, alpha, N, c)

    monkeypatch.setattr(cli, "approx_tilde", counting)
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0.1,0.3
        N = 10,20,30
        methods = tilde
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert calls == [(0.1, (10, 20, 30)), (0.3, (10, 20, 30))]
    assert len(out.read_text().splitlines()) == 2 + 6


@pytest.mark.parametrize("methods", ["tilde,saddle", "saddle,tilde"])
def test_sweep_branch_flip_trailer(runner, tmp_path, monkeypatch, methods):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        f"""\
        [integrand]
        name = bessel-sinh

        [sweep]
        alpha = 0.85:1.0:4
        N = 10,30
        methods = {methods}
        """,
    )
    trailer = "# warning: cube-root branch flip across sweep: [0, 1]"

    def lines():
        out = tmp_path / "o.csv"
        result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        return out.read_text().splitlines()

    unpatched = lines()
    assert len(unpatched) == 2 + 8
    assert not any("branch flip" in line for line in unpatched)

    approx_tilde, alphas = cli.approx_tilde, []

    def alternating(intg, alpha, N, c):
        alphas.append(alpha)
        branch = (len(alphas) - 1) % 2
        return [dataclasses.replace(v, branch=branch) for v in approx_tilde(intg, alpha, N, c)]

    monkeypatch.setattr(cli, "approx_tilde", alternating)
    patched = lines()
    assert patched[-1] == trailer
    assert patched[:-1] == unpatched


def test_sweep_wkb_divergent_at_caustic(runner, tmp_path):
    # at alpha = 0 the cubic's Gaussian prefactor diverges: the per-alpha
    # CausticDivergence marks every N's wkb cell divergent and says why
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0
        N = 10,20,30
        methods = wkb,tilde
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
    assert [r["N"] for r in rows] == ["10", "20", "30"]
    for r in rows:
        assert r["wkb_re"] == "divergent" and r["wkb_im"] == ""
        assert r["warnings"].startswith("wkb: |f''(z0)| = ")
        assert "Gaussian prefactor divergent at alpha=0.0" in r["warnings"]
        assert r["tilde_re"] != "divergent"


def test_sweep_mean_field_below_window_exit_3(runner, tmp_path):
    # the z_tilde continuation on the mean-field toy used to overflow in
    # cosh here; now the sweep ends with a typed error: below the coupling
    # window there is no real f'' = 0 point, and the damped Newton stalls
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = mean-field-toy
        m = 0.1

        [sweep]
        alpha = 0.9
        N = 50
        methods = tilde
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 3, result.output
    assert out.read_text().splitlines()[-1].startswith("# error: NoConvergence: ")


@pytest.mark.parametrize("n, oracle, code", [(3000, "true", 0), (10000, "false", 3)])
def test_sweep_mean_field_saddle_on_the_contour(runner, tmp_path, n, oracle, code):
    # the toy's saddle lies on its contour, the real line: at N = 3000 the
    # oracle's ray cuts must reach its peak, and at N = 10^4 |I| ~ e^2029
    # overflows, a typed error with exit 3, not a traceback with exit 1
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        f"""\
        [integrand]
        name = mean-field-toy
        m = 0.1

        [sweep]
        alpha = 1.5
        N = {n}
        methods = wkb
        oracle = {oracle}
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == code, result.output
    last = out.read_text().splitlines()[-1]
    if code:
        assert last.startswith("# error: WrongRegime: approx_wkb: |I| overflows a double")
    else:
        assert float(last.split(",")[-2]) < 1e-3  # rel_err_wkb against the oracle


def test_sweep_method_error_exit_3(runner, tmp_path):
    # alpha < 0 is the complex-saddle side of the cubic: approx_tilde raises
    # WrongRegime, a method failure, while no oracle runs
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = -0.2,0.5
        N = 10
        methods = tilde
        oracle = false
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 3, result.output
    trailer = out.read_text().splitlines()[-1]
    assert trailer.startswith("# error: WrongRegime: ")
    assert "oracle" not in trailer


def test_sweep_bessel_nonpositive_alpha_exit_3(runner, tmp_path):
    # bessel-sinh's saddle guess has no real saddle to give at alpha <= 0:
    # a typed error and exit 3, not a math domain error
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = bessel-sinh

        [sweep]
        alpha = -0.5
        N = 30
        methods = wkb
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 3, result.output
    trailer = out.read_text().splitlines()[-1]
    assert trailer.startswith("# error: BadParameter: ") and "alpha > 0" in trailer


def test_sweep_oracle_error_exit_4(runner, tmp_path, monkeypatch):
    # the oracle runs once per alpha over the N grid; where it raises at the
    # second alpha, every row of the first is written and none of the second
    calls = []
    quad_contour = cli.quad_contour

    def failing(intg, alpha, N, tol):
        calls.append((alpha, tuple(N)))
        if len(calls) == 2:
            raise ToleranceNotMet("made to fail")
        return quad_contour(intg, alpha, N, tol)

    monkeypatch.setattr(cli, "quad_contour", failing)
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = bessel-sinh

        [sweep]
        alpha = 0.8,0.9,0.95
        N = 10,20,30
        methods = wkb
        oracle = true
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 4, result.output
    assert calls == [(0.8, (10, 20, 30)), (0.9, (10, 20, 30))]
    lines = out.read_text().splitlines()
    assert lines[-1] == "# error: oracle failed: made to fail"
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:-1]]
    assert [(float(r["alpha"]), r["N"]) for r in rows] == [(0.8, "10"), (0.8, "20"), (0.8, "30")]
    assert all(r["oracle_re"] for r in rows)


def test_sweep_airy_argument_beyond_100(runner, tmp_path):
    # at alpha = 1, N = 1000 the fold argument zeta' exceeds 100 by rounding;
    # the saddle form must stay exact there
    mpmath = pytest.importorskip("mpmath")
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0.9:1.0:101
        N = 1000
        methods = saddle
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
    assert len(rows) == 101
    for row in rows:
        alpha, n = float(row["alpha"]), int(row["N"])
        exact = complex(
            2j * mpmath.pi * mpmath.mpf(n) ** (-mpmath.mpf(1) / 3)
            * mpmath.airyai(alpha * mpmath.mpf(n) ** (mpmath.mpf(2) / 3))
        )
        value = complex(float(row["saddle_re"]), float(row["saddle_im"]))
        assert abs(value - exact) <= 1e-10 * abs(exact), row["alpha"]


def test_trace_targets_resolve(monkeypatch):
    # bench/spans.py wraps these names by attribute; a rename would make
    # the traced benchmark run fail
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for obj, attr, _ in spans.TARGETS:
        assert callable(getattr(obj, attr, None)), f"{obj.__name__}.{attr}"


def test_write_csv_cell_bytes():
    # each type keeps the text the isinstance rule of _write_csv gives it: bool
    # and numpy integers as %d (both are numbers.Integral, so np.int64(2**62)
    # keeps every digit), numpy floats as %.17g
    row = [None, "x;y", "", 7, -12, True, False, 0.1, -0.0, 1e300, 5e-324,
           math.inf, -math.inf, math.nan, np.float64(0.1), np.float64(-0.0),
           np.float64(math.inf), np.int64(-3), np.int64(2 ** 62), 2 ** 70]
    out = io.StringIO()
    cli._write_csv(out, ["a", "b"], [row, [1.0, 2]])
    assert out.getvalue() == (
        "# caustica-csv v1\na,b\n"
        ",x;y,,7,-12,1,0,0.10000000000000001,-0,1.0000000000000001e+300,"
        "4.9406564584124654e-324,inf,-inf,nan,0.10000000000000001,-0,inf,-3,"
        "4611686018427387904,1180591620717411303424\n"
        "1,2\n"
    )


def test_sweep_missing_config_exit_2(runner, tmp_path):
    result = runner.invoke(
        main, ["sweep", "-c", str(tmp_path / "nope.ini"), "-o", str(tmp_path / "o.csv")]
    )
    assert result.exit_code == 2


def test_sweep_bad_n_exit_2(runner, tmp_path):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = cubic

        [sweep]
        alpha = 0.1
        N = 1
        """,
    )
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "alpha, n, message",
    [
        ("1:2", "30", "range must be start:stop:steps"),
        ("0:1:0", "30", "steps must be >= 1"),
        ("0.1", "30,inf", "N must be finite and >= 2"),
    ],
)
def test_sweep_bad_range_exit_2(runner, tmp_path, alpha, n, message):
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        f"""\
        [integrand]
        name = cubic

        [sweep]
        alpha = {alpha}
        N = {n}
        """,
    )
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2
    assert f"config error: {message}" in result.output


def _sweep_config(integrand="name = cubic", **sweep):
    keys = {"alpha": "0.5", "N": "30", "methods": "wkb", "oracle": "true", "tol": "1e-10"}
    keys.update(sweep)
    lines = [f"{k} = {v}" for k, v in keys.items() if v is not None]
    return "\n".join(["[integrand]", integrand, "", "[sweep]", *lines]) + "\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("[integrand]\nname = cubic\n", "config needs [integrand] and [sweep] sections"),
        (_sweep_config(integrand=""), "missing integrand name"),
        (_sweep_config(alpha=None), "missing alpha range"),
        (_sweep_config(tol="-1"), "tol must be finite and > 0"),
        (_sweep_config(tol="0"), "tol must be finite and > 0"),
        (_sweep_config(tol="inf"), "tol must be finite and > 0"),
        (_sweep_config(tol="nan"), "tol must be finite and > 0"),
        (_sweep_config(alpha="nan"), "range values must be finite"),
        (_sweep_config(alpha="0.1,inf"), "range values must be finite"),
        (_sweep_config(N="30.7"), "N must be a whole number"),
        (_sweep_config(methods=","), "methods must be a list of distinct names"),
        (_sweep_config(methods="wkb,wkb"), "methods must be a list of distinct names"),
        (_sweep_config("name = cubic\nname = cubic"), "option 'name' in section"),
        (_sweep_config("name = perturbed-cubic\nepsilon = 0.3"),
         "perturbed-cubic does not read parameter(s) ['epsilon']"),
        (_sweep_config("name = cubic\neps = 0.3"), "cubic does not read parameter(s) ['eps']"),
        (_sweep_config("name = nd-separable\nc = 0.2", methods="wkb-nd"),
         "nd-separable does not read parameter(s) ['c']"),
        (_sweep_config(methods=None, oracle=None, method="cfu", orcale="true"),
         "[sweep] does not read key(s) ['method', 'orcale']"),
    ],
    ids=[
        "no-sweep-section", "no-name", "no-alpha", "tol-negative", "tol-zero", "tol-inf",
        "tol-nan", "alpha-nan", "alpha-inf", "N-fraction", "methods-empty", "methods-repeat",
        "duplicate-key", "perturbed-cubic-epsilon", "cubic-eps", "nd-separable-c",
        "sweep-misspelt-keys",
    ],
)
def test_sweep_bad_input_exit_2(runner, tmp_path, body, message):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(body)
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output and message in result.output


def test_sweep_caustic_overflow_exit_3(runner, tmp_path):
    # m = 1e10: f'' overflows at find_caustic's first iterate
    cfg = tmp_path / "sweep.ini"
    _write_config(
        cfg,
        """\
        [integrand]
        name = mean-field-toy
        m = 1e10

        [sweep]
        alpha = 1.2
        N = 30
        methods = wkb,tilde
        """,
    )
    out = tmp_path / "o.csv"
    result = runner.invoke(main, ["sweep", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 3, result.output
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("# error: NoConvergence: find_caustic: derivatives overflow")
    assert len(lines) == 3


def test_critical_bessel(runner):
    result = runner.invoke(main, ["critical", "bessel-sinh"])
    assert result.exit_code == 0, result.output
    assert "alpha_hat = 1.000000" in result.output
    assert "status: fold" in result.output


def test_critical_mean_field_param(runner):
    result = runner.invoke(main, ["critical", "mean-field-toy", "--param", "m=0.1"])
    assert result.exit_code == 0, result.output
    assert "alpha_hat = 1.297882" in result.output


def test_critical_prints_zero_parts_unsigned(runner):
    # the analytic f''' of the mean-field toy has imaginary part -0.0 at the
    # real z_tilde; an exact zero prints as +0, not -0.  The cubic family's
    # fold is at alpha = 0 exactly, with no sign from rounding
    for args, line in (
        (["mean-field-toy", "--param", "m=0.1"], "f3_tilde  = 0.738243 +0i"),
        (["cubic"], "alpha_hat = 0.000000"),
        (["perturbed-cubic"], "alpha_hat = 0.000000"),
    ):
        result = runner.invoke(main, ["critical", *args])
        assert result.exit_code == 0, result.output
        assert line in result.output.splitlines()


def test_critical_degenerate_m0(runner):
    result = runner.invoke(main, ["critical", "mean-field-toy", "--param", "m=0"])
    assert result.exit_code == 0, result.output
    assert "status: degenerate" in result.output


def test_critical_unknown_name(runner):
    result = runner.invoke(main, ["critical", "no-such-integrand"])
    assert result.exit_code == 2


def test_critical_bad_param(runner):
    result = runner.invoke(main, ["critical", "mean-field-toy", "--param", "m"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["bessel-sinh", "--param", "x0=abc"], "could not convert"),
        (["bessel-sinh", "--param", "x0=nan"], "x0 must be finite"),
        (["mean-field-toy", "--param", "m=inf"], "m must be finite"),
        (["nd-perturbed-cubic"], "supports one-variable integrands"),
        (["cubic", "--param", "eps=0.3"], "cubic does not read parameter(s) ['eps']"),
        (["perturbed-cubic", "--param", "epsilon=0.3"], "does not read parameter(s) ['epsilon']"),
    ],
)
def test_critical_config_error_exit_2(runner, args, message):
    result = runner.invoke(main, ["critical", *args])
    assert result.exit_code == 2, result.output
    assert "config error: " in result.output and message in result.output


def test_critical_solver_error_exit_3(runner):
    result = runner.invoke(main, ["critical", "mean-field-toy", "--param", "m=1e10"])
    assert result.exit_code == 3, result.output
    assert "error: NoConvergence: find_caustic: derivatives overflow" in result.output


def test_demo_meanfield(runner, tmp_path):
    out = tmp_path / "mf.csv"
    result = runner.invoke(
        main,
        [
            "demo-meanfield",
            "--m", "0.1",
            "--gamma", "1.1:1.5:5",
            "--n", "50,100",
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "# caustica-csv v1"
    assert lines[1].split(",")[0] == "gamma"
    assert len(lines) == 2 + 5 * 2
    assert "max leading-exponent discrepancy" in result.output


def test_demo_meanfield_m0_exit_2(runner, tmp_path):
    result = runner.invoke(
        main,
        ["demo-meanfield", "--m", "0", "--gamma", "1.1:1.5:3", "--n", "50",
         "-o", str(tmp_path / "mf.csv")],
    )
    assert result.exit_code == 2
    assert "chiral" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--m", "0.1", "--N", "0"], "N must be finite and >= 2"),
        (["--m", "0.1", "--N", "1"], "N must be finite and >= 2"),
        (["--m", "0.1", "--N", "50,inf"], "N must be finite and >= 2"),
        (["--m", "0.1", "--N", ","], "missing N list"),
        (["--m", "nan", "--N", "50"], "m must be finite"),
        (["--m", "inf", "--N", "50"], "m must be finite"),
        (["--m", "0.1", "--N", "50.5"], "N must be a whole number"),
        # the last --gamma given wins
        (["--m", "0.1", "--N", "50", "--gamma", "1.1:nan:3"], "range values must be finite"),
        (["--m", "0.1", "--N", "50", "--gamma", ","], "empty gamma range"),
    ],
)
def test_demo_meanfield_config_error_exit_2(runner, tmp_path, args, message):
    result = runner.invoke(
        main,
        ["demo-meanfield", "--gamma", "1.1:1.2:2", *args, "-o", str(tmp_path / "mf.csv")],
    )
    assert result.exit_code == 2, result.output
    assert f"config error: {message}" in result.output


def test_demo_meanfield_solver_error_exit_3(runner, tmp_path):
    result = runner.invoke(
        main,
        ["demo-meanfield", "--m", "1e10", "--gamma", "1.1:1.2:2", "--N", "50",
         "-o", str(tmp_path / "mf.csv")],
    )
    assert result.exit_code == 3, result.output
    assert "error: NoConvergence: find_caustic: derivatives overflow" in result.output


def test_demo_meanfield_reports_divergent_fold_saddle(runner, tmp_path):
    # at gamma = alpha_hat the fold saddles coalesce and their Gaussian term
    # diverges; the printout names the first such gamma
    a_hat = find_caustic(registry_get("mean-field-toy", {"m": 0.1})).alpha_hat
    result = runner.invoke(
        main,
        ["demo-meanfield", "--m", "0.1", "--gamma", f"1.2,{a_hat!r}", "--N", "50,100",
         "-o", str(tmp_path / "mf.csv")],
    )
    assert result.exit_code == 0, result.output
    assert "fold-saddle WKB divergent at gamma = 1.29788" in result.output
