import importlib.util
import pathlib
import sys
import textwrap

import pytest
from click.testing import CliRunner

from caustica import cli
from caustica.cli import main
from caustica.saddle import find_partner


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
    # cosh here; now the sweep ends with a typed error
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
    assert out.read_text().splitlines()[-1].startswith("# error: WrongRegime: ")


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


def test_critical_bessel(runner):
    result = runner.invoke(main, ["critical", "bessel-sinh"])
    assert result.exit_code == 0, result.output
    assert "alpha_hat = 1.000000" in result.output
    assert "status: fold" in result.output


def test_critical_mean_field_param(runner):
    result = runner.invoke(main, ["critical", "mean-field-toy", "--param", "m=0.1"])
    assert result.exit_code == 0, result.output
    assert "alpha_hat = 1.297882" in result.output


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
