import importlib.util
import pathlib
import sys
import textwrap

import pytest
from click.testing import CliRunner

from caustica.cli import main


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
