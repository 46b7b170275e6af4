"""One workload process, started in a fresh interpreter by run.py.

    worker.py setup SPEC OUT   time everything before the first row
    worker.py loop SPEC OUT SECONDS TRACE
                               a closed loop of sweeps

SPEC is the JSON spec from workloads.generate; results go to the JSON file
OUT.  A CLI sweep runs one family config of the spec; the library sweep runs
every family.  The loop keeps each sweep's first output next to OUT for the
checks; every later sweep must reproduce it exactly.

Reported times are scaled to a reference machine speed.  A fixed pure-Python
loop that uses nothing from caustica (``calibrate``) runs between sweeps and
after each set-up; a time t measured next to a calibration time c is
reported as t * CAL_REF_S / c.  On a shared machine whose speed drifts by
tens of percent over minutes, this keeps runs comparable: the drift slows
the calibration loop as it slows the program.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter
MIN_SWEEPS = 3
CAL_REF_S = 0.04  # about the median of calibrate() on a 2.1 GHz Xeon vCPU


def calibrate(n: int = 60000) -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = clock()
    acc = 0j
    for k in range(n):
        z = complex(k % 97, k % 13) * 1e-2
        acc += cmath.exp(z) * z / (1.0 + z * z) + math.sqrt(k + 1.0)
    return clock() - t0


def setup(spec: dict) -> dict:
    t0 = clock()
    import caustica  # noqa: F401

    t1 = clock()
    import caustica.cli
    import caustica.saddle

    t2 = clock()
    seen = set()
    for fam, (intg, caustic) in zip(spec["families"], _integrands(spec)):
        key = json.dumps([fam["name"], fam["params"]])
        if caustic and key not in seen:
            caustica.saddle.find_caustic(intg)
        seen.add(key)
    t3 = clock()
    scale = CAL_REF_S / calibrate()
    return {
        "setup_s": (t3 - t0) * scale,
        "import_caustica_s": (t1 - t0) * scale,
        "import_cli_s": (t2 - t1) * scale,
    }


def _integrands(spec: dict, wrap=None):
    """(integrand, needs find_caustic before the first row) per family,
    built as the program under test builds them."""
    import caustica.integrand
    import libsweep

    out = []
    for fam in spec["families"]:
        if spec["kind"] == "library":
            intg = libsweep.build(fam["name"], fam["params"], analytic=False)
            caustic = True
        else:
            intg = caustica.integrand.registry_get(fam["name"], fam["params"])
            # the CLI locates the caustic only for the forms anchored on it
            caustic = bool({"tilde", "saddle"} & set(spec["methods"]))
        out.append((wrap(intg) if wrap else intg, caustic))
    return out


class CliSweep:
    """``caustica sweep -c CONFIG -o CSV`` through click, in this process.
    Each family of the spec is one config, run as one part."""

    def __init__(self, spec: dict, base: str):
        import caustica.cli

        self.main = caustica.cli.main
        self.base = base
        self.parts = len(spec["families"])

    def run(self, k: int, first: bool):
        path = os.path.join(self.base, f"{'first' if first else 'sweep'}{k}.csv")
        config = os.path.join(self.base, f"sweep{k}.ini")
        if os.path.exists(path):
            os.remove(path)
        try:
            self.main(["sweep", "-c", config, "-o", path], standalone_mode=False)
            status = 0
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # an untyped error fails the sweep, not the benchmark
            status = f"{type(exc).__name__}: {exc}"
        return path, status

    def fingerprint(self, result):
        path, status = result
        data = b""
        if os.path.exists(path):  # an untyped error can come before the file
            with open(path, "rb") as fh:
                data = fh.read()
        lines = [ln for ln in data.split(b"\n") if ln and not ln.startswith(b"#")]
        return hashlib.sha256(data).hexdigest(), [status], max(len(lines) - 1, 0)


class LibrarySweep:
    """The fd-derivs library sweep over every family, run as one part."""

    parts = 1

    def __init__(self, spec: dict, base: str, wrap=None):
        self.spec, self.first_out = spec, os.path.join(base, "first.json")
        self.integrands = [intg for intg, _ in _integrands(spec, wrap)]

    def run(self, k: int, first: bool):
        import libsweep

        rows, statuses = [], []
        for intg, fam in zip(self.integrands, self.spec["families"]):
            fam_rows = []
            try:
                libsweep.sweep(intg, fam["alphas"], fam["N"], fam_rows)
                statuses.append(0)
            except Exception as exc:  # an untyped error fails the family, not the benchmark
                statuses.append(f"{type(exc).__name__}: {exc}")
            rows.append(fam_rows)
        if first:
            cells = [[[_pair(v) for v in row] for row in fam_rows] for fam_rows in rows]
            with open(self.first_out, "w") as fh:
                json.dump(cells, fh)
        return rows, statuses

    def fingerprint(self, result):
        rows, statuses = result
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        return digest, statuses, sum(len(r) for r in rows)


def _pair(v):
    return None if v is None else [v.real, v.imag]


class TracedRun:
    """Runs a part with every layer wrapped, and keeps the per-layer
    metrics of each traced round."""

    def __init__(self, spec: dict, sweep, base: str):
        from spans import ROOT, Tracer

        self.tracer = Tracer()
        if isinstance(sweep, LibrarySweep):
            sweep = LibrarySweep(spec, base, wrap=self.tracer.count_evals)
        self.root = self.tracer.wrap(ROOT, sweep.run)
        self.rounds = []

    def begin(self) -> None:
        self.tracer.reset()

    def run(self, k: int, first: bool):
        self.tracer.install()
        try:
            return self.root(k, first)
        finally:
            self.tracer.uninstall()

    def end(self) -> None:
        self.rounds.append(self.tracer.layer_metrics())


def closed_loop(sweep, budget: float, traced: TracedRun = None):
    """Rounds of back-to-back sweeps until the next round would overrun
    ``budget`` seconds.  A round runs every part once; there are at least
    MIN_SWEEPS sweeps.  The first round keeps its output for the checks, and
    every later sweep must reproduce it exactly.  With ``traced``, untraced
    and traced rounds alternate, so that changes in machine load fall on
    both and their difference is the tracing overhead.

    Returns (scaled seconds, rows, traced) per sweep, the exit statuses of
    the first round, the number of rounds, and whether every sweep
    reproduced the first round."""
    n = sweep.parts
    min_rounds = -(-MIN_SWEEPS // n) * (2 if traced else 1)
    sweeps, expected, same, round_raw = [], [None] * n, True, []
    start = clock()
    cal = calibrate()
    while True:
        is_traced = traced is not None and len(round_raw) % 2 == 1
        if is_traced:
            traced.begin()
        r0 = clock()
        for k in range(n):
            first = expected[k] is None
            t0 = clock()
            result = (traced if is_traced else sweep).run(k, first)
            raw = clock() - t0
            cal_before, cal = cal, calibrate()
            fp = sweep.fingerprint(result)
            if first:
                expected[k] = fp
            same &= fp == expected[k]
            sweeps.append((raw * 2 * CAL_REF_S / (cal_before + cal), fp[2], is_traced))
        if is_traced:
            traced.end()
        round_raw.append(clock() - r0)
        elapsed = clock() - start
        if len(round_raw) >= min_rounds and elapsed + statistics.median(round_raw) > budget:
            statuses = [s for fp in expected for s in fp[1]]
            return sweeps, statuses, len(round_raw), same


def _rows_per_s(sweeps, traced: bool):
    return statistics.median(r / t for t, r, g in sweeps if g == traced)


def loop(spec: dict, out: str, seconds: float, trace: bool) -> dict:
    base = os.path.dirname(out)
    sweep = (CliSweep if spec["kind"] == "cli" else LibrarySweep)(spec, base)
    traced = TracedRun(spec, sweep, base) if trace else None
    sweeps, statuses, rounds, same = closed_loop(sweep, seconds, traced)
    res = {
        "statuses": statuses,
        "rows_per_s": _rows_per_s(sweeps, False),
        "sweeps": len(sweeps),
        "rounds": rounds,
        "deterministic": same,
    }
    if trace:
        res["traced_rows_per_s"] = _rows_per_s(sweeps, True)
        res["layers"] = {
            k: statistics.median(m[k] for m in traced.rounds) for k in traced.rounds[0]
        }
    else:
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


def main(argv):
    mode, spec_path, out = argv[:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "setup":
        res = setup(spec)
    else:
        res = loop(spec, out, float(argv[3]), argv[4] == "1")
    with open(out, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
