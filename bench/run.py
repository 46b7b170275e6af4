"""Sweep benchmark for caustica.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed (workloads.py).  Set-up time is the median of several fresh
interpreters; the timed closed loop of sweeps runs in one more fresh
interpreter (worker.py), whose peak resident memory is reported.  The first
round's output is checked here against references computed outside the
package (check.py).  With --trace 1, untraced rounds of sweeps alternate
with rounds that have every layer wrapped (spans.py), and the per-layer
metrics are reported instead of the end-to-end ones.

Prints one line per metric, then, as the last line, a JSON object with the
keys correct, attempted, failed and metrics.  ``attempted`` and ``failed``
count cells (one method at one grid point, or the oracle value) over all
rounds of sweeps; a round runs every config of the workload once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_BEFORE, SETUP_AFTER = 3, 2
TIMEOUT_S = 150

# one thread everywhere, BLAS included; set before numpy is imported
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)

END_TO_END = {
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "wrong_frac": "ratio",
    "approx_err_p50": "ratio",
    "approx_err_p90": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def _child(args: list[str], out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(out.read_text())


def _check(spec: dict, tmp: Path, statuses: list):
    import check

    t = check.Tally()
    if spec["kind"] == "cli":
        for k, (fam, status) in enumerate(zip(spec["families"], statuses)):
            check.check_cli(t, spec, fam, str(tmp / f"first{k}.csv"), status)
        return t
    import libsweep

    analytic = []
    for fam in spec["families"]:
        rows = []
        intg = libsweep.build(fam["name"], fam["params"], analytic=True)
        libsweep.sweep(intg, fam["alphas"], fam["N"], rows)
        analytic.append(rows)
    rows = json.loads((tmp / "first.json").read_text())
    check.check_library(t, spec, rows, analytic)
    return t


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "caustica" / "__init__.py").is_file():
        print(f"error: no caustica sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = workloads.generate(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if spec["kind"] == "cli":
            for k, fam in enumerate(spec["families"]):
                (tmp / f"sweep{k}.ini").write_text(workloads.config_text(spec, fam))

        def setup():
            return _child(["setup", str(spec_path), str(tmp / "setup.json")], tmp / "setup.json")

        # set-up runs on both sides of the loop, so that its median does not
        # rest on one stretch of machine load
        setups = [setup() for _ in range(SETUP_BEFORE)]
        out = tmp / "loop.json"
        res = _child(
            ["loop", str(spec_path), str(out), repr(args.seconds), str(args.trace)], out
        )
        setups += [setup() for _ in range(SETUP_AFTER)]
        tally = _check(spec, tmp, res["statuses"])

    import check

    acc = check.summary(tally)
    rounds = res["rounds"]
    problems = list(tally.problems)
    if not res["deterministic"]:
        problems.append("repeated sweeps did not reproduce the first sweep's output")

    print(f"workload {args.workload}  seed {args.seed}  sweeps {res['sweeps']}  "
          f"rounds {rounds}  exit status {res['statuses']}")
    print(f"cells per round: requested {tally.requested}  produced {tally.produced}  "
          f"failed {acc['failed']}  wrong {acc['wrong']}")
    for p in problems:
        print(f"problem: {p}")
    if args.trace:
        metrics = dict(res["layers"])
        metrics["import.caustica_s"] = statistics.median(s["import_caustica_s"] for s in setups)
        metrics["import.cli_s"] = statistics.median(s["import_cli_s"] for s in setups)
        metrics["trace.untraced_rows_per_s"] = res["rows_per_s"]
        metrics["trace.traced_rows_per_s"] = res["traced_rows_per_s"]
        metrics["trace.overhead_rows_per_s"] = res["traced_rows_per_s"] - res["rows_per_s"]
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "rows_per_s": res["rows_per_s"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            **{k: acc[k] for k in ("failed_frac", "wrong_frac", "approx_err_p50", "approx_err_p90")},
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.requested * rounds,
        "failed": acc["failed"] * rounds,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
