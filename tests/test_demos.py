"""Each script in demos/ runs to completion against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the filters that pyproject gives pytest.  numpy's ComplexWarning cannot be
# named in a -W option, and a -W module field is matched whole, so the
# deprecation filters name each of caustica's modules
MODULES = ["caustica"] + [
    f"caustica.{p.stem}" for p in sorted((ROOT / "src" / "caustica").glob("*.py"))
    if p.stem != "__init__"
]
FLAGS = ["-W", "error::RuntimeWarning"] + [
    f"-Werror::{category}:{module}"
    for category in ("DeprecationWarning", "PendingDeprecationWarning", "FutureWarning")
    for module in MODULES
]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *FLAGS, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
