"""Smoke test: every demo script runs to completion with RuntimeWarning as an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffcop

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(diffcop.__file__).resolve().parents[1])
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the demos write their figures to the working directory
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
