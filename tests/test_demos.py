"""The quick demos run to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 04 and 05 train models and take about a minute each; they are left out
@pytest.mark.parametrize("demo", ["01_autodiff.py", "02_features.py", "03_corpus.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    args = [sys.executable, str(ROOT / "demos" / demo)]
    if demo == "03_corpus.py":
        args.append(str(tmp_path / "corpus"))  # removed with the test directory
    done = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
