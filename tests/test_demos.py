"""Every demo script runs to completion against the package sources.

The demos drive the public API end to end -- model building, the graph
rewrite with its custom-link nodes, sampling, learning and the
experiments -- so each runs in a fresh interpreter and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"mixture_sampler.py"}


def _demos():
    for path in sorted((ROOT / "demos").glob("*.py")):
        marks = [pytest.mark.slow] if path.name in SLOW else []
        yield pytest.param(path, marks=marks, id=path.name)


@pytest.mark.parametrize("demo", _demos())
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-3000:]
