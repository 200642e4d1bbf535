"""The narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import affinesl2

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[123]_*.py"))


def test_demos_exit_zero():
    assert len(DEMOS) == 3
    src = os.path.dirname(os.path.dirname(affinesl2.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for demo in DEMOS:
        done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (demo.name, done.stderr)
