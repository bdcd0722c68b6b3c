import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # The one run-dependent part of any output: the directory that
    # ``tempfile`` makes under TMPDIR, and removes again.
    out = re.sub(re.escape(str(tmp_path)) + r"[/\\][^/\\]+", "<tmpdir>", proc.stdout)
    assert out == (EXPECTED / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert list(tmp_path.iterdir()) == []
