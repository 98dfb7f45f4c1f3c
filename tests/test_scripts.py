from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_pipeline_script_agrees():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_pipeline.py"), str(FIXTURES / "eq.pcp"), "--rounds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "random-play crosscheck: AGREE" in done.stdout
