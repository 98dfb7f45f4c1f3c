from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from pcpgames import automata as au

from conftest import FIXTURES, load_instance

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_pipeline_script_agrees():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_pipeline.py"), str(FIXTURES / "eq.pcp"), "--rounds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "random-play crosscheck: AGREE" in done.stdout


def test_universality_sweep_script():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "universality_sweep.py"), "--max-len", "12"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert sorted(line.split()[0] for line in lines) == sorted(p.stem for p in FIXTURES.glob("*.pcp"))
    for line in lines:
        name, *cells = line.split()
        aut = au.build_solution_checker(load_instance(name))
        for horizon, cell in enumerate(cells, start=1):
            verdict = au.bounded_universality(aut, horizon)
            token = "all" if verdict.all_accepted else verdict.counterexample
            assert cell.startswith(f"L={horizon}:{token}("), (name, cell)
        assert len(cells) == 12
