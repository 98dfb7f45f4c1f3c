from __future__ import annotations

import json
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


def _result(path: Path, correct: bool, attempted: int, failed: int, **metrics: tuple[float, str]) -> None:
    path.mkdir(parents=True, exist_ok=True)
    body = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    (path / "result-certify-plays-trace0.json").write_text(json.dumps(body))


def test_bench_fold_script(tmp_path):
    for k, run_s in enumerate((3.0, 3.4, 3.2)):
        _result(tmp_path / "parent" / str(k), True, 84, 0, run_s=(run_s, "s"), peak_rss_mb=(29.8, "MB"))
    for k, run_s in enumerate((0.7, 0.6, 0.8)):
        _result(tmp_path / "change" / str(k), k != 1, 84, k, run_s=(run_s, "s"), peak_rss_mb=(29.7, "MB"))
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_fold.py"),
         "--parent", *(str(tmp_path / "parent" / str(k)) for k in range(3)),
         "--change", *(str(tmp_path / "change" / str(k)) for k in range(3)),
         "-o", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    entry = json.loads(out.read_text())["results"]["certify-plays-trace0"]
    assert entry["parent"] == {"runs": 3, "correct": True, "attempted": 252, "failed": 0}
    assert entry["change"] == {"runs": 3, "correct": False, "attempted": 252, "failed": 3}
    assert entry["metrics"]["run_s"] == {
        "unit": "s", "parent": 3.2, "change": 0.7,
        "parent_runs": [3.0, 3.4, 3.2], "change_runs": [0.7, 0.6, 0.8],
        "parent_iqr": 3.4 - 3.0, "change_lower_pairs": 3,
    }
    assert entry["metrics"]["peak_rss_mb"]["unit"] == "MB"


def test_bench_fold_script_leaves_unpaired_gate_numbers_null(tmp_path):
    for k, run_s in enumerate((1.0, 2.0)):
        _result(tmp_path / "parent" / str(k), True, 1, 0, run_s=(run_s, "s"))
    _result(tmp_path / "change" / "0", True, 1, 0, run_s=(0.5, "s"))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_fold.py"),
         "--parent", str(tmp_path / "parent" / "0"), str(tmp_path / "parent" / "1"),
         "--change", str(tmp_path / "change" / "0")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    run_s = json.loads(done.stdout)["results"]["certify-plays-trace0"]["metrics"]["run_s"]
    assert run_s["parent_iqr"] == 1.5 and run_s["change_lower_pairs"] is None


def test_bench_fold_script_rejects_unmatched_results(tmp_path):
    _result(tmp_path / "parent", True, 1, 0, run_s=(1.0, "s"))
    (tmp_path / "change").mkdir()
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_fold.py"),
         "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: results on one side only: certify-plays-trace0\n"
