#!/usr/bin/env python3
"""Fold the perfbench results of a parent and a change into one BENCH JSON file.

Usage: python scripts/bench_fold.py --parent DIR [DIR ...] --change DIR [DIR ...] [-o BENCH.json]

Each DIR holds ``result-<workload>-trace<0|1>.json`` files as perfbench
writes them to ``perfbench/out/``; keep a copy of that directory per run to
fold several runs.  Results are matched by file name across the two sides.
For each result the output records, per side, the number of runs, whether
every run was correct, and the attempted and failed operation totals; for
each metric it records the unit, each side's median and each side's runs
in the order the directories were given.

It also records the two numbers a claimed gain is judged by.  Runs pair by
order: the i-th parent directory with the i-th change directory, so give
the directories in the order the pairs ran.  ``change_lower_pairs`` counts
the pairs whose change run is lower (``null`` when the two sides have
different run counts), and ``parent_iqr`` is the parent's interquartile
range, q3 - q1 of ``statistics.quantiles(runs, n=4)`` (``null`` under two
runs), which the shift of the medians is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


class FoldError(ValueError):
    pass


def _load(dirs: list[Path]) -> dict[str, list[dict]]:
    """Result name (``certify-plays-trace0``) -> the runs found for it, in order."""
    runs: dict[str, list[dict]] = {}
    for d in dirs:
        if not d.is_dir():
            raise FoldError(f"{d} is not a directory")
        for path in sorted(d.glob("result-*.json")):
            runs.setdefault(path.stem.removeprefix("result-"), []).append(json.loads(path.read_text()))
    return runs


def _side(runs: list[dict]) -> dict:
    return {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def _iqr(runs: list[float]) -> float | None:
    if len(runs) < 2:
        return None
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return q3 - q1


def _metric(name: str, parent: list[dict], change: list[dict]) -> dict:
    p, c = ([r["metrics"][name]["value"] for r in runs if name in r["metrics"]] for runs in (parent, change))
    unit = next(r["metrics"][name]["unit"] for r in parent + change if name in r["metrics"])
    return {
        "unit": unit,
        "parent": statistics.median(p) if p else None,
        "change": statistics.median(c) if c else None,
        "parent_runs": p,
        "change_runs": c,
        "parent_iqr": _iqr(p),
        "change_lower_pairs": sum(x < y for x, y in zip(c, p)) if len(p) == len(c) else None,
    }


def fold(parent_dirs: list[Path], change_dirs: list[Path]) -> dict:
    parent, change = _load(parent_dirs), _load(change_dirs)
    if not parent:
        raise FoldError("no result-*.json files on the parent side")
    if parent.keys() != change.keys():
        missing = sorted(parent.keys() ^ change.keys())
        raise FoldError(f"results on one side only: {', '.join(missing)}")
    results = {}
    for name in sorted(parent):
        p, c = parent[name], change[name]
        metrics = sorted({m for r in p + c for m in r["metrics"]})
        results[name] = {
            "parent": _side(p),
            "change": _side(c),
            "metrics": {m: _metric(m, p, c) for m in metrics},
        }
    return {"results": results}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    parser.add_argument("-o", "--output", type=Path, default=None)
    args = parser.parse_args(argv)
    try:
        folded = fold(args.parent, args.change)
    except KeyError as exc:
        print(f"error: a result file lacks the key {exc}", file=sys.stderr)
        return 1
    except (FoldError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(folded, indent=1) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
