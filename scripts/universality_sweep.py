#!/usr/bin/env python3
"""Sweep bounded universality horizons over the fixture instances.

Usage: python scripts/universality_sweep.py [--max-len 8]

Instances whose every infinite word is a non-solution report AllAccepted at
every horizon; an instance with an infinite solution surfaces the least
counterexample word (its solution prefix) at each horizon.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcpgames import automata as au
from pcpgames import pcp

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-len", type=int, default=8)
    args = parser.parse_args()

    for path in sorted(FIXTURES.glob("*.pcp")):
        inst = pcp.parse_instance(path.read_text(encoding="utf-8"))
        aut = au.build_solution_checker(inst)
        line = [path.stem.ljust(4)]
        for horizon in range(1, args.max_len + 1):
            started = time.perf_counter()
            verdict = au.bounded_universality(aut, horizon)
            token = "all" if verdict.all_accepted else verdict.counterexample
            line.append(f"L={horizon}:{token}({time.perf_counter() - started:.2f}s)")
        print("  ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
